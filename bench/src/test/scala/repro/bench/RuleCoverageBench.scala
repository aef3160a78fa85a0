package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Fig. 9 (a–d) reproduction: progressive rule coverage per traversal
  * strategy. Paper shape: HS is the most stable and reaches coverage ≥0.8
  * within ~120 queries on most datasets; LS rises early then plateaus (it
  * cannot reach semantically-similar rules far away in the hierarchy);
  * HighP favours tiny-coverage rules.
  */
class RuleCoverageBench extends SparkSpec {

  test("Fig 9 (coverage): traversal strategies at budget 150") {
    val result = Experiments.coverage(BenchCorpora.corpora)
    println(result.table)
    val all = result.rows.map { case (name, runs) =>
      name -> runs.map(r => r.strategy -> r.finalRecall).toMap
    }

    if (BenchCorpora.corpora.scale < 1.0) cancel("shape assertions need full scale")
    val hsWins = all.count { case (_, m) => m("HS") >= 0.8 }
    assert(hsWins >= 3, s"HS should reach 0.8 coverage on most datasets: $all")
    // LS plateaus below HS on at least two datasets (paper: LS converges
    // to a very low coverage value)
    val lsBehind = all.count { case (_, m) => m("HS") > m("LS") + 0.1 }
    assert(lsBehind >= 2, s"LS should plateau below HS: $all")
    // HS is never far behind US (robustness claim)
    for ((name, m) <- all)
      assert(m("HS") >= m("US") - 0.15, s"$name: HS ${m("HS")} vs US ${m("US")}")
  }
}
