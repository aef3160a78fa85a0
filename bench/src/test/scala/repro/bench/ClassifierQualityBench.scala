package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Fig. 9 (e–h) reproduction: F-score of the end classifier at a fixed
  * query budget, Darwin pipelines vs active learning (AL) and keyword
  * sampling (KS). Paper shape: Darwin(HS) dominates AL and KS. In our
  * substrate the separation is driven by class imbalance (AL cannot find
  * enough positives with ~100 labels). It is large on directions (3.8%
  * positives) and shrinks on the ~10%-positive datasets, where our LR
  * substitute is more sample-efficient than the paper's CNN. On
  * professions (1.1%) AL reaches F1 1.0 at full scale and the separation
  * asserted below does not hold (recorded in EXPERIMENTS.md).
  */
class ClassifierQualityBench extends SparkSpec {

  test("Fig 9 (F-score): Darwin(HS) beats AL and KS at budget 100") {
    val result = Experiments.quality(BenchCorpora.corpora)
    println(result.table)
    val rows = result.rows.map { case (name, q) => name -> q.map(r => r.method -> r.f1).toMap }

    if (BenchCorpora.corpora.scale < 1.0) cancel("shape assertions need full scale")
    for ((name, m) <- rows) {
      assert(m("Darwin(HS)") >= m("AL") - 0.05, s"$name: HS ${m("Darwin(HS)")} vs AL ${m("AL")}")
      assert(m("Darwin(HS)") >= m("KS") - 0.02, s"$name: HS ${m("Darwin(HS)")} vs KS ${m("KS")}")
      assert(m("Darwin(HS)") > 0.6, s"$name: HS F1 ${m("Darwin(HS)")}")
    }
    // imbalanced regimes: the paper's separation must be clear
    val byName = rows.toMap
    for (name <- Seq("directions", "professions")) {
      val m = byName(name)
      assert(m("Darwin(HS)") > m("AL") + 0.15, s"$name: HS ${m("Darwin(HS)")} vs AL ${m("AL")}")
      assert(m("Darwin(HS)") > m("KS") + 0.15, s"$name: HS ${m("Darwin(HS)")} vs KS ${m("KS")}")
    }
  }
}
