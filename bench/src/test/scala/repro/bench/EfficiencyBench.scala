package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** §4.5 efficiency reproduction: the full distributed dataflow over the
  * 1M-sentence professions corpus — generation, parsing, sketch
  * extraction, index aggregation (Spark), the Darwin(HS) loop (driver),
  * the weak labels read from the index, and the final classifier. The
  * corpus is prepared afresh, not taken from the suites' shared cache, so
  * the prepare phase is timed whatever ran before.
  *
  * Paper reference points: index construction < 5 min; end-to-end label
  * generation for a 1M corpus < 3 h (65 min with their score-caching
  * optimization). Our per-phase wall times are recorded in EXPERIMENTS.md.
  */
class EfficiencyBench extends SparkSpec {

  test("Efficiency: 1M-sentence professions corpus end-to-end") {
    val result = Experiments.efficiency(BenchCorpora.corpora)
    println(result.table)
    val run = result.rows.head

    assert(run.recall > 0.6, s"recall ${run.recall}")
    assert(run.weakPositives > 0)
    if (BenchCorpora.corpora.scale >= 1.0) {
      // paper: index < 5 min on their 64-core server; allow headroom here
      assert(run.prepareS < 15 * 60, s"index build took ${run.prepareS} s")
      // paper: < 3 h end-to-end for 1M sentences
      assert(run.totalS < 3 * 3600, s"end-to-end took ${run.totalS} s")
    }
  }
}
