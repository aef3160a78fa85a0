package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Fig. 7/8 reproduction: fraction of positives identified vs seed size,
  * Darwin(HS) vs Snuba, unbiased and biased seeds. Paper shape: Darwin
  * finds the majority of positives from ≤25 labeled sentences; Snuba needs
  * 200 (directions) to 1000 (musicians) random sentences, and under a
  * biased seed (no 'shuttle'/'composer' sentences) Snuba misses the
  * excluded family entirely while Darwin still recovers it.
  */
class SnubaComparisonBench extends SparkSpec {

  private lazy val result = {
    val r = Experiments.snuba(BenchCorpora.corpora)
    println(r.table)
    r
  }

  private def check(specName: String): Unit =
    for (sweep <- result.rows if sweep.dataset == specName) {
      val rows = sweep.rows
      val tag  = if (sweep.biased) "biased" else "random"
      val small = rows.filter(_.seedSize <= 25)
      if (BenchCorpora.corpora.scale >= 1.0) for (r <- small) {
        assert(r.darwinRecall > 0.5,
          s"$specName/$tag seed=${r.seedSize}: Darwin recall ${r.darwinRecall}")
        assert(r.darwinRecall > r.snubaRecall,
          s"$specName/$tag seed=${r.seedSize}: Darwin ${r.darwinRecall} vs Snuba ${r.snubaRecall}")
      }
      // Snuba improves substantially with a large random sample
      if (!sweep.biased && BenchCorpora.corpora.scale >= 1.0)
        assert(rows.last.snubaRecall > small.head.snubaRecall,
          s"$specName: Snuba should improve with seed size")
    }

  test("Fig 7/8 (directions): Darwin dominates Snuba at small and biased seeds") {
    check("directions")
  }

  test("Fig 7/8 (musicians): Darwin dominates Snuba at small and biased seeds") {
    check("musicians")
  }
}
