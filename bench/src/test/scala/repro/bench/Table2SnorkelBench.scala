package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Table 2 reproduction: classifier F-score on Darwin(HS) labels vs labels
  * de-noised by the Snorkel-substitute label model.
  * Paper: M 0.91/0.82, C 0.79/0.78, D 0.89/0.97, F 0.87/0.87 —
  * de-noising gives little or no improvement because Darwin's rules are
  * already ≥0.8-precision (that shape, not the absolute values, is the
  * reproduction target).
  */
class Table2SnorkelBench extends SparkSpec {

  test("Table 2: Darwin vs Darwin+Snorkel F-score") {
    val result = Experiments.table2(BenchCorpora.corpora)
    println(result.table)

    if (BenchCorpora.corpora.scale < 1.0) cancel("shape assertions need full scale")
    for (r <- result.rows) {
      assert(r.f1Darwin > 0.6, s"${r.name}: Darwin F1 ${r.f1Darwin}")
      // Snorkel-style de-noising must not destroy the labels (paper: "in
      // most cases using Snorkel does not yield any improvements")
      assert(r.f1Snorkel > r.f1Darwin - 0.25,
        s"${r.name}: Snorkel F1 ${r.f1Snorkel} vs ${r.f1Darwin}")
    }
  }
}
