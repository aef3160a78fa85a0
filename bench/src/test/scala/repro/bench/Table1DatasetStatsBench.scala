package repro.bench

import repro.SparkSpec
import repro.data.Datasets
import repro.eval.Experiments

/** Table 1 reproduction: dataset statistics at the paper's sizes, computed
  * through the Spark generation dataflow (professions at 1M sentences).
  * Paper values: cause-effect 10.7K/12.2%, musicians 15.8K/10%,
  * directions 15.3K/3.8%, professions 1M/1.1%, tweets 2130/11.4%.
  */
class Table1DatasetStatsBench extends SparkSpec {

  test("Table 1: dataset statistics match the paper") {
    val result = Experiments.table1(BenchCorpora.corpora)
    println(result.table)

    if (BenchCorpora.corpora.scale >= 1.0) {
      val byName = result.rows.map(r => r.name -> r.sentences).toMap
      assert(byName("cause-effect") === 10700L)
      assert(byName("musicians") === 15800L)
      assert(byName("directions") === 15300L)
      assert(byName("professions") === 1000000L)
      assert(byName("tweets") === 2130L)
      for (r <- result.rows) {
        val spec = Datasets.byName(r.name)
        val rate = r.pctPositives / 100
        assert(math.abs(rate - spec.posRate) < 0.02,
          s"${spec.name}: rate=$rate expected ~${spec.posRate}")
      }
    }
  }
}
