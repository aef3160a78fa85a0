package repro.baselines

import repro.{SparkSpec, TestCorpora}
import repro.data.Datasets
import repro.eval.Metrics

class ALKSSpec extends SparkSpec {

  test("active learning improves F1 with budget") {
    val prep = TestCorpora.tweetsSmall(spark)
    val seeds = prep.positiveIds.take(2)
    val res = ActiveLearning.run(prep, seeds, budget = 60)
    assert(res.steps.nonEmpty)
    val f1 = Metrics.ofModel(prep, res.model).f1
    assert(f1 > 0.1, s"AL f1=$f1")
  }

  test("active learning respects the query budget") {
    val prep = TestCorpora.tweetsSmall(spark)
    val res = ActiveLearning.run(prep, prep.positiveIds.take(2), budget = 25)
    assert(res.steps.forall(_.queries <= 25))
  }

  test("AL steps are recorded at the eval cadence") {
    val prep = TestCorpora.tweetsSmall(spark)
    val res = ActiveLearning.run(prep, prep.positiveIds.take(2), budget = 30)
    assert(res.steps.map(_.queries).forall(q => q % ActiveLearning.EvalEvery == 0 || q == 30))
  }

  test("keyword sampling builds a pool from the provided keywords") {
    val prep = TestCorpora.tweetsSmall(spark)
    val res = KeywordSampling.run(prep, Datasets.tweets.keywords, budget = 60)
    assert(res.poolSize > 0)
    val f1 = Metrics.ofModel(prep, res.model).f1
    assert(f1 > 0.1, s"KS f1=$f1")
  }

  test("keyword sampling with unknown keywords yields an empty pool") {
    val prep = TestCorpora.tweetsSmall(spark)
    val res = KeywordSampling.run(prep, Seq("qqq", "zzz"), budget = 10)
    assert(res.poolSize === 0)
    assert(res.steps.nonEmpty)
  }

  test("keyword pool only contains sentences with a keyword") {
    val prep = TestCorpora.tweetsSmall(spark)
    val kws = Seq("pizza", "sushi")
    val ids = kws.flatMap(w => prep.index.ids(s"T:t=$w")).toSet
    val res = KeywordSampling.run(prep, kws, budget = 20)
    assert(res.poolSize === ids.size)
  }

  test("Darwin(HS) beats AL and KS on F1 at the same budget (Fig. 9 shape)") {
    val prep = TestCorpora.directionsSmall(spark)
    val spec = Datasets.directions
    val budget = 60
    val rows = repro.eval.Experiments.classifierQuality(prep, spec, budget)
    val byM = rows.map(r => r.method -> r.f1).toMap
    assert(byM("Darwin(HS)") > byM("AL"), s"$byM")
    assert(byM("Darwin(HS)") > byM("KS"), s"$byM")
  }
}
