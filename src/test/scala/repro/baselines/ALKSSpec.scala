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

  // Golden runs: active learning at budget 60 on the five small corpora,
  // seeded as `Experiments.classifierQuality` seeds it, each pinned as
  // (steps, digest of the final model's bits). The model folds in every
  // sentence AL asked, so the digest pins the max-entropy picks.
  test("golden runs: active learning at budget 60 on the small corpora") {
    val got = TestCorpora.small.map { case (spec, corpus) =>
      val prep = corpus(spark)
      val res  = ActiveLearning.run(prep, prep.index.ids(spec.seedRule).filter(prep.gt.get).take(2), 60)
      spec.name -> ((res.steps.map(s => (s.queries, s.f1)),
                     TestCorpora.digest(_.update(TestCorpora.modelBits(res.model)))))
    }
    assert(got === Seq(
      "tweets" -> ((Vector(
        20 -> 1.0, 30 -> 1.0, 40 -> 1.0, 50 -> 1.0, 60 -> 1.0), "441db67f605bbe60")),
      "directions" -> ((Vector(
        20 -> 0.3266666666666667, 30 -> 0.42406876790830944, 40 -> 0.4438356164383562,
        50 -> 0.47813411078717205, 60 -> 0.4970414201183432), "4aca489f1eb6c83f")),
      "musicians" -> ((Vector(
        20 -> 0.8396226415094339, 30 -> 0.9270833333333334, 40 -> 0.9664082687338502,
        50 -> 0.9690721649484536, 60 -> 1.0), "64bfa3a53c27c61e")),
      "cause-effect" -> ((Vector(
        20 -> 0.8396226415094339, 30 -> 0.9562982005141388, 40 -> 0.9947089947089947,
        50 -> 1.0, 60 -> 1.0), "3196a8e7577b3c06")),
      "professions" -> ((Vector(
        20 -> 0.21220159151193635, 30 -> 0.54014598540146, 40 -> 0.5,
        50 -> 0.7413793103448275, 60 -> 1.0), "f2a4c82ed21a2563"))))
  }

  test("keyword sampling builds a pool from the provided keywords") {
    val prep = TestCorpora.tweetsSmall(spark)
    val res = KeywordSampling.run(prep, Datasets.tweets.keywords, budget = 60)
    assert(res.poolSize > 0)
    val f1 = Metrics.ofModel(prep, res.model).f1
    assert(f1 > 0.1, s"KS f1=$f1")
  }

  // Golden runs: keyword sampling at budget 60 on the five small corpora,
  // each pinned as (pool size, steps, digest of the final model's bits).
  test("golden runs: keyword sampling at budget 60 on the small corpora") {
    val got = TestCorpora.small.map { case (spec, corpus) =>
      val res = KeywordSampling.run(corpus(spark), spec.keywords, 60)
      spec.name -> ((res.poolSize, res.steps.map(s => (s.queries, s.f1)),
                     TestCorpora.digest(_.update(TestCorpora.modelBits(res.model)))))
    }
    assert(got === Seq(
      "tweets" -> ((74, Vector(
        10 -> 0.8941176470588235, 20 -> 0.8791208791208791, 30 -> 0.9238578680203046,
        40 -> 0.8785046728971964, 50 -> 0.9591836734693878, 60 -> 1.0), "6328c975c5492e1e")),
      "directions" -> ((589, Vector(
        10 -> 0.5568627450980392, 20 -> 0.43820224719101125, 30 -> 0.37176470588235294,
        40 -> 0.4854368932038834, 50 -> 0.5015873015873016, 60 -> 0.4968152866242038),
        "85e250517c78e383")),
      "musicians" -> ((269, Vector(
        10 -> 0.76536312849162, 20 -> 0.7435897435897435, 30 -> 0.6846153846153847,
        40 -> 0.8701923076923077, 50 -> 0.860411899313501, 60 -> 0.8558352402745995),
        "e799a3453f22d914")),
      "cause-effect" -> ((414, Vector(
        10 -> 0.812933025404157, 20 -> 0.6861313868613139, 30 -> 0.860411899313501,
        40 -> 0.9082125603864734, 50 -> 0.8148148148148149, 60 -> 0.8558352402745995),
        "b7ed5581549995a2")),
      "professions" -> ((40, Vector(
        10 -> 0.29343629343629346, 20 -> 0.3190661478599222, 30 -> 0.34400000000000003,
        40 -> 0.4195121951219512), "f4dde6712a63e93c"))))
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
