package repro.core

import org.apache.spark.sql.SparkSession
import repro.{SparkSpec, TestCorpora}
import repro.data.Datasets
import repro.eval.Experiments

class DarwinSpec extends SparkSpec {

  private def hs = Strategy.HybridSearch()

  private def runOn(prep: PreparedCorpus, seedRule: String, budget: Int,
                    st: Strategy): (DarwinResult, ExactOracle) = {
    val oracle = new ExactOracle(prep.gt)
    (new Darwin(prep, oracle).run(seedRule, budget, st), oracle)
  }

  // Golden traces: every strategy at budget 100 on the five small corpora,
  // each pinned as (queries, rules, digest of the (rule, answer, pSize)
  // trace and the final model bits). Any change to which rule is asked
  // when, or to the retrain sequence, shows up here.
  private def fingerprint(res: DarwinResult): (Int, Int, String) =
    (res.queries, res.rules.length, TestCorpora.digest { md =>
      for (e <- res.trace)
        md.update(s"${e.rule}\u0000${e.answer}\u0000${e.pSize}\n".getBytes("UTF-8"))
      md.update(TestCorpora.modelBits(res.model))
    })

  private def golden(st: Strategy, expected: (String, (Int, Int, String))*): Unit =
    test(s"golden trace: ${st.label} at budget 100 on the small corpora") {
      val got = TestCorpora.small.map { case (spec, corpus) =>
        spec.name -> fingerprint(runOn(corpus(spark), spec.seedRule, 100, st)._1)
      }
      assert(got === expected)
    }

  golden(Strategy.LocalSearch,
    "tweets"       -> ((0, 1, "f5e70ecba00a113d")),
    "directions"   -> ((3, 1, "45f1764f3281641d")),
    "musicians"    -> ((0, 1, "197e23e50e96c3f4")),
    "cause-effect" -> ((0, 1, "bc1cdb6c3946fd94")),
    "professions"  -> ((3, 3, "6770ca2e5ca9fe7a")))
  golden(Strategy.UniversalSearch,
    "tweets"       -> ((9, 9, "f7fe58ab2821840d")),
    "directions"   -> ((47, 6, "f9c937c9000a6bfd")),
    "musicians"    -> ((15, 14, "938772b868f84d0a")),
    "cause-effect" -> ((4, 5, "d9a28005bbefd7b0")),
    "professions"  -> ((11, 3, "e2a728f4794ced66")))
  golden(hs,
    "tweets"       -> ((16, 9, "00d4eb576e767faa")),
    "directions"   -> ((70, 6, "c180d4729b362198")),
    "musicians"    -> ((17, 14, "15cd25ca6e68db60")),
    "cause-effect" -> ((4, 5, "d9a28005bbefd7b0")),
    "professions"  -> ((13, 3, "e2a37e1398164c44")))
  golden(Strategy.HighP,
    "tweets"       -> ((90, 17, "845321930b82ccd6")),
    "directions"   -> ((100, 6, "60d3bfd26ef2d2b7")),
    "musicians"    -> ((100, 42, "39b254df6588461c")),
    "cause-effect" -> ((100, 5, "b7bddec4dd1d9719")),
    "professions"  -> ((100, 4, "a11edc091a3fe3e6")))
  golden(Strategy.HighC,
    "tweets"       -> ((82, 9, "47a305ac5a8ea6ec")),
    "directions"   -> ((100, 1, "ec50cb7ae81a9c85")),
    "musicians"    -> ((100, 1, "0b9c4d07778f0a44")),
    "cause-effect" -> ((100, 4, "f3425e47a10485d7")),
    "professions"  -> ((100, 1, "a8daf6e788d03d01")))

  private val allStrategies = Seq(Strategy.LocalSearch, Strategy.UniversalSearch, hs,
                                  Strategy.HighP, Strategy.HighC)

  private def jaccard(a: Array[Int], b: Array[Int]): Double = {
    val (x, y) = (a.toSet, b.toSet)
    val inter  = x.intersect(y).size
    inter.toDouble / (x.size + y.size - inter)
  }

  test("no asked rule is a near-duplicate of an earlier asked rule, for every strategy") {
    for ((spec, corpus) <- TestCorpora.small; st <- allStrategies) {
      val prep  = corpus(spark)
      val asked = runOn(prep, spec.seedRule, 100, st)._1.trace.map(e => prep.index.ids(e.rule))
      for (i <- asked.indices; j <- 0 until i)
        assert(jaccard(asked(i), asked(j)) < Darwin.MaxAskedJaccard,
               s"${spec.name} ${st.label}: query ${i + 1} repeats query ${j + 1}")
    }
  }

  test("P grows on every YES and stays put on every NO, for every strategy") {
    for ((spec, corpus) <- TestCorpora.small; st <- allStrategies) {
      val prep  = corpus(spark)
      val trace = runOn(prep, spec.seedRule, 100, st)._1.trace
      val sizes = prep.index.count(spec.seedRule) +: trace.map(_.pSize)
      for ((e, before) <- trace.zip(sizes))
        if (e.answer) assert(e.pSize > before, s"${spec.name} ${st.label}: YES on ${e.rule}")
        else assert(e.pSize === before, s"${spec.name} ${st.label}: NO on ${e.rule}")
    }
  }

  // Every strategy at budget 100 on the five small corpora and on
  // professions at the scale-0.05 size, where pruning the local pool after
  // an accept changes which rules LS and HS would ask.
  private lazy val invariantRuns: Seq[(String, PreparedCorpus, String, DarwinResult, ExactOracle)] = {
    val professions = Datasets.professions
    val scaled = professions -> ((s: SparkSession) =>
      TestCorpora.prepared(s, professions, Experiments.scaledSize(professions, 0.05)))
    for ((spec, corpus) <- TestCorpora.small :+ scaled; st <- allStrategies) yield {
      val prep          = corpus(spark)
      val (res, oracle) = runOn(prep, spec.seedRule, 100, st)
      (s"${spec.name} n=${prep.n} ${st.label}", prep, spec.seedRule, res, oracle)
    }
  }

  test("no asked rule has its coverage inside P when asked, for every strategy") {
    for ((run, prep, seedRule, res, _) <- invariantRuns) {
      val p = prep.index.cover(Seq(seedRule))
      for (e <- res.trace) {
        val ids = prep.index.ids(e.rule)
        assert(ids.exists(!p.get(_)), s"$run: query ${e.query} asks ${e.rule} with C_r ⊆ P")
        if (e.answer) ids.foreach(p.set)
      }
    }
  }

  test("the budget counts only oracle queries, for every strategy") {
    for ((run, _, _, res, oracle) <- invariantRuns) {
      assert(res.queries === oracle.queries, run)
      assert(oracle.queries <= 100, run)
    }
  }

  test("golden trace: HS runFromPositives at budget 100 on tweets (small)") {
    val prep = TestCorpora.tweetsSmall(spark)
    val res = new Darwin(prep, new ExactOracle(prep.gt))
      .runFromPositives(prep.positiveIds.take(3), 100, hs)
    assert(fingerprint(res) === ((20, 9, "f198d6453f3368a5")))
  }

  test("HS discovers most positives on tweets (small)") {
    val prep = TestCorpora.tweetsSmall(spark)
    val (res, _) = runOn(prep, "G:craving", 60, hs)
    assert(prep.recall(res.positives) > 0.7,
      s"recall=${prep.recall(res.positives)} rules=${res.rules.take(10)}")
  }

  test("HS discovers most positives on directions (small)") {
    val prep = TestCorpora.directionsSmall(spark)
    val (res, _) = runOn(prep, Datasets.directions.seedRule, 80, hs)
    assert(prep.recall(res.positives) > 0.7,
      s"recall=${prep.recall(res.positives)} rules=${res.rules.take(10)}")
  }

  test("accepted rules are precise (>= oracle threshold)") {
    val prep = TestCorpora.musiciansSmall(spark)
    val (res, oracle) = runOn(prep, "G:composer", 60, hs)
    for (r <- res.rules)
      assert(oracle.precision(prep.index.ids(r)) >= RuleOracle.MinPrecision, s"imprecise rule $r")
  }

  test("P grows monotonically along the trace") {
    val prep = TestCorpora.causeEffectSmall(spark)
    val (res, _) = runOn(prep, "G:caused", 50, hs)
    val sizes = res.trace.map(_.pSize)
    assert(sizes.zip(sizes.drop(1)).forall { case (a, b) => b >= a })
  }

  test("budget is respected and trace query ids are increasing") {
    val prep = TestCorpora.tweetsSmall(spark)
    val (res, oracle) = runOn(prep, "G:craving", 15, hs)
    assert(oracle.queries <= 15)
    assert(res.trace.map(_.query) === res.trace.map(_.query).sorted)
    assert(res.trace.size === oracle.queries)
  }

  test("positive answers extend P by the rule coverage") {
    val prep = TestCorpora.tweetsSmall(spark)
    val (res, _) = runOn(prep, "G:craving", 40, hs)
    for (r <- res.rules)
      prep.index.ids(r).foreach(i => assert(res.positives.get(i), s"$r id $i not in P"))
  }

  test("unknown seed rule is rejected") {
    val prep = TestCorpora.tweetsSmall(spark)
    val oracle = new ExactOracle(prep.gt)
    intercept[IllegalArgumentException] {
      new Darwin(prep, oracle).run("G:no such phrase here", 5, hs)
    }
  }

  test("runFromPositives seeds the pipeline without a rule") {
    val prep = TestCorpora.tweetsSmall(spark)
    val seeds = prep.positiveIds.take(3)
    val oracle = new ExactOracle(prep.gt)
    val res = new Darwin(prep, oracle).runFromPositives(seeds, 50, hs)
    assert(prep.recall(res.positives) > 0.5,
      s"recall=${prep.recall(res.positives)}")
  }

  test("LocalSearch stays near the seed but makes progress") {
    val prep = TestCorpora.directionsSmall(spark)
    val (res, _) = runOn(prep, Datasets.directions.seedRule, 60, Strategy.LocalSearch)
    assert(prep.recall(res.positives) > 0.15)
    assert(res.rules.length >= 1)
  }

  test("UniversalSearch runs and respects the avg-benefit filter") {
    val prep = TestCorpora.tweetsSmall(spark)
    val (res, oracle) = runOn(prep, "G:craving", 40, Strategy.UniversalSearch)
    assert(oracle.queries <= 40)
    // every queried rule had avg classifier benefit > 0.5 at query time —
    // indirectly visible as a decent acceptance rate
    val yesRate = res.trace.count(_.answer).toDouble / math.max(1, res.trace.size)
    assert(yesRate > 0.2, s"yesRate=$yesRate")
  }

  test("HighC queries huge-coverage rules that mostly get rejected (§4.3 footnote)") {
    val prep = TestCorpora.directionsSmall(spark)
    val (res, _) = runOn(prep, Datasets.directions.seedRule, 30, Strategy.HighC)
    val rejected = res.trace.count(!_.answer)
    assert(rejected > res.trace.size / 2,
      s"expected mostly rejections, got $rejected/${res.trace.size}")
  }

  test("HighP picks precise but small rules (low final recall vs HS)") {
    val prep = TestCorpora.directionsSmall(spark)
    val (hp, _) = runOn(prep, Datasets.directions.seedRule, 60, Strategy.HighP)
    val (hsr, _) = runOn(prep, Datasets.directions.seedRule, 60, hs)
    assert(prep.recall(hsr.positives) >= prep.recall(hp.positives) - 0.05,
      s"HS=${prep.recall(hsr.positives)} HighP=${prep.recall(hp.positives)}")
  }

  test("recall curve starts at seed recall and ends at final recall") {
    val prep = TestCorpora.tweetsSmall(spark)
    val (res, _) = runOn(prep, "G:craving", 30, hs)
    val seedBits = new java.util.BitSet(prep.n)
    prep.index.ids("G:craving").foreach(seedBits.set)
    val curve = res.recallCurve(prep.recall(seedBits))
    assert(curve.head._1 === 0)
    assert(curve.last._2 === prep.recall(res.positives))
  }

  test("results are deterministic for a fixed config") {
    val prep = TestCorpora.tweetsSmall(spark)
    val r1 = runOn(prep, "G:craving", 25, hs)._1
    val r2 = runOn(prep, "G:craving", 25, hs)._1
    assert(r1.rules === r2.rules)
    assert(r1.trace === r2.trace)
  }

  test("noisy sample oracle still yields useful rules end-to-end (§4.5)") {
    val prep = TestCorpora.tweetsSmall(spark)
    val oracle = new SampleOracle(prep.gt, seed = 13)
    val res = new Darwin(prep, oracle).run("G:craving", 60, hs)
    assert(prep.recall(res.positives) > 0.5)
    // P precision may dip below the exact-oracle regime but stays usable
    assert(prep.precisionOf(res.positives) > 0.5)
  }
}
