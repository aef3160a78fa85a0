package repro.baselines

import repro.{SparkSpec, TestCorpora}
import repro.eval.Experiments

class SnubaSpec extends SparkSpec {

  test("with a large labeled sample Snuba finds precise evidenced rules") {
    val prep = TestCorpora.tweetsSmall(spark)
    val labeled = Experiments.sampleSeed(prep, 300, 1)
    val res = Snuba.run(prep, labeled)
    assert(res.rules.nonEmpty)
    assert(prep.recall(res.positives) > 0.3, s"recall=${prep.recall(res.positives)}")
  }

  test("selected rules meet the precision floor on the labeled subset") {
    val prep = TestCorpora.tweetsSmall(spark)
    val labeled = Experiments.sampleSeed(prep, 300, 2)
    val labMap = labeled.toMap
    val res = Snuba.run(prep, labeled)
    for (r <- res.rules) {
      val hits = prep.index.ids(r).filter(labMap.contains)
      val pos = hits.count(labMap(_) == 1)
      assert(pos.toDouble / hits.length >= Snuba.MinPrecision, s"rule $r below floor")
      assert(pos >= Snuba.MinPositives)
    }
  }

  test("with a tiny seed Snuba finds far fewer positives than with a large seed") {
    val prep = TestCorpora.directionsSmall(spark)
    val small = Snuba.run(prep, Experiments.sampleSeed(prep, 15, 3))
    val large = Snuba.run(prep, Experiments.sampleSeed(prep, 600, 3))
    assert(prep.recall(large.positives) > prep.recall(small.positives),
      s"large=${prep.recall(large.positives)} small=${prep.recall(small.positives)}")
  }

  test("biased seed: Snuba cannot emit rules for the excluded family (Fig. 8)") {
    val prep = TestCorpora.directionsSmall(spark)
    val labeled = Experiments.sampleSeed(prep, 400, 4, excludeToken = Some("shuttle"))
    val res = Snuba.run(prep, labeled)
    assert(!res.rules.exists(_.contains("shuttle")),
      s"rules mention shuttle: ${res.rules.filter(_.contains("shuttle"))}")
    // consequently most shuttle-family positives are missed (a precise
    // structural rule may incidentally cover a few shuttle sentences)
    val shuttleIds = prep.index.ids("T:t=shuttle").filter(prep.gt.get)
    if (shuttleIds.nonEmpty) {
      val found = shuttleIds.count(res.positives.get)
      assert(found <= shuttleIds.length / 2,
        s"found $found/${shuttleIds.length} shuttle positives without evidence")
    }
  }

  test("diversity constraint limits near-duplicate rules") {
    val prep = TestCorpora.tweetsSmall(spark)
    val labeled = Experiments.sampleSeed(prep, 300, 5)
    val res = Snuba.run(prep, labeled, Snuba.Config(maxJaccard = 0.3))
    val labIds = labeled.map(_._1).toSet
    val sets = res.rules.map(r => prep.index.ids(r).filter(labIds).toSet)
    for (i <- sets.indices; j <- 0 until i) {
      val inter = sets(i).intersect(sets(j)).size.toDouble
      val union = sets(i).union(sets(j)).size.toDouble
      assert(union == 0 || inter / union <= 0.3 + 1e-9)
    }
  }

  test("maxRules bound is respected") {
    val prep = TestCorpora.tweetsSmall(spark)
    val labeled = Experiments.sampleSeed(prep, 400, 6)
    val res = Snuba.run(prep, labeled, Snuba.Config(maxRules = 3))
    assert(res.rules.length <= 3)
  }

  test("empty-evidence seed yields no rules") {
    val prep = TestCorpora.tweetsSmall(spark)
    // all-negative labeled set (MinPositives cannot be met)
    val negs = (0 until prep.n).filterNot(prep.gt.get).take(50)
      .map(i => (i, 0)).toArray
    val res = Snuba.run(prep, negs)
    assert(res.rules.isEmpty)
    assert(res.positives.cardinality() === 0)
  }
}
