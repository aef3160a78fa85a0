package repro.baselines

import repro.{SparkSpec, TestCorpora}
import repro.eval.Experiments

class SnubaSpec extends SparkSpec {

  // Golden selections: Snuba on the five small corpora from random seeds of
  // 25 and 200 labeled sentences, and from biased ones where the dataset
  // has a bias token, each pinned as (rules, digest of the rules in order,
  // positives). Any change to which rules are selected shows up here.
  test("golden selections: Snuba from seeds of 25 and 200 on the small corpora") {
    val got = for {
      (spec, corpus) <- TestCorpora.small
      bias           <- None +: spec.biasToken.toSeq.map(Some(_))
      size           <- Seq(25, 200)
    } yield {
      val prep = corpus(spark)
      val res  = Snuba.run(prep, Experiments.sampleSeed(prep, size, 101L + size, bias))
      s"${spec.name} ${bias.fold("random")(_ => "biased")} $size" ->
        ((res.rules.length,
          TestCorpora.digest(md => res.rules.foreach(r => md.update(s"$r\n".getBytes("UTF-8")))),
          res.positives.cardinality()))
    }
    assert(got === Seq(
      "tweets random 25"        -> ((0, "e3b0c44298fc1c14", 0)),
      "tweets random 200"       -> ((16, "b0c2278b7037eb62", 93)),
      "directions random 25"    -> ((0, "e3b0c44298fc1c14", 0)),
      "directions random 200"   -> ((3, "bfb29dcee6e797c0", 43)),
      "directions biased 25"    -> ((0, "e3b0c44298fc1c14", 0)),
      "directions biased 200"   -> ((2, "e84cbac331ad3e06", 30)),
      "musicians random 25"     -> ((0, "e3b0c44298fc1c14", 0)),
      "musicians random 200"    -> ((10, "891984a9d06a8042", 127)),
      "musicians biased 25"     -> ((0, "e3b0c44298fc1c14", 0)),
      "musicians biased 200"    -> ((10, "891984a9d06a8042", 127)),
      "cause-effect random 25"  -> ((1, "e7ac6de0d0cd19fa", 22)),
      "cause-effect random 200" -> ((7, "c0c5aa4a2b91c0ba", 218)),
      "professions random 25"   -> ((1, "8a7570bf3069040a", 24)),
      "professions random 200"  -> ((0, "e3b0c44298fc1c14", 0))))
  }

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
