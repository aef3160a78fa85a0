package repro.eval

import org.apache.spark.sql.functions.col
import repro.{SparkSpec, TestCorpora}
import repro.core.Strategy
import repro.data.{CorpusGen, Datasets}
import repro.jobs.Paper
import repro.weak.RuleApply

class ExperimentsSpec extends SparkSpec {

  test("table1Row reports size, rate, labeling") {
    val row = Experiments.table1Row(spark, Datasets.tweets, 800L)
    assert(row.name === "tweets")
    assert(row.sentences === 800L)
    assert(row.pctPositives > 5 && row.pctPositives < 20)
    assert(row.labeling === "Intents")
  }

  test("sampleSeed returns requested size with >= 2 positives") {
    val prep = TestCorpora.directionsSmall(spark)
    val s = Experiments.sampleSeed(prep, 20, 7)
    assert(s.length === 20 || s.length === 21 || s.length === 22) // + forced positives
    assert(s.count(_._2 == 1) >= 2)
    assert(s.map(_._1).distinct.length === s.length)
  }

  test("sampleSeed labels agree with ground truth") {
    val prep = TestCorpora.tweetsSmall(spark)
    for ((i, l) <- Experiments.sampleSeed(prep, 50, 8))
      assert(l === (if (prep.gt.get(i)) 1 else 0))
  }

  test("biased sampleSeed excludes sentences with the token") {
    val prep = TestCorpora.directionsSmall(spark)
    val shuttleIds = prep.index.ids("T:t=shuttle").toSet
    val s = Experiments.sampleSeed(prep, 100, 9, excludeToken = Some("shuttle"))
    assert(s.forall { case (i, _) => !shuttleIds.contains(i) })
  }

  test("snubaComparison: Darwin dominates Snuba at small seeds (Fig. 7 shape)") {
    val prep = TestCorpora.directionsSmall(spark)
    val rows = Experiments.snubaComparison(prep, Seq(10, 200), budget = 60, biased = false)
    assert(rows.size === 2)
    val small = rows.head
    assert(small.darwinRecall > small.snubaRecall,
      s"darwin=${small.darwinRecall} snuba=${small.snubaRecall}")
    assert(small.darwinRecall > 0.5)
  }

  test("strategySweep returns one run per strategy with curves") {
    val prep = TestCorpora.tweetsSmall(spark)
    val runs = Experiments.strategySweep(prep, "G:craving", 30,
      Seq(Strategy.HybridSearch(), Strategy.LocalSearch))
    assert(runs.map(_.strategy) === Vector("HS", "LS"))
    for (r <- runs) {
      assert(r.curve.nonEmpty)
      assert(r.finalRecall >= 0.0 && r.finalRecall <= 1.0)
      assert(r.curve.last._2 === r.finalRecall)
    }
  }

  test("table2Row produces two F-scores on tweets") {
    val prep = TestCorpora.tweetsSmall(spark)
    val row = Experiments.table2Row(prep, "G:craving", budget = 50)
    assert(row.f1Darwin > 0.5, s"f1Darwin=${row.f1Darwin}")
    assert(row.f1Snorkel > 0.4, s"f1Snorkel=${row.f1Snorkel}")
  }

  test("runDarwin honors a custom DarwinConfig") {
    val prep = TestCorpora.tweetsSmall(spark)
    val res = Experiments.runDarwin(prep, "G:craving", 10, Strategy.HybridSearch(),
      repro.core.DarwinConfig(k = 50))
    assert(res.queries <= 10)
  }

  test("every seed rule is indexed at the advertised smoke scales 0.05 and 0.1") {
    for (scale <- Seq(0.05, 0.1); spec <- Datasets.all) {
      val prep = TestCorpora.prepared(spark, spec, Experiments.scaledSize(spec, scale))
      assert(prep.index.contains(spec.seedRule),
        s"seed rule '${spec.seedRule}' not in index for ${spec.name} at scale $scale (n=${prep.n})")
    }
  }

  /** ``table`` as pinned: §4.5's phase times blanked (every cell after
    * the phase name), and the index's count of parsed texts dropped, since
    * each partition parses its own distinct texts.
    */
  private def pinned(name: String, table: String): String =
    if (name != "efficiency") table
    else table.linesIterator
      .map(l => if (l.startsWith("|")) l.take(l.indexOf('|', 1) + 1) else l)
      .map(_.replaceAll(" parsed=\\d+", "")).mkString("\n")

  // Golden outputs: a digest of each experiment's printed table at scale
  // 0.05, and §4.5's index stats and result lines in full. Any change to a
  // printed number shows up here. The same values come out under
  // SPARK_MASTER=local[1] and local[4].
  test("repro.jobs.Paper runs every experiment at scale 0.05") {
    val corpora = new Experiments.Corpora(spark, Paper.scale("0.05"))
    val tables = for ((name, experiment) <- Paper.experiments.toSeq) yield {
      val result = experiment(corpora)
      assert(result.rows.nonEmpty, name)
      assert(result.table.linesIterator.count(_.startsWith("|")) > 2, s"$name:\n${result.table}")
      name -> pinned(name, result.table)
    }
    assert(tables.map { case (name, t) => name -> TestCorpora.digest(_.update(t.getBytes("UTF-8"))) } ===
      Seq("table1"     -> "d232e14851a10ddf",
          "table2"     -> "17bc60862f4e1533",
          "snuba"      -> "f000c3c7bb48bd47",
          "coverage"   -> "5d868389ea9e844a",
          "quality"    -> "d9b41bbeb55483f8",
          "efficiency" -> "3e9da47c8c0c9c12"))
    val efficiency = tables.toMap.apply("efficiency").linesIterator.toSeq
    assert(efficiency.contains("index rows=50000 emitted=6040 patterns/4796740 postings kept=4894 " +
                               "prunedLow=1082 prunedHigh=64 keptPostings=3438945 longestList=9747"))
    assert(efficiency.contains("rules=3 queries=10 recall=1.000 precisionOfP=1.000 " +
                               "weakPositives=551 classifierF1=0.984"))
  }

  test("§4.5 weak positives from the index equal RuleApply's count at scale 0.05") {
    val c   = new Experiments.Corpora(spark, 0.05)
    val run = Experiments.efficiency(c).rows.head
    assert(run.rules.length > 1, run.rules)
    val spec    = Datasets.professions
    val applied = RuleApply.weakLabels(spark, CorpusGen.corpus(spark, spec, Some(c.sizeOf(spec))),
                                       run.rules).filter(col("weakLabel") === 1).count()
    assert(run.weakPositives === applied)
  }

  test("repro.jobs.Paper rejects an unknown experiment and a bad --scale") {
    for (args <- Seq(Seq("table3"), Seq("table1", "--scale", "0"), Seq("table1", "--scale", "abc"),
                     Seq("table1", "--scale", "1.5"), Seq("table1", "--scale"))) {
      val e = intercept[IllegalArgumentException](Paper.parse(args))
      assert(Paper.experiments.keys.forall(e.getMessage.contains), e.getMessage)
    }
    assert(Paper.parse(Seq("quality")) === (("quality", 1.0)))
    assert(Paper.parse(Seq("quality", "--scale", "0.05")) === (("quality", 0.05)))
  }

  test("repro.jobs.Paper prints UTF-8 whatever the default charset") {
    val bytes = new java.io.ByteArrayOutputStream
    Paper.utf8(bytes).print("§4.5 ∪ τ")
    assert(bytes.toByteArray.toSeq.map(_ & 0xff) ===
      Seq(0xc2, 0xa7, 0x34, 0x2e, 0x35, 0x20, 0xe2, 0x88, 0xaa, 0x20, 0xcf, 0x84))
  }
}
