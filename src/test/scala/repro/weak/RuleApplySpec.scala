package repro.weak

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestCorpora}
import repro.data.{CorpusGen, Datasets}

class RuleApplySpec extends SparkSpec {

  test("weak labels equal driver-side rule matching") {
    import repro.grammar.Heuristic
    import repro.text.Pipeline
    val rules = Seq("G:craving", "T:t=pizza")
    val parsed = rules.map(Heuristic.parse)
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(800L))
    val out = RuleApply.weakLabels(spark, corpus, rules).collect()
    for (r <- out) {
      val id = r.getAs[Long]("id")
      val p = Pipeline.parse(Datasets.tweets.sentence(id)._1)
      val expected = parsed.exists(_.matches(p))
      assert((r.getAs[Int]("weakLabel") == 1) === expected, s"id=$id")
    }
  }

  test("votes identify which rule fired") {
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(400L))
    val out = RuleApply.weakLabels(spark, corpus, Seq("G:craving", "G:ordered"))
      .filter(col("weakLabel") === 1).collect()
    assert(out.nonEmpty)
    for (r <- out) {
      val votes = r.getAs[scala.collection.Seq[Int]]("votes")
      val text = r.getAs[String]("text")
      assert(votes.contains(0) === text.contains("craving"))
      assert(votes.contains(1) === text.contains("ordered"))
    }
  }

  test("phrase-rule weak label counts match DuckDB LIKE semantics") {
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(500L)).toDF()
    val out = RuleApply.weakLabels(spark,
        CorpusGen.corpus(spark, Datasets.tweets, Some(500L)), Seq("G:craving"))
      .agg(sum(col("weakLabel")).cast("string") as "positives")
    Oracle.assertEquivalent(
      out,
      "SELECT CAST(COUNT(*) FILTER (WHERE text LIKE '%craving%') AS VARCHAR) AS positives FROM corpus",
      "corpus" -> corpus)
  }

  test("weak labels of indexed rules of every kind equal their index postings") {
    import repro.grammar.Heuristic
    val small = Seq(
      (Datasets.tweets, 800L, TestCorpora.tweetsSmall(spark)),
      (Datasets.directions, 2000L, TestCorpora.directionsSmall(spark)),
      (Datasets.musicians, 2000L, TestCorpora.musiciansSmall(spark)),
      (Datasets.causeEffect, 1500L, TestCorpora.causeEffectSmall(spark)),
      (Datasets.professions, 4000L, TestCorpora.professionsSmall(spark)),
    )
    val allKinds = Set("Phrase", "TermPat", "ChildPat", "DescPat", "AndPat", "Child2Pat")
    for ((spec, n, prep) <- small) {
      // per kind, the indexed rule with the largest coverage (ties by repr)
      val byKind = prep.index.entries.values.toSeq
        .groupBy(e => Heuristic.parse(e.pattern).getClass.getSimpleName)
      assert(byKind.keySet === allKinds, spec.name)
      val rules = byKind.values.map(_.minBy(e => (-e.count, e.pattern)).pattern).toSeq.sorted
      val votes = RuleApply.weakLabels(spark, CorpusGen.corpus(spark, spec, Some(n)), rules)
        .select("id", "votes").collect()
        .map(r => r.getLong(0).toInt -> r.getAs[scala.collection.Seq[Int]]("votes"))
      for ((rule, i) <- rules.zipWithIndex) {
        val got = votes.collect { case (id, v) if v.contains(i) => id }.sorted
        assert(got.toSeq === prep.index.ids(rule).toSeq, s"${spec.name}: $rule")
      }
    }
  }
}
