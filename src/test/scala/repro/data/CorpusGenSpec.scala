package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.text.Pipeline

class CorpusGenSpec extends SparkSpec {

  test("sentence generation is deterministic in (dataset, id)") {
    for (spec <- Datasets.all; id <- 0L until 50L)
      assert(spec.sentence(id) === spec.sentence(id))
  }

  test("different ids give different draws (not constant output)") {
    val texts = (0L until 200L).map(Datasets.directions.sentence(_)._1).distinct
    assert(texts.size > 50)
  }

  test("no unresolved slot braces in any rendered sentence") {
    for (spec <- Datasets.all; id <- 0L until 500L) {
      val (text, _) = spec.sentence(id)
      assert(!text.contains("{") && !text.contains("}"), s"${spec.name}: $text")
    }
  }

  test("all template slot names resolve to known word lists") {
    for (spec <- Datasets.all; t <- spec.pos ++ spec.neg; s <- t.slotNames)
      assert(Tmpl.lists.contains(s), s"${spec.name}: unknown slot $s in '${t.text}'")
  }

  test("positive rates approximate Table 1 within tolerance") {
    val tolerances = Map("tweets" -> 0.03).withDefaultValue(0.015)
    for (spec <- Datasets.all) {
      val n = math.min(spec.n, 20000L)
      val rate = (0L until n).count(spec.sentence(_)._2 == 1).toDouble / n
      assert(math.abs(rate - spec.posRate) < tolerances(spec.name),
        s"${spec.name}: rate=$rate expected~${spec.posRate}")
    }
  }

  test("Table 1 sentence counts and labeling types match the paper") {
    val bySpec = Datasets.all.map(s => s.name -> s).toMap
    assert(bySpec("cause-effect").n === 10700L)
    assert(bySpec("cause-effect").labeling === "Relations")
    assert(bySpec("musicians").n === 15800L)
    assert(bySpec("musicians").labeling === "Entities")
    assert(bySpec("directions").n === 15300L)
    assert(bySpec("directions").labeling === "Intents")
    assert(bySpec("professions").n === 1000000L)
    assert(bySpec("professions").labeling === "Entities")
    assert(bySpec("tweets").n === 2130L)
    assert(bySpec("tweets").labeling === "Intents")
  }

  test("seed rules are perfectly precise on the generated labels") {
    for (spec <- Datasets.all) {
      val phrase = spec.seedRule.stripPrefix("G:").split(' ').toVector
      var cover = 0; var pos = 0
      for (id <- 0L until math.min(spec.n, 30000L)) {
        val (text, label) = spec.sentence(id)
        if (Pipeline.tokenize(text).indexOfSlice(phrase) >= 0) {
          cover += 1; pos += label
        }
      }
      assert(cover > 5, s"${spec.name}: seed '${spec.seedRule}' has no coverage")
      assert(pos.toDouble / cover >= 0.95,
        s"${spec.name}: seed precision ${pos.toDouble / cover}")
    }
  }

  test("bias tokens appear only in positive sentences of their dataset") {
    for (spec <- Datasets.all; tok <- spec.biasToken) {
      var inPos = 0; var inNeg = 0
      for (id <- 0L until 20000L) {
        val (text, label) = spec.sentence(id)
        if (Pipeline.tokenize(text).contains(tok)) {
          if (label == 1) inPos += 1 else inNeg += 1
        }
      }
      assert(inPos > 10, s"${spec.name}: bias token '$tok' too rare")
      assert(inNeg === 0, s"${spec.name}: bias token '$tok' appears in negatives")
    }
  }

  test("each positive template family is reachable (coverage diversity)") {
    val spec = Datasets.directions
    val firstWords = (0L until 30000L).flatMap { id =>
      val (text, label) = spec.sentence(id)
      if (label == 1) Some(text.split(' ').take(3).mkString(" ")) else None
    }.distinct
    assert(firstWords.size >= 5, s"only template starts: $firstWords")
  }

  test("Spark generation equals driver generation") {
    import spark.implicits._
    val df = CorpusGen.corpus(spark, Datasets.tweets, Some(300L))
    val got = df.collect().sortBy(_.id)
    for (r <- got) {
      val (text, label) = Datasets.tweets.sentence(r.id)
      assert(r.text === text && r.label === label)
    }
    assert(got.length === 300)
  }

  /** ``DatasetSpec.sentence`` as it was before templates were pre-split:
    * the same draws, with each template rendered by a regex ``replaceAllIn``.
    */
  private def regexSentence(spec: DatasetSpec, id: Long): (String, Int) = {
    val slotRe = "\\{([a-z]+)\\d?\\}".r
    def render(t: Tmpl, rng: SplitMix): String =
      slotRe.replaceAllIn(t.text, m => {
        val list = Tmpl.lists(m.group(1))
        list(rng.nextInt(list.length))
      })
    def cum(ts: Vector[Tmpl]): Vector[Double] = {
      val total = ts.map(_.weight).sum
      ts.map(_.weight / total).scanLeft(0.0)(_ + _).tail
    }
    val rng   = new SplitMix(spec.name.hashCode.toLong * 0x100000001B3L + id)
    val isPos = rng.nextDouble() < spec.posRate
    val ts    = if (isPos) spec.pos else spec.neg
    val u     = rng.nextDouble()
    val k     = cum(ts).indexWhere(u <= _) match { case -1 => ts.length - 1; case i => i }
    (render(ts(k), rng), if (isPos) 1 else 0)
  }

  test("pre-split rendering equals the regex renderer; rows equals corpus") {
    for (spec <- Datasets.all; id <- 0L until 5000L)
      assert(spec.sentence(id) === regexSentence(spec, id), s"${spec.name} $id")
    for (spec <- Datasets.all) {
      val n = math.min(spec.n, 3000L)
      def triples(rows: Array[CorpusRow]) = rows.map(r => (r.id, r.text, r.label)).sortBy(_._1).toSeq
      val viaRdd = triples(CorpusGen.rows(spark, spec, n).collect())
      assert(viaRdd.length === n)
      assert(viaRdd === triples(CorpusGen.corpus(spark, spec, Some(n)).collect()), spec.name)
    }
  }

  test("label stats aggregation matches DuckDB oracle") {
    val df = CorpusGen.corpus(spark, Datasets.musicians, Some(500L)).toDF()
    val agg = df.groupBy(col("label"))
      .agg(count(lit(1)).cast("string") as "cnt")
      .select(col("label").cast("string") as "label", col("cnt"))
    Oracle.assertEquivalent(
      agg,
      "SELECT label, CAST(COUNT(*) AS VARCHAR) AS cnt FROM corpus GROUP BY label",
      "corpus" -> df)
  }

  test("SplitMix nextInt respects bounds and nextDouble in [0,1)") {
    val rng = new SplitMix(7)
    for (_ <- 0 until 1000) {
      val i = rng.nextInt(13)
      assert(i >= 0 && i < 13)
      val d = rng.nextDouble()
      assert(d >= 0.0 && d < 1.0)
    }
  }

  test("weighted template choice respects weights roughly") {
    val spec = Datasets.directions
    // template 1 has weight 3 of 12 among positives
    val posTexts = (0L until 60000L).flatMap { id =>
      val (text, label) = spec.sentence(id)
      if (label == 1) Some(text) else None
    }
    val bestWay = posTexts.count(_.startsWith("what is the best way"))
    val frac = bestWay.toDouble / posTexts.size
    assert(frac > 0.15 && frac < 0.35, s"template-1 share=$frac")
  }

  test("byName lookup works and rejects unknowns") {
    assert(Datasets.byName("tweets").n === 2130L)
    intercept[IllegalArgumentException](Datasets.byName("nope"))
  }
}
