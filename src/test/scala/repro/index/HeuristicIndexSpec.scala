package repro.index

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestCorpora}
import repro.core.PreparedCorpus
import repro.data.{CorpusGen, CorpusRow, Datasets, DatasetSpec}
import repro.grammar.{Heuristic, ReferenceSketches, SketchExtractor}
import repro.text.{Embeddings, Pipeline}

class HeuristicIndexSpec extends SparkSpec {

  private lazy val prep = TestCorpora.tweetsSmall(spark)
  private lazy val index = prep.index
  private val nSmall = 800L

  private lazy val parsedAll =
    (0L until nSmall).map(id => Pipeline.parse(Datasets.tweets.sentence(id)._1)).toVector

  private def idsByPattern(idx: HeuristicIndex): Map[String, Vector[Int]] =
    idx.entries.map { case (p, e) => p -> e.ids.toVector }

  /** The entries as the index used to be built, kept here as a reference:
    * explode every sentence's sketches into (pattern, sid) rows, then one
    * Spark SQL ``groupBy`` for the counts and the ``collect_list`` of ids,
    * with the build's default bounds. The sketches are the string-built
    * [[ReferenceSketches]], so the reference shares no code with the keyed
    * scan.
    */
  private def referenceEntries(spec: DatasetSpec, n: Long): Map[String, Vector[Int]] = {
    import spark.implicits._
    val minC = HeuristicIndex.defaultMinCover(n)
    val maxC = math.max(minC.toLong, (HeuristicIndex.MaxCoverFrac * n).toLong)
    CorpusGen.corpus(spark, spec, Some(n))
      .map(r => (r.id.toInt, ReferenceSketches.patterns(Pipeline.parse(r.text))))
      .toDF("sid", "patterns")
      .select(explode($"patterns") as "pattern", $"sid")
      .groupBy($"pattern")
      .agg(count(lit(1)) as "cnt", collect_list($"sid") as "sids")
      .filter($"cnt" >= minC && $"cnt" <= maxC)
      .select($"pattern", $"sids")
      .as[(String, Seq[Int])]
      .collect()
      .map { case (p, sids) => p -> sids.sorted.toVector }
      .toMap
  }

  test("build matches the explode/groupBy/collect_list reference (tweets 800, professions 4000)") {
    assert(idsByPattern(index) === referenceEntries(Datasets.tweets, nSmall))
    assert(idsByPattern(TestCorpora.professionsSmall(spark).index) ===
      referenceEntries(Datasets.professions, 4000L))
  }

  test("build matches the explode/groupBy/collect_list reference (directions, musicians, cause-effect)") {
    assert(idsByPattern(TestCorpora.directionsSmall(spark).index) ===
      referenceEntries(Datasets.directions, 2000L))
    assert(idsByPattern(TestCorpora.musiciansSmall(spark).index) ===
      referenceEntries(Datasets.musicians, 2000L))
    assert(idsByPattern(TestCorpora.causeEffectSmall(spark).index) ===
      referenceEntries(Datasets.causeEffect, 1500L))
  }

  test("the build does not depend on how the corpus is partitioned") {
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(nSmall))
    def built(c: Dataset[CorpusRow]) = HeuristicIndex.build(spark, c)
    val asGenerated = built(corpus)
    assert(idsByPattern(asGenerated) === idsByPattern(index))
    def assertSame(other: HeuristicIndex) = {
      assert(idsByPattern(other) === idsByPattern(asGenerated))
      assert(other.patterns.toSeq === asGenerated.patterns.toSeq) // the numbering
    }
    assertSame(built(corpus.repartition(1)))
    val shuffled = corpus.repartition(7)
    // the shuffle hands each partition its ids out of order, so only the
    // merge's sort keeps the lists identical
    val parts = HeuristicIndex.scan(shuffled.rdd)(_ => ())
    assert(parts.length === 7)
    assert(parts.exists(part => !part.ids.sameElements(part.ids.sorted)))
    assertSame(built(shuffled))
  }

  test("prepare over the plain RDD equals build over the Dataset, with exact features and labels") {
    for ((spec, n) <- Seq(Datasets.tweets -> nSmall, Datasets.professions -> 4000L)) {
      val prepared = TestCorpora.prepared(spark, spec, n)
      assert(idsByPattern(prepared.index) ===
        idsByPattern(HeuristicIndex.build(spark, CorpusGen.corpus(spark, spec, Some(n)))), spec.name)
      assert(prepared.n === n)
      for (id <- 0 until n.toInt) {
        val (text, label) = spec.sentence(id)
        val parsed = Pipeline.parse(text)
        val bits   = (_: Array[Float]).map(java.lang.Float.floatToRawIntBits).toSeq
        assert(bits(prepared.features(id)) === bits(Embeddings.features(parsed.tokens, parsed.pos)),
               s"${spec.name} $id")
        assert(prepared.gt.get(id) === (label == 1), s"${spec.name} $id")
      }
    }
  }

  /** 25 rows of 10 texts in three partitions: texts repeated within and
    * across partitions (texts 0–4 occur 6, 5, 3, 4 and 2 times), one text
    * under both labels, ids out of order and not contiguous within a
    * partition (all of ``0 until n`` overall), and a last partition with
    * no repeated text. The default bounds at n = 25 are ``[4, 5]``, so
    * the build keeps some patterns and prunes others as too rare and as
    * too common.
    */
  private def handmadeRows(): Vector[Vector[CorpusRow]] = {
    val t = Iterator.from(0).map(i => Datasets.tweets.sentence(i.toLong)._1)
      .distinct.take(10).toVector
    def r(id: Int, text: Int, label: Int) = CorpusRow(id.toLong, t(text), label)
    Vector(
      Vector(r(5, 0, 0), r(22, 1, 0), r(14, 0, 0), r(6, 2, 1), r(23, 1, 0), r(15, 0, 0),
             r(7, 3, 0), r(24, 0, 0), r(16, 1, 0), r(8, 0, 0)),
      Vector(r(0, 1, 0), r(17, 3, 0), r(9, 3, 1), r(1, 0, 0), r(18, 1, 0), r(10, 2, 1),
             r(2, 3, 0), r(19, 4, 0)),
      Vector(r(11, 4, 0), r(3, 2, 1), r(20, 5, 0), r(12, 6, 0), r(4, 7, 0), r(21, 8, 0),
             r(13, 9, 1)),
    )
  }

  test("factored scan: entries, labels, features and stats equal a brute-force reference") {
    val parts  = handmadeRows()
    val rows   = parts.flatten
    val n      = rows.length
    val rdd    = spark.sparkContext.parallelize(parts, parts.length).flatMap(identity)
    val prepared = PreparedCorpus.ofRows("handmade", rdd)
    assert(prepared.n === n)
    assert(rows.map(_.id.toInt).sorted === (0 until n))

    val lists = rows
      .flatMap(row => ReferenceSketches.patterns(Pipeline.parse(row.text)).map(_ -> row.id.toInt))
      .groupMap(_._1)(_._2).view.mapValues(_.sorted).toMap
    val minC = HeuristicIndex.defaultMinCover(n)
    val maxC = math.max(minC.toLong, (HeuristicIndex.MaxCoverFrac * n).toLong)
    val kept = lists.filter { case (_, ids) => ids.length >= minC && ids.length <= maxC }
    assert(kept.nonEmpty && lists.exists(_._2.length < minC) && lists.exists(_._2.length > maxC))
    assert(idsByPattern(prepared.index) === kept)
    assert(prepared.index.stats === IndexStats(
      rows = n,
      textsParsed = parts.map(_.map(_.text).distinct.length).sum,
      patternsEmitted = lists.size,
      postingsEmitted = lists.valuesIterator.map(_.length.toLong).sum,
      patternsKept = kept.size,
      prunedLow = lists.count(_._2.length < minC),
      prunedHigh = lists.count(_._2.length > maxC),
      postingsKept = kept.valuesIterator.map(_.length.toLong).sum,
      longestList = kept.valuesIterator.map(_.length).max))
    assert(prepared.index.stats.textsParsed < n)

    val bits = (_: Array[Float]).map(java.lang.Float.floatToRawIntBits).toSeq
    for (row <- rows) {
      val id     = row.id.toInt
      val parsed = Pipeline.parse(row.text)
      assert(prepared.gt.get(id) === (row.label == 1), s"$id")
      assert(bits(prepared.features(id)) === bits(Embeddings.features(parsed.tokens, parsed.pos)),
             s"$id")
    }
    for (part <- parts; x <- part; y <- part if x.id != y.id) {
      val shared = prepared.features(x.id.toInt) eq prepared.features(y.id.toInt)
      assert(shared === (x.text == y.text), s"${x.id} ${y.id}")
    }
    // the text under both labels is one class with two labels
    assert(prepared.gt.get(9) && !prepared.gt.get(17))
    assert(prepared.features(9) eq prepared.features(17))
  }

  test("prepare does not depend on how the corpus is partitioned (professions 4000)") {
    val rows = CorpusGen.rows(spark, Datasets.professions, 4000L)
    val bits = (p: PreparedCorpus) =>
      p.features.toSeq.map(_.map(java.lang.Float.floatToRawIntBits).toSeq)
    val reference = TestCorpora.professionsSmall(spark)
    val distinct  = (0 until 4000).map(Datasets.professions.sentence(_)._1).distinct.size
    for ((partitions, rdd) <- Seq(1 -> rows.coalesce(1), 4 -> rows.repartition(4),
                                  13 -> rows.repartition(13))) {
      val how      = s"$partitions partitions"
      val prepared = PreparedCorpus.ofRows(Datasets.professions.name, rdd)
      assert(rdd.getNumPartitions === partitions)
      assert(idsByPattern(prepared.index) === idsByPattern(reference.index), how)
      assert(prepared.index.patterns.toSeq === reference.index.patterns.toSeq, how)
      assert(prepared.index.stats.copy(textsParsed = 0) ===
               reference.index.stats.copy(textsParsed = 0), how)
      assert(bits(prepared) === bits(reference), how)
      assert(prepared.gt === reference.gt, how)
      if (partitions == 1) assert(prepared.index.stats.textsParsed === distinct)
    }
  }

  test("index stats: kept and pruned patterns add up to the emitted ones") {
    val s        = index.stats
    val sketches = parsedAll.map(p => SketchExtractor.patterns(p))
    assert(s.rows === nSmall)
    val distinctPerPartition = CorpusGen.rows(spark, Datasets.tweets, nSmall)
      .mapPartitions(rows => Iterator.single(rows.map(_.text).toSet.size)).collect()
    assert(s.textsParsed === distinctPerPartition.sum)
    assert(s.textsParsed <= s.rows)
    assert(s.patternsEmitted === sketches.flatten.distinct.size)
    assert(s.postingsEmitted === sketches.map(_.length.toLong).sum)
    assert(s.patternsKept === index.entries.size)
    assert(s.patternsKept + s.prunedLow + s.prunedHigh === s.patternsEmitted)
    assert(s.prunedLow > 0 && s.prunedHigh > 0)
    assert(s.postingsKept === index.entries.valuesIterator.map(_.count.toLong).sum)
    assert(s.longestList === index.entries.valuesIterator.map(_.count).max)
  }

  test("index contains the seed rules of every dataset (small builds)") {
    assert(TestCorpora.tweetsSmall(spark).index.contains("G:craving"))
    assert(TestCorpora.directionsSmall(spark).index.contains("G:best way to get"))
    assert(TestCorpora.musiciansSmall(spark).index.contains("G:composer"))
    assert(TestCorpora.causeEffectSmall(spark).index.contains("G:caused"))
    assert(TestCorpora.professionsSmall(spark).index.contains("G:works as a"))
  }

  test("inverted lists are exact coverage (brute force over matches())") {
    val some = index.entries.keysIterator.take(120).toVector
    for (p <- some) {
      val h = Heuristic.parse(p)
      val expected = parsedAll.indices.filter(i => h.matches(parsedAll(i)))
      assert(index.ids(p).toSeq === expected, s"coverage mismatch for $p")
    }
  }

  test("counts equal inverted list lengths and respect prune bounds") {
    val minC = HeuristicIndex.defaultMinCover(nSmall)
    val maxC = (HeuristicIndex.MaxCoverFrac * nSmall).toLong
    for (e <- index.entries.values) {
      assert(e.count >= minC, s"${e.pattern} below minCover")
      assert(e.count <= maxC, s"${e.pattern} above MaxCoverFrac")
    }
  }

  test("inverted lists are sorted and duplicate-free") {
    for (e <- index.entries.values.take(200)) {
      assert(e.ids.toSeq === e.ids.toSeq.distinct.sorted)
    }
  }

  test("child coverage is a subset of parent coverage") {
    for (g <- 0 until index.size; c <- index.childrenOf(g)) {
      val ps = index.postings(g).toSet
      assert(index.postings(c).forall(ps.contains),
             s"${index.patterns(c)} not subset of ${index.patterns(g)}")
    }
  }

  test("pattern numbers: sorted patterns and id lookup") {
    val ps = index.patterns
    assert(ps.length === index.size && ps.length === index.entries.size)
    assert(ps.indices.drop(1).forall(g => ps(g - 1) < ps(g)), "patterns not strictly ascending")
    for (g <- ps.indices) {
      assert(index.id(ps(g)) === g)
      assert(index.postings(g) eq index.ids(ps(g)))
    }
    assert(index.id("G:zzz nope") === -1)
  }

  test("childrenMap is the inverse of parents()") {
    val ps = index.patterns
    for (g <- ps.indices) {
      val kids = index.childrenOf(g).toSeq
      assert(kids === kids.sorted, s"children of ${ps(g)} not ascending")
      assert(kids === ps.indices.filter(index.parentsOf(_).contains(g)), ps(g))
      assert(index.children(ps(g)) === kids.map(ps(_)))
      assert(index.parents(ps(g)) === index.parentsOf(g).toSeq.map(ps(_)))
    }
  }

  test("root children have no indexed parent") {
    for (g <- index.roots)
      assert(index.parentsOf(g).isEmpty, s"${index.patterns(g)} has parents but is a root")
    assert(index.roots.toSeq === index.patterns.indices.filter(index.parentsOf(_).isEmpty))
  }

  test("virtual root lists all parentless patterns") {
    val ps = index.patterns
    assert(index.roots.toSeq === ps.indices.filter(g =>
      Heuristic.parse(ps(g)).parents.forall(q => !index.contains(q.repr))))
  }

  test("parents() is the grammar's parents that are indexed, in grammar order") {
    for (p <- index.entries.keys)
      assert(index.parents(p) ===
        Heuristic.parse(p).parents.map(_.repr).filter(index.contains).toVector, p)
  }

  test("posCount computes |C_r ∩ P| correctly") {
    val p  = index.entries.keysIterator.maxBy(index.count)
    val bs = new java.util.BitSet(prep.n)
    index.ids(p).take(5).foreach(bs.set)
    assert(index.posCount(index.id(p), bs) === math.min(5, index.count(p)))
    assert(index.posCount(index.id(p), new java.util.BitSet(prep.n)) === 0)
    // the union and the Jaccard that every caller shares, against Set
    // arithmetic, on a rule and one of its children
    val r = index.entries.keysIterator.filter(index.children(_).nonEmpty).maxBy(index.count)
    val c = index.children(r).head
    val (x, y) = (index.ids(r).toSet, index.ids(c).toSet)
    assert(HeuristicIndex.jaccard(index.ids(r), index.ids(c)) ===
             (x & y).size.toDouble / (x | y).size)
    assert(HeuristicIndex.jaccard(Array.empty, Array.empty) === 0.0)
    assert(index.cover(Seq(c, "G:not indexed", r)).stream().toArray.toSet === (x | y))
  }

  test("defaultMinCover is max(2, ceil(log n))") {
    assert(HeuristicIndex.defaultMinCover(2130L) === 8)
    assert(HeuristicIndex.defaultMinCover(1000000L) === 14)
    assert(HeuristicIndex.defaultMinCover(2L) === 2)
  }

  test("missing pattern lookups are graceful") {
    assert(!index.contains("G:zzz nope"))
    assert(index.count("G:zzz nope") === 0)
    assert(index.ids("G:zzz nope").isEmpty)
    assert(index.children("G:zzz nope").isEmpty)
    assert(index.parents("G:zzz nope").isEmpty)
  }

  test("phrase n-gram counts match DuckDB oracle") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(200L))
    val grams = corpus.flatMap { r =>
      val p = Pipeline.parse(r.text)
      SketchExtractor.patterns(p).filter(_.startsWith("G:")).map(g => (g, r.id))
    }.toDF("gram", "sid")
    val agg = grams.groupBy($"gram")
      .agg(count(lit(1)).cast("string") as "cnt")
      .filter(col("cnt") >= 5)
    Oracle.assertEquivalent(
      agg,
      "SELECT gram, CAST(COUNT(*) AS VARCHAR) AS cnt FROM grams GROUP BY gram HAVING COUNT(*) >= 5",
      "grams" -> grams)
  }

  test("fromEntries on a handcrafted index builds expected adjacency") {
    val entries = Map(
      "G:a"   -> IndexEntry("G:a", Array(0, 1, 2)),
      "G:a b" -> IndexEntry("G:a b", Array(0, 1)),
      "G:b"   -> IndexEntry("G:b", Array(0, 1)),
    )
    val idx = HeuristicIndex.fromEntries(3, entries)
    assert(idx.roots.toSeq.map(idx.patterns(_)) === Seq("G:a", "G:b"))
    assert(idx.children("G:a") === Vector("G:a b"))
    assert(idx.children("G:b") === Vector("G:a b"))
    assert(idx.parents("G:a b").toSet === Set("G:a", "G:b"))
    assert(idx.stats === IndexStats(rows = 3, textsParsed = 0, patternsEmitted = 0, postingsEmitted = 0L,
      patternsKept = 3, prunedLow = 0, prunedHigh = 0, postingsKept = 7L, longestList = 3))
  }

  test("tree patterns appear in the index") {
    assert(index.entries.keysIterator.exists(_.startsWith("T:C(")))
    assert(index.entries.keysIterator.exists(_.startsWith("T:A(")))
  }
}
