package repro.index

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestCorpora}
import repro.data.{CorpusGen, Datasets}
import repro.grammar.{Heuristic, SketchConfig, SketchExtractor}
import repro.text.Pipeline

class HeuristicIndexSpec extends SparkSpec {

  private lazy val prep = TestCorpora.tweetsSmall(spark)
  private lazy val index = prep.index
  private val nSmall = 800L

  private lazy val parsedAll =
    (0L until nSmall).map(id => Pipeline.parse(Datasets.tweets.sentence(id)._1)).toVector

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
    val maxC = (0.2 * nSmall).toLong
    for (e <- index.entries.values) {
      assert(e.count === e.ids.length)
      assert(e.count >= minC, s"${e.pattern} below minCover")
      assert(e.count <= maxC, s"${e.pattern} above maxCoverFrac")
    }
  }

  test("inverted lists are sorted and duplicate-free") {
    for (e <- index.entries.values.take(200)) {
      assert(e.ids.toSeq === e.ids.toSeq.distinct.sorted)
    }
  }

  test("child coverage is a subset of parent coverage") {
    for ((parent, kids) <- index.childrenMap.iterator.take(300); k <- kids) {
      val ps = index.ids(parent).toSet
      assert(index.ids(k).forall(ps.contains), s"$k not subset of $parent")
    }
  }

  test("childrenMap is the inverse of parents()") {
    for (p <- index.entries.keysIterator.take(200); par <- index.parents(p)) {
      assert(index.children(par).contains(p), s"$p missing from children($par)")
    }
  }

  test("parents() is the grammar's parents that are indexed, in grammar order") {
    for (p <- index.entries.keys)
      assert(index.parents(p) ===
        Heuristic.parse(p).parents.map(_.repr).filter(index.contains).toVector, p)
  }

  test("root children have no indexed parent") {
    for (p <- index.rootChildren.take(200))
      assert(index.parents(p).isEmpty, s"$p has parents but is a root child")
  }

  test("virtual root lists all parentless patterns") {
    val expected = index.entries.keysIterator
      .filter(p => Heuristic.parse(p).parents.map(_.repr).forall(!index.contains(_)))
      .toVector.sorted
    assert(index.children(HeuristicIndex.Root) === expected)
  }

  test("posCount computes |C_r ∩ P| correctly") {
    val p  = index.entries.keysIterator.maxBy(index.count)
    val bs = new java.util.BitSet(prep.n)
    index.ids(p).take(5).foreach(bs.set)
    assert(index.posCount(p, bs) === math.min(5, index.count(p)))
    assert(index.posCount(p, new java.util.BitSet(prep.n)) === 0)
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
      SketchExtractor.patterns(p, SketchConfig(includeTree = false)).map(g => (g, r.id))
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
      "G:a"   -> IndexEntry("G:a", 3, Array(0, 1, 2)),
      "G:a b" -> IndexEntry("G:a b", 2, Array(0, 1)),
      "G:b"   -> IndexEntry("G:b", 2, Array(0, 1)),
    )
    val idx = HeuristicIndex.fromEntries(3, entries)
    assert(idx.rootChildren.toSet === Set("G:a", "G:b"))
    assert(idx.children("G:a") === Vector("G:a b"))
    assert(idx.children("G:b") === Vector("G:a b"))
    assert(idx.parents("G:a b").toSet === Set("G:a", "G:b"))
  }

  test("index build respects a custom maxCoverFrac") {
    val corpus = CorpusGen.corpus(spark, Datasets.tweets, Some(400L))
    val idx = HeuristicIndex.build(spark, corpus, minCover = Some(3), maxCoverFrac = 0.05)
    assert(idx.entries.values.forall(_.count <= 20))
    assert(idx.entries.nonEmpty)
  }

  test("tree patterns appear in the index") {
    assert(index.entries.keysIterator.exists(_.startsWith("T:C(")))
    assert(index.entries.keysIterator.exists(_.startsWith("T:A(")))
  }
}
