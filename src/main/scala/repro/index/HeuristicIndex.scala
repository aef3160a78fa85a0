package repro.index

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.data.CorpusRow
import repro.grammar.{Heuristic, SketchConfig, SketchExtractor}
import repro.text.{Parsed, Pipeline}
import scala.collection.mutable
import scala.reflect.ClassTag

/** One indexed heuristic: its corpus coverage count and inverted list
  * (sorted sentence ids). The inverted list is exact — extraction is
  * complete for the indexed family (see [[SketchExtractor]]).
  */
final case class IndexEntry(pattern: String, count: Int, ids: Array[Int])

/** One corpus partition's share of the index build: each pattern its
  * sentences emitted with their ids (in arrival order, so not necessarily
  * sorted), and one caller-chosen value per row.
  */
private[repro] final case class IndexPart[A](patterns: Array[String],
                                              postings: Array[Array[Int]], perRow: Array[A]) {
  def rows: Int = perRow.length
}

/** What an index build emitted, kept and pruned: ``patternsKept +
  * prunedLow + prunedHigh == patternsEmitted``, and ``postingsKept`` is the
  * sum of the kept counts. An index assembled by
  * [[HeuristicIndex.fromEntries]] saw no emitted patterns, so its emitted
  * and pruned counts are zero.
  */
final case class IndexStats(
    rows: Int,
    patternsEmitted: Int,
    postingsEmitted: Long,
    patternsKept: Int,
    prunedLow: Int,
    prunedHigh: Int,
    postingsKept: Long,
    longestList: Int,
) {
  def summary: String =
    s"rows=$rows emitted=$patternsEmitted patterns/$postingsEmitted postings " +
    s"kept=$patternsKept prunedLow=$prunedLow prunedHigh=$prunedHigh " +
    s"keptPostings=$postingsKept longestList=$longestList"
}

/** The corpus index of paper §3.1: a compact representation of every
  * heuristic satisfied by at least ``minCover`` (and at most
  * ``maxCoverFrac·n``) sentences, with counts, inverted lists, and
  * parent/child navigation following the grammar's derivation rules.
  *
  * Built by [[HeuristicIndex.build]] the way the paper describes: "index
  * structures for different parts of the corpus are created independently
  * and then merged". Each Spark partition builds its own pattern → ids
  * posting map from its sentences' derivation sketches, and the driver
  * merges the partition maps once.
  */
final class HeuristicIndex(
    val n: Int,
    val entries: Map[String, IndexEntry],
    val childrenMap: Map[String, Vector[String]],
    parentsMap: Map[String, Vector[String]],
    val rootChildren: Vector[String],
    val stats: IndexStats,
) extends Serializable {

  def contains(p: String): Boolean = entries.contains(p)
  def count(p: String): Int        = entries.get(p).map(_.count).getOrElse(0)
  def ids(p: String): Array[Int]   = entries.get(p).map(_.ids).getOrElse(Array.empty)

  /** Children of ``p`` in the index ('*' is the virtual root). */
  def children(p: String): Vector[String] =
    if (p == HeuristicIndex.Root) rootChildren
    else childrenMap.getOrElse(p, Vector.empty)

  /** Parents of ``p`` present in the index (empty for a pattern that is
    * not indexed).
    */
  def parents(p: String): Vector[String] = parentsMap.getOrElse(p, Vector.empty)

  /** |C_p ∩ P| for a driver-side positive set. */
  def posCount(p: String, pos: java.util.BitSet): Int = {
    val a = ids(p); var c = 0; var i = 0
    while (i < a.length) { if (pos.get(a(i))) c += 1; i += 1 }
    c
  }
}

object HeuristicIndex {

  /** Virtual root heuristic '*' matching every sentence (Alg. 2 line 1). */
  val Root = "*"

  /** Default minimum coverage: the paper assumes heuristics cover
    * Ω(log n) sentences (§3.8).
    */
  def defaultMinCover(n: Long): Int =
    math.max(2, math.ceil(math.log(n.toDouble.max(2))).toInt)

  /** Distributed index build over a generated corpus: one
    * [[HeuristicIndex.scan]] of the corpus, then one [[HeuristicIndex.merge]].
    *
    * @param maxCoverFrac heuristics covering more than this fraction of the
    *   corpus are pruned from the index — they can never reach precision
    *   0.8 on an imbalanced task and (paper §4.3) the oracle rejects them.
    */
  def build(spark: SparkSession, corpus: Dataset[CorpusRow],
            cfg: SketchConfig = SketchConfig(),
            minCover: Option[Int] = None,
            maxCoverFrac: Double = 0.2): HeuristicIndex =
    merge(scan(corpus.rdd, cfg)((_, _) => ()), minCover, maxCoverFrac)

  /** Parses every sentence of ``corpus`` once, in one Spark job, and
    * returns one [[IndexPart]] per partition: its posting lists, and
    * ``perRow`` of each row and its parse (the caller's side output).
    *
    * The scan builds no pattern strings per sentence. Each partition keeps
    * one [[SketchExtractor.Dictionary]] and a ``LongMap`` from packed
    * sketch key ([[SketchExtractor.keys]]) to a growable int posting; a
    * sentence that emits a key twice is added once, because its id is
    * already the posting's last. At the partition's end each distinct key
    * is decoded to its ``repr`` once.
    *
    * [[repro.core.PreparedCorpus.prepare]] scans [[repro.data.CorpusGen.rows]],
    * a plain RDD, so phase one never touches Spark SQL; [[build]] scans a
    * Dataset's ``.rdd``.
    *
    * The parts come back through an RDD ``collect``, not a shuffle: an RDD
    * shuffle of (String, Array[Int]) would make Spark pick Kryo, which
    * fails on JVMs started without ``--add-opens``.
    */
  private[repro] def scan[A: ClassTag](corpus: RDD[CorpusRow], cfg: SketchConfig)(
      perRow: (CorpusRow, Parsed) => A): Array[IndexPart[A]] =
    corpus.mapPartitions { rows =>
      val dict  = new SketchExtractor.Dictionary
      val lists = mutable.LongMap.empty[Posting]
      val side  = mutable.ArrayBuilder.make[A]
      rows.foreach { row =>
        val parsed = Pipeline.parse(row.text)
        val sid    = row.id.toInt
        SketchExtractor.keys(parsed, cfg, dict) { key =>
          var ids = lists.getOrNull(key)
          if (ids == null) { ids = new Posting; lists.update(key, ids) }
          ids.add(sid)
        }
        side.addOne(perRow(row, parsed))
      }
      val keyed = lists.toArray
      Iterator.single(IndexPart(keyed.map(e => SketchExtractor.decode(e._1, dict)),
                                keyed.map(_._2.result()), side.result()))
    }.collect()

  /** One pattern's sentence ids in one partition, in arrival order; adding
    * the id it ended with is a no-op. ``result()`` hands the ids over and
    * drops the growable buffer, so a partition never holds every buffer
    * and every trimmed copy at once.
    */
  private final class Posting {
    private var ids  = new Array[Int](4)
    private var size = 0
    def add(sid: Int): Unit =
      if (size == 0 || ids(size - 1) != sid) {
        if (size == ids.length) ids = java.util.Arrays.copyOf(ids, size * 2)
        ids(size) = sid
        size += 1
      }
    def result(): Array[Int] = {
      val out = if (size == ids.length) ids else java.util.Arrays.copyOf(ids, size)
      ids = null
      out
    }
  }

  /** Merges the parts of a [[HeuristicIndex.scan]] once, on the driver:
    * sums each pattern's count over the parts, keeps the patterns whose
    * coverage lies in ``[minCover, maxCoverFrac·n]``, and concatenates
    * their lists in part order. A concatenation is sorted only if it is
    * not already ascending, as it is whenever each partition holds an
    * ascending id range. ``n`` is the parts' total row count.
    */
  private[repro] def merge(parts: Iterable[IndexPart[_]], minCover: Option[Int],
                           maxCoverFrac: Double): HeuristicIndex = {
    val total = parts.iterator.map(_.rows.toLong).sum
    val minC  = minCover.getOrElse(defaultMinCover(total))
    val maxC  = math.max(minC.toLong, (maxCoverFrac * total).toLong)

    val chunks = mutable.HashMap.empty[String, mutable.ArrayBuffer[Array[Int]]]
    for (part <- parts; k <- part.patterns.indices)
      chunks.getOrElseUpdate(part.patterns(k), mutable.ArrayBuffer.empty) += part.postings(k)

    var postings = 0L; var keptPostings = 0L; var longest = 0; var low = 0; var high = 0
    val entries = Map.newBuilder[String, IndexEntry]
    for ((p, lists) <- chunks) {
      val count = lists.iterator.map(_.length).sum
      postings += count
      if (count < minC) low += 1
      else if (count > maxC) high += 1
      else {
        val ids = Array.concat(lists.toSeq: _*)
        if (!ascending(ids)) java.util.Arrays.sort(ids)
        entries += p -> IndexEntry(p, count, ids)
        keptPostings += count
        longest = math.max(longest, count)
      }
    }
    val kept = entries.result()
    assemble(total.toInt, kept, IndexStats(total.toInt, chunks.size, postings, kept.size,
                                           low, high, keptPostings, longest))
  }

  private def ascending(ids: Array[Int]): Boolean = {
    var i = 1
    while (i < ids.length && ids(i - 1) <= ids(i)) i += 1
    i >= ids.length
  }

  /** Assemble navigation maps from given entries (used by tests to build
    * small indexes directly). The stats count only what is kept.
    */
  def fromEntries(n: Int, entries: Map[String, IndexEntry]): HeuristicIndex = {
    val counts = entries.valuesIterator.map(_.count).toArray
    assemble(n, entries, IndexStats(n, 0, 0L, counts.length, 0, 0,
                                    counts.map(_.toLong).sum, counts.maxOption.getOrElse(0)))
  }

  private def assemble(n: Int, entries: Map[String, IndexEntry],
                       stats: IndexStats): HeuristicIndex = {
    val parents = entries.map { case (p, _) =>
      p -> Heuristic.parse(p).parents.map(_.repr).filter(entries.contains).toVector
    }
    val children = mutable.HashMap.empty[String, mutable.ArrayBuffer[String]]
    val roots    = mutable.ArrayBuffer.empty[String]
    for ((p, present) <- parents) {
      if (present.isEmpty) roots += p
      else present.foreach(q => children.getOrElseUpdate(q, mutable.ArrayBuffer.empty) += p)
    }
    new HeuristicIndex(
      n,
      entries,
      children.view.mapValues(_.sorted.toVector).toMap,
      parents,
      roots.sorted.toVector,
      stats,
    )
  }
}
