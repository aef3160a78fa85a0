package repro.index

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.data.CorpusRow
import repro.grammar.{Heuristic, SketchExtractor}
import repro.text.{Parsed, Pipeline}
import scala.collection.mutable
import scala.reflect.ClassTag

/** One indexed heuristic and its inverted list (sorted sentence ids); its
  * corpus coverage count is the list's length. The inverted list is exact
  * — extraction is complete for the indexed family (see
  * [[SketchExtractor]]).
  */
final case class IndexEntry(pattern: String, ids: Array[Int]) {
  def count: Int = ids.length
}

/** One corpus partition's share of the index build, factored by sentence
  * class: the partition's rows with the same text form one class, parsed
  * and sketched once. Class ``c``'s distinct patterns are
  * ``patterns(slots(k))`` for ``k`` in ``[classStart(c), classStart(c+1))``,
  * and ``values(c)`` is the caller's value for its text. Row ``r``, in
  * arrival order, is sentence ``ids(r)`` of class ``classes(r)``, labelled
  * ``labels(r)``.
  */
private[repro] final case class IndexPart[A](
    patterns: Array[String],
    classStart: Array[Int],
    slots: Array[Int],
    values: Array[A],
    ids: Array[Int],
    classes: Array[Int],
    labels: Array[Int],
) {
  def rows: Int  = ids.length
  def texts: Int = values.length
}

/** What an index build parsed, emitted, kept and pruned: ``textsParsed``
  * is the number of distinct texts summed over the partitions (each is
  * parsed once), ``patternsKept + prunedLow + prunedHigh ==
  * patternsEmitted``, and ``postingsKept`` is the sum of the kept counts.
  * An index assembled by [[HeuristicIndex.fromEntries]] parsed nothing and
  * saw no emitted patterns, so those counts are zero.
  */
final case class IndexStats(
    rows: Int,
    textsParsed: Int,
    patternsEmitted: Int,
    postingsEmitted: Long,
    patternsKept: Int,
    prunedLow: Int,
    prunedHigh: Int,
    postingsKept: Long,
    longestList: Int,
) {
  def summary: String =
    s"rows=$rows parsed=$textsParsed emitted=$patternsEmitted patterns/$postingsEmitted postings " +
    s"kept=$patternsKept prunedLow=$prunedLow prunedHigh=$prunedHigh " +
    s"keptPostings=$postingsKept longestList=$longestList"
}

/** The corpus index of paper §3.1: a compact representation of every
  * heuristic satisfied by at least [[HeuristicIndex.defaultMinCover]]
  * (and at most [[HeuristicIndex.MaxCoverFrac]]·n) sentences, with
  * counts, inverted lists, and
  * parent/child navigation following the grammar's derivation rules.
  *
  * The kept patterns are numbered once: a pattern's number is its
  * position in ``patterns``, which is sorted by ``repr``, so comparing two
  * numbers compares the two rules lexicographically. Postings, parents and
  * children are stored by number; ``roots`` are the patterns with no
  * indexed parent (the children of the virtual root '*', Alg. 2 line 1).
  * The ``String`` accessors look the number up with [[id]].
  *
  * Built by [[HeuristicIndex.build]] the way the paper describes: "index
  * structures for different parts of the corpus are created independently
  * and then merged". Each Spark partition parses and sketches each of its
  * distinct texts once and ships its sentence classes (each distinct
  * text's patterns, and which class each row is); the driver merges the
  * partitions' pattern counts once and expands only the kept patterns into
  * inverted lists.
  */
final class HeuristicIndex private (
    val n: Int,
    val patterns: Array[String],
    lists: Array[Array[Int]],
    parentLists: Array[Array[Int]],
    childLists: Array[Array[Int]],
    val roots: Array[Int],
    val stats: IndexStats,
) extends Serializable {

  /** The number of indexed patterns. */
  def size: Int = patterns.length

  /** The number of pattern ``p``, or −1 if it is not indexed. */
  def id(p: String): Int = HeuristicIndex.search(patterns, p)

  /** Pattern ``g``'s inverted list (sorted sentence ids). */
  def postings(g: Int): Array[Int] = lists(g)

  /** Pattern ``g``'s indexed parents, in grammar order. */
  def parentsOf(g: Int): Array[Int] = parentLists(g)

  /** Pattern ``g``'s indexed children, in ascending number. */
  def childrenOf(g: Int): Array[Int] = childLists(g)

  /** |C_g ∩ P| for a driver-side positive set. */
  def posCount(g: Int, pos: java.util.BitSet): Int = HeuristicIndex.overlap(lists(g), pos)

  def contains(p: String): Boolean = id(p) >= 0
  def count(p: String): Int        = ids(p).length
  def ids(p: String): Array[Int]   = { val g = id(p); if (g < 0) Array.emptyIntArray else lists(g) }

  /** Children of ``p`` in the index, in sorted order (empty for a pattern
    * that is not indexed).
    */
  def children(p: String): Vector[String] = named(p, childLists)

  /** Parents of ``p`` present in the index, in grammar order (empty for a
    * pattern that is not indexed).
    */
  def parents(p: String): Vector[String] = named(p, parentLists)

  private def named(p: String, edges: Array[Array[Int]]): Vector[String] = {
    val g = id(p)
    if (g < 0) Vector.empty else edges(g).iterator.map(patterns(_)).toVector
  }

  /** Every pattern and its inverted list, built on each call. */
  def entries: Map[String, IndexEntry] =
    patterns.indices.iterator.map(g => patterns(g) -> IndexEntry(patterns(g), lists(g))).toMap

  /** ∪ C_p over ``patterns``, as a set of sentence ids (a pattern that is
    * not indexed covers nothing).
    */
  def cover(patterns: Iterable[String]): java.util.BitSet = {
    val bits = new java.util.BitSet(n)
    patterns.foreach(p => ids(p).foreach(bits.set))
    bits
  }
}

object HeuristicIndex {

  /** Default minimum coverage: the paper assumes heuristics cover
    * Ω(log n) sentences (§3.8).
    */
  def defaultMinCover(n: Long): Int =
    math.max(2, math.ceil(math.log(n.toDouble.max(2))).toInt)

  /** Heuristics covering more than this fraction of the corpus are pruned
    * from the index: they can never reach precision 0.8 on an imbalanced
    * task and (paper §4.3) the oracle rejects them.
    */
  val MaxCoverFrac = 0.2

  /** |ids ∩ bits|. */
  def overlap(ids: Array[Int], bits: java.util.BitSet): Int = {
    var c = 0; var i = 0
    while (i < ids.length) { if (bits.get(ids(i))) c += 1; i += 1 }
    c
  }

  /** |a ∩ b| of two sets of sentence ids. */
  def overlap(a: java.util.BitSet, b: java.util.BitSet): Int = {
    val both = a.clone().asInstanceOf[java.util.BitSet]
    both.and(b)
    both.cardinality()
  }

  /** Jaccard similarity |a ∩ b| / |a ∪ b| of two sorted id lists (0 for
    * two empty lists).
    */
  def jaccard(a: Array[Int], b: Array[Int]): Double = {
    var i = 0; var j = 0; var inter = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { inter += 1; i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    val union = a.length + b.length - inter
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** Distributed index build over a generated corpus: one
    * [[HeuristicIndex.scan]] of the corpus, then one [[HeuristicIndex.merge]].
    */
  def build(spark: SparkSession, corpus: Dataset[CorpusRow]): HeuristicIndex =
    merge(scan(corpus.rdd)(_ => ()))

  /** Parses each distinct text of each partition of ``corpus`` once, in
    * one Spark job, and returns one [[IndexPart]] per partition: its
    * sentence classes with their patterns and their ``perText`` value (the
    * caller's side output), and each row's id, class and label.
    *
    * The corpora repeat sentences heavily (professions: about 1,000
    * distinct texts in 30K rows), so a partition keeps a ``HashMap`` from
    * text to class and does the per-sentence work only for a text it has
    * not seen.
    * A new text is parsed, its [[SketchExtractor.keys]] are mapped to
    * partition-local slots through one [[SketchExtractor.Dictionary]] and a
    * ``LongMap`` from packed key to slot, and the class keeps each slot
    * once. A row costs one map lookup and three ints. At the partition's
    * end each slot's key is decoded to its ``repr`` once. With no repeated
    * text every row is its own class, and the part carries about as many
    * ints as one posting per pattern and row.
    *
    * [[repro.core.PreparedCorpus.prepare]] scans [[repro.data.CorpusGen.rows]],
    * a plain RDD, so phase one never touches Spark SQL; [[build]] scans a
    * Dataset's ``.rdd``.
    *
    * The parts come back through an RDD ``collect``, not a shuffle: an RDD
    * shuffle of (String, Array[Int]) would make Spark pick Kryo, which
    * fails on JVMs started without ``--add-opens``.
    */
  private[repro] def scan[A: ClassTag](corpus: RDD[CorpusRow])(
      perText: Parsed => A): Array[IndexPart[A]] =
    corpus.mapPartitions { rows =>
      val dict     = new SketchExtractor.Dictionary
      val classOf  = mutable.HashMap.empty[String, Int]
      val slotOf   = mutable.LongMap.empty[Int]
      val keys     = new mutable.ArrayBuilder.ofLong
      var lastUser = new Array[Int](64) // per slot: 1 + the last class that emitted it
      val start    = new mutable.ArrayBuilder.ofInt
      val slots    = new mutable.ArrayBuilder.ofInt
      val values   = mutable.ArrayBuilder.make[A]
      val ids, classes, labels = new mutable.ArrayBuilder.ofInt
      start.addOne(0)
      rows.foreach { row =>
        val cls = classOf.getOrElseUpdate(row.text, {
          val c      = values.length
          val parsed = Pipeline.parse(row.text)
          SketchExtractor.keys(parsed, dict) { key =>
            var slot = slotOf.getOrElse(key, -1)
            if (slot < 0) {
              slot = keys.length
              slotOf.update(key, slot); keys.addOne(key)
              if (slot == lastUser.length) lastUser = java.util.Arrays.copyOf(lastUser, 2 * slot)
            }
            if (lastUser(slot) != c + 1) { lastUser(slot) = c + 1; slots.addOne(slot) }
          }
          start.addOne(slots.length)
          values.addOne(perText(parsed))
          c
        })
        ids.addOne(row.id.toInt); classes.addOne(cls); labels.addOne(row.label)
      }
      Iterator.single(IndexPart(keys.result().map(SketchExtractor.decode(_, dict)),
                                start.result(), slots.result(), values.result(),
                                ids.result(), classes.result(), labels.result()))
    }.collect()

  /** Merges the parts of a [[HeuristicIndex.scan]] once, on the driver.
    * Each part's slots are mapped to global pattern ids, and a pattern's
    * count is the sum of the sizes of the classes that emitted it. The
    * patterns whose coverage lies in ``[defaultMinCover(n), MaxCoverFrac·n]``
    * are kept; each kept list is allocated at its exact size and filled by
    * walking the rows in part order, so a pruned pattern never gets a
    * list. A list is sorted only if it is not already ascending, as it is
    * whenever each partition holds an ascending id range. ``n`` is the
    * parts' total row count.
    */
  private[repro] def merge(parts: Iterable[IndexPart[_]]): HeuristicIndex = {
    val total = parts.iterator.map(_.rows.toLong).sum
    val minC  = defaultMinCover(total)
    val maxC  = math.max(minC.toLong, (MaxCoverFrac * total).toLong)

    val gidOf    = mutable.HashMap.empty[String, Int]
    val patterns = mutable.ArrayBuffer.empty[String]
    val globals  = parts.map { part =>
      part.patterns.map(p => gidOf.getOrElseUpdate(p, { patterns += p; patterns.length - 1 }))
    }
    val counts = new Array[Int](patterns.length)
    for ((part, gid) <- parts.zip(globals)) {
      val size = new Array[Int](part.texts)
      part.classes.foreach(c => size(c) += 1)
      for (c <- 0 until part.texts; k <- part.classStart(c) until part.classStart(c + 1))
        counts(gid(part.slots(k))) += size(c)
    }

    var postings = 0L; var keptPostings = 0L; var longest = 0; var low = 0; var high = 0
    val lists = new Array[Array[Int]](patterns.length)
    for (g <- patterns.indices) {
      val count = counts(g)
      postings += count
      if (count < minC) low += 1
      else if (count > maxC) high += 1
      else {
        lists(g) = new Array[Int](count)
        keptPostings += count
        longest = math.max(longest, count)
      }
    }

    val filled = new Array[Int](patterns.length)
    for ((part, gid) <- parts.zip(globals)) {
      // each class's kept patterns, as global ids
      val keptStart = new Array[Int](part.texts + 1)
      val kept      = new mutable.ArrayBuilder.ofInt
      for (c <- 0 until part.texts) {
        for (k <- part.classStart(c) until part.classStart(c + 1)) {
          val g = gid(part.slots(k))
          if (lists(g) != null) kept.addOne(g)
        }
        keptStart(c + 1) = kept.length
      }
      val keptIds = kept.result()
      var r = 0
      while (r < part.rows) {
        val id = part.ids(r); val c = part.classes(r)
        var k = keptStart(c)
        while (k < keptStart(c + 1)) {
          val g = keptIds(k)
          lists(g)(filled(g)) = id
          filled(g) += 1
          k += 1
        }
        r += 1
      }
    }

    val kept = patterns.indices.filter(lists(_) != null).sortBy(patterns).toArray
    for (g <- kept if !ascending(lists(g))) java.util.Arrays.sort(lists(g))
    assemble(total.toInt, kept.map(patterns), kept.map(lists),
             IndexStats(total.toInt, parts.iterator.map(_.texts).sum, patterns.length, postings,
                        kept.length, low, high, keptPostings, longest))
  }

  private def ascending(ids: Array[Int]): Boolean = {
    var i = 1
    while (i < ids.length && ids(i - 1) <= ids(i)) i += 1
    i >= ids.length
  }

  /** Assemble an index from given entries (used by tests to build small
    * indexes directly). The stats count only what is kept.
    */
  def fromEntries(n: Int, entries: Map[String, IndexEntry]): HeuristicIndex = {
    val patterns = entries.keys.toArray.sorted
    val lists    = patterns.map(entries(_).ids)
    assemble(n, patterns, lists, IndexStats(n, 0, 0, 0L, lists.length, 0, 0,
                                            lists.map(_.length.toLong).sum,
                                            lists.map(_.length).maxOption.getOrElse(0)))
  }

  /** Numbers the navigation: ``patterns`` is sorted and ``lists(g)`` is
    * pattern ``g``'s inverted list. A pattern's parents are its grammar
    * parents that are indexed, in grammar order; filling the children in
    * ascending number keeps each child list sorted.
    */
  private def assemble(n: Int, patterns: Array[String], lists: Array[Array[Int]],
                       stats: IndexStats): HeuristicIndex = {
    val parents = patterns.map(p =>
      Heuristic.parse(p).parents.iterator.map(q => search(patterns, q.repr)).filter(_ >= 0).toArray)
    val children = Array.fill(patterns.length)(new mutable.ArrayBuilder.ofInt)
    for (g <- patterns.indices; q <- parents(g)) children(q).addOne(g)
    new HeuristicIndex(n, patterns, lists, parents, children.map(_.result()),
                       patterns.indices.filter(parents(_).isEmpty).toArray, stats)
  }

  /** The position of ``p`` in the sorted ``patterns``, or −1. */
  private def search(patterns: Array[String], p: String): Int =
    math.max(-1, java.util.Arrays.binarySearch(patterns.asInstanceOf[Array[AnyRef]], p))
}
