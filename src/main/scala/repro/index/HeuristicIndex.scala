package repro.index

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.data.CorpusRow
import repro.grammar.{Heuristic, SketchConfig, SketchExtractor}
import repro.text.Pipeline
import scala.collection.mutable

/** One indexed heuristic: its corpus coverage count and inverted list
  * (sorted sentence ids). The inverted list is exact — extraction is
  * complete for the indexed family (see [[SketchExtractor]]).
  */
final case class IndexEntry(pattern: String, count: Int, ids: Array[Int])

/** The corpus index of paper §3.1: a compact representation of every
  * heuristic satisfied by at least ``minCover`` (and at most
  * ``maxCoverFrac·n``) sentences, with counts, inverted lists, and
  * parent/child navigation following the grammar's derivation rules.
  *
  * Built distributively by [[HeuristicIndex.build]]: per-sentence
  * derivation sketches are exploded and merged with a Spark
  * ``groupBy(pattern)`` aggregation — the paper's "index structures for
  * different parts of the corpus are created independently and then
  * merged", with Spark's partial aggregation playing the merge.
  */
final class HeuristicIndex(
    val n: Int,
    val entries: Map[String, IndexEntry],
    val childrenMap: Map[String, Vector[String]],
    parentsMap: Map[String, Vector[String]],
    val rootChildren: Vector[String],
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

  /** Distributed index build over a generated corpus.
    *
    * @param maxCoverFrac heuristics covering more than this fraction of the
    *   corpus are pruned from the index — they can never reach precision
    *   0.8 on an imbalanced task and (paper §4.3) the oracle rejects them.
    */
  def build(spark: SparkSession, corpus: Dataset[CorpusRow],
            cfg: SketchConfig = SketchConfig(),
            minCover: Option[Int] = None,
            maxCoverFrac: Double = 0.2): HeuristicIndex = {
    import spark.implicits._
    import org.apache.spark.sql.functions._

    val total = corpus.count()
    val minC  = minCover.getOrElse(defaultMinCover(total))
    val maxC  = math.max(minC.toLong, (maxCoverFrac * total).toLong)

    val exploded = corpus
      .flatMap(row => SketchExtractor.patterns(Pipeline.parse(row.text), cfg)
        .map(p => (p, row.id.toInt)))
      .toDF("pattern", "sid")
      .persist(StorageLevel.MEMORY_AND_DISK)

    try {
      val kept = exploded.groupBy($"pattern").agg(count(lit(1)) as "cnt")
        .filter($"cnt" >= minC && $"cnt" <= maxC)
        .select($"pattern")

      // Pack inverted lists to binary on the executors: collecting
      // Seq[Int] would box hundreds of millions of Integers on the driver
      // at the 1M-sentence scale.
      val pack = udf { (sids: Seq[Int]) =>
        val bb = java.nio.ByteBuffer.allocate(4 * sids.length)
        sids.foreach(bb.putInt)
        bb.array()
      }
      val rows = exploded
        .join(broadcast(kept), "pattern")
        .groupBy($"pattern")
        .agg(collect_list($"sid") as "sids")
        .select($"pattern", pack($"sids") as "packed")
        .as[(String, Array[Byte])]
        .collect()

      val entries = rows.iterator.map { case (p, packed) =>
        val bb  = java.nio.ByteBuffer.wrap(packed)
        val arr = new Array[Int](packed.length / 4)
        var i = 0
        while (i < arr.length) { arr(i) = bb.getInt(); i += 1 }
        java.util.Arrays.sort(arr)
        p -> IndexEntry(p, arr.length, arr)
      }.toMap

      fromEntries(total.toInt, entries)
    } finally { exploded.unpersist(); () }
  }

  /** Assemble navigation maps from collected entries (also used by tests
    * to build small indexes directly).
    */
  def fromEntries(n: Int, entries: Map[String, IndexEntry]): HeuristicIndex = {
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
    )
  }
}
