package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.data.{CorpusGen, CorpusRow, DatasetSpec}
import repro.index.HeuristicIndex
import repro.text.Embeddings

/** Driver-side view of a prepared corpus: the pruned heuristic index, the
  * per-sentence embedding features, and the hidden ground truth (used only
  * by oracle simulation and evaluation). Sentences with the same text in
  * one partition of the build share one feature array; every reader only
  * reads it.
  *
  * All corpus-size-proportional work (generation, parsing, sketch
  * extraction, index aggregation, feature extraction) runs as Spark
  * dataflow in [[PreparedCorpus.prepare]]; the interactive Darwin loop then
  * operates on this compact driver-side structure — mirroring the paper's
  * split between the scalable index-construction phase and the annotator
  * loop (§3.1, §4.5).
  */
final class PreparedCorpus(
    val name: String,
    val n: Int,
    val index: HeuristicIndex,
    val features: Array[Array[Float]],
    val gt: java.util.BitSet,
) {
  val nPos: Int = gt.cardinality()

  /** Recall of a discovered positive set: |P ∩ GT| / |GT|. */
  def recall(p: java.util.BitSet): Double =
    if (nPos == 0) 0.0 else HeuristicIndex.overlap(p, gt).toDouble / nPos

  /** Fraction of P that is truly positive. */
  def precisionOf(p: java.util.BitSet): Double = {
    val c = p.cardinality()
    if (c == 0) 0.0 else HeuristicIndex.overlap(p, gt).toDouble / c
  }

  /** Ground-truth positive ids (for seed-sampling experiments). */
  lazy val positiveIds: Array[Int] = Classifier.bitsetIndices(gt)
}

object PreparedCorpus {

  /** Generate, parse, feature-extract and index a dataset in one Spark
    * pass over [[CorpusGen.rows]]: each distinct text of a partition is
    * parsed once, for both its sketches and its features.
    */
  def prepare(spark: SparkSession, spec: DatasetSpec,
              nOverride: Option[Long] = None): PreparedCorpus =
    ofRows(spec.name, CorpusGen.rows(spark, spec, nOverride.getOrElse(spec.n)))

  /** [[prepare]] over given rows, whose ids must be ``0 until rows.count``
    * in any order and partitioning. One [[HeuristicIndex.scan]] parses each
    * distinct text of a partition once and computes its features once;
    * every row of that text in that partition gets the same read-only
    * feature array.
    */
  private[repro] def ofRows(name: String, rows: RDD[CorpusRow]): PreparedCorpus = {
    val parts = HeuristicIndex.scan(rows)(p => Embeddings.features(p.tokens, p.pos))
    val index = HeuristicIndex.merge(parts)
    val n     = index.n

    val features = new Array[Array[Float]](n)
    val gt       = new java.util.BitSet(n)
    for (part <- parts) {
      var r = 0
      while (r < part.rows) {
        val id = part.ids(r)
        features(id) = part.values(part.classes(r))
        if (part.labels(r) == 1) gt.set(id)
        r += 1
      }
    }
    new PreparedCorpus(name, n, index, features, gt)
  }
}
