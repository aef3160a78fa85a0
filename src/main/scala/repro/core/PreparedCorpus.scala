package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.{CorpusGen, DatasetSpec}
import repro.grammar.SketchConfig
import repro.index.HeuristicIndex
import repro.text.Embeddings

/** Driver-side view of a prepared corpus: the pruned heuristic index, the
  * per-sentence embedding features, and the hidden ground truth (used only
  * by oracle simulation and evaluation).
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
  def recall(p: java.util.BitSet): Double = {
    if (nPos == 0) return 0.0
    val both = p.clone().asInstanceOf[java.util.BitSet]
    both.and(gt)
    both.cardinality().toDouble / nPos
  }

  /** Fraction of P that is truly positive. */
  def precisionOf(p: java.util.BitSet): Double = {
    val c = p.cardinality()
    if (c == 0) return 0.0
    val both = p.clone().asInstanceOf[java.util.BitSet]
    both.and(gt)
    both.cardinality().toDouble / c
  }

  /** Ground-truth positive ids (for seed-sampling experiments). */
  lazy val positiveIds: Array[Int] = Classifier.bitsetIndices(gt)
}

object PreparedCorpus {

  /** Generate, parse, feature-extract and index a dataset in one Spark
    * pass: each sentence is parsed once, for both its sketches and its
    * features.
    */
  def prepare(spark: SparkSession, spec: DatasetSpec,
              nOverride: Option[Long] = None,
              cfg: SketchConfig = SketchConfig(),
              minCover: Option[Int] = None,
              maxCoverFrac: Double = 0.2): PreparedCorpus = {
    val rows  = CorpusGen.rows(spark, spec, nOverride.getOrElse(spec.n))
    val parts = HeuristicIndex.scan(rows, cfg) {
      (row, parsed) => (row.id.toInt, row.label, Embeddings.features(parsed.tokens, parsed.pos))
    }
    val index = HeuristicIndex.merge(parts, minCover, maxCoverFrac)
    val n     = index.n

    val features = new Array[Array[Float]](n)
    val gt       = new java.util.BitSet(n)
    for (part <- parts; (id, label, vec) <- part.perRow) {
      features(id) = vec
      if (label == 1) gt.set(id)
    }
    new PreparedCorpus(spec.name, n, index, features, gt)
  }
}
