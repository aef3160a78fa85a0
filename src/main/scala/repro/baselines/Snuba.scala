package repro.baselines

import repro.core.PreparedCorpus
import scala.collection.mutable

/** Snuba baseline (paper §4.2; DESIGN.md substitution 6): automatically
  * synthesize labeling rules from a *labeled subset* of the corpus, with no
  * oracle interaction. Candidate rules are the indexed heuristics with
  * evidence in the labeled subset; rules are greedily selected by F1 on the
  * labeled subset, subject to a precision floor and a diversity (Jaccard)
  * constraint — Snuba's defining property (and failure mode) is that it can
  * only emit rules evidenced in the labeled sample.
  */
object Snuba {

  /** A rule's precision floor on the labeled subset. */
  val MinPrecision = 0.8

  /** Labeled positives a rule must cover. */
  val MinPositives = 2

  final case class Config(
      maxJaccard: Double = 0.5,    // diversity vs already-selected rules
      maxRules: Int = 50,
  )

  final case class Result(rules: Vector[String], positives: java.util.BitSet)

  /** @param labeled (sentenceId, groundTruthLabel) pairs — the seed subset */
  def run(prep: PreparedCorpus, labeled: Array[(Int, Int)],
          cfg: Config = Config()): Result = {
    val labeledIds  = labeled.map(_._1).toSet
    val labeledPos  = labeled.collect { case (i, 1) => i }.toSet

    // Candidate stats on the labeled subset only (Snuba sees nothing else).
    final case class Cand(rule: String, posHits: Set[Int], labHits: Set[Int]) {
      def precision: Double = posHits.size.toDouble / labHits.size
      def recall: Double =
        if (labeledPos.isEmpty) 0.0 else posHits.size.toDouble / labeledPos.size
      def f1: Double = {
        val (p, r) = (precision, recall)
        if (p + r == 0) 0.0 else 2 * p * r / (p + r)
      }
    }

    val cands = prep.index.entries.valuesIterator.flatMap { e =>
      val labHits = e.ids.iterator.filter(labeledIds).toSet
      if (labHits.isEmpty) None
      else {
        val posHits = labHits.filter(labeledPos)
        if (posHits.size >= MinPositives &&
            posHits.size.toDouble / labHits.size >= MinPrecision)
          Some(Cand(e.pattern, posHits, labHits))
        else None
      }
    }.toVector

    def jaccard(a: Set[Int], b: Set[Int]): Double = {
      val inter = a.intersect(b).size
      val union = a.size + b.size - inter
      if (union == 0) 0.0 else inter.toDouble / union
    }

    val selected  = mutable.ArrayBuffer.empty[Cand]
    val remaining = mutable.ArrayBuffer.from(
      cands.sortBy(c => (-c.f1, -c.labHits.size, c.rule)))
    var done = false
    while (!done && selected.length < cfg.maxRules && remaining.nonEmpty) {
      remaining.find(c => selected.forall(s => jaccard(s.labHits, c.labHits) <= cfg.maxJaccard)) match {
        case Some(best) =>
          selected += best
          remaining -= best
        case None => done = true
      }
    }

    val pos = new java.util.BitSet(prep.n)
    selected.foreach(c => prep.index.ids(c.rule).foreach(pos.set))
    Result(selected.map(_.rule).toVector, pos)
  }
}
