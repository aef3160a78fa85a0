package repro.baselines

import repro.core.PreparedCorpus
import repro.eval.Metrics
import repro.index.HeuristicIndex
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
    val labeledIds = new java.util.BitSet(prep.n)
    val labeledPos = new java.util.BitSet(prep.n)
    for ((i, y) <- labeled) { labeledIds.set(i); if (y == 1) labeledPos.set(i) }
    val nLabeledPos = labeledPos.cardinality()

    // Candidate stats on the labeled subset only (Snuba sees nothing else):
    // a rule's labeled hits, sorted, and their P/R/F1 against the labels.
    // A rule is its pattern number, so ties in rank go to the smaller repr.
    final case class Cand(rule: Int, labHits: Array[Int], f1: Double)

    val index = prep.index
    val cands = (0 until index.size).iterator.flatMap { g =>
      val labHits = index.postings(g).filter(labeledIds.get)
      val pos     = HeuristicIndex.overlap(labHits, labeledPos)
      val score   = Metrics.prf(pos, labHits.length - pos, nLabeledPos - pos)
      Option.when(pos >= MinPositives && score.precision >= MinPrecision)(
        Cand(g, labHits, score.f1))
    }.toVector

    // Greedy by F1 under the diversity constraint. The selection only
    // grows, so a candidate too similar to a selected rule stays so, and
    // one pass in rank order selects what repeated first-fit searches would.
    val selected = mutable.ArrayBuffer.empty[Cand]
    for (c <- cands.sortBy(c => (-c.f1, -c.labHits.length, c.rule)))
      if (selected.length < cfg.maxRules &&
          selected.forall(s => HeuristicIndex.jaccard(s.labHits, c.labHits) <= cfg.maxJaccard))
        selected += c

    val rules = selected.map(c => index.patterns(c.rule)).toVector
    Result(rules, index.cover(rules))
  }
}
