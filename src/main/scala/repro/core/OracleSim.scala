package repro.core

import repro.data.SplitMix
import repro.index.HeuristicIndex

/** Oracle abstraction (paper §2 Def. 4). Given a heuristic's coverage set,
  * answers whether the heuristic is adequately precise.
  */
trait RuleOracle {
  /** YES iff the rule is adequately precise. Each call consumes budget. */
  def query(coverage: Array[Int]): Boolean
  def queries: Int
}

object RuleOracle {

  /** An adequately precise rule: the paper's oracle answers YES when at
    * least 80% of what it is shown is positive (§4.1).
    */
  val MinPrecision = 0.8
}

/** Ground-truth oracle used in §4.1: YES iff at least
  * [[RuleOracle.MinPrecision]] of the coverage set is positive.
  */
final class ExactOracle(gt: java.util.BitSet) extends RuleOracle {
  private var q = 0
  def queries: Int = q

  def precision(coverage: Array[Int]): Double =
    if (coverage.isEmpty) 0.0
    else HeuristicIndex.overlap(coverage, gt).toDouble / coverage.length

  def query(coverage: Array[Int]): Boolean = {
    q += 1
    precision(coverage) >= RuleOracle.MinPrecision
  }
}

/** Sample-based noisy oracle modelling the §4.5 crowd experiment: the
  * annotator sees 5 random covered sentences and answers YES iff at least
  * [[RuleOracle.MinPrecision]] of the sample is positive — so a rule whose
  * 5-sentence sample happens to contain 4 positives gets a false YES, the
  * exact error mode the paper reports.
  */
final class SampleOracle(gt: java.util.BitSet, seed: Long = 7) extends RuleOracle {
  private val SampleSize = 5
  private var q   = 0
  private val rng = new SplitMix(seed)
  def queries: Int = q

  def query(coverage: Array[Int]): Boolean = {
    q += 1
    if (coverage.isEmpty) return false
    var pos = 0; var k = 0
    while (k < SampleSize) {
      if (gt.get(coverage(rng.nextInt(coverage.length)))) pos += 1
      k += 1
    }
    pos.toDouble / SampleSize >= RuleOracle.MinPrecision
  }
}

/** Instance-level oracle for the active-learning baseline (§4.4): labels a
  * single sentence.
  */
final class InstanceOracle(gt: java.util.BitSet) {
  private var q = 0
  def queries: Int = q
  def label(id: Int): Int = { q += 1; if (gt.get(id)) 1 else 0 }
}
