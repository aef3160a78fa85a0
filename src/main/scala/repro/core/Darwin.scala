package repro.core

import repro.index.HeuristicIndex
import scala.collection.mutable

/** Hierarchy-traversal strategy (paper §3.3–3.6 and the §4.3 baselines). */
sealed trait Strategy { def label: String }
object Strategy {
  /** Alg. 3: explore parents/children of confirmed rules. */
  case object LocalSearch extends Strategy { val label = "LS" }
  /** Alg. 4: best global benefit, skipping rules with avg benefit ≤ 0.5. */
  case object UniversalSearch extends Strategy { val label = "US" }
  /** Alg. 5: toggle between the two when the current pool is empty, or
    * after τ+1 consecutive oracle rejections (the code flips on
    * `attempt > tau`; DESIGN.md).
    */
  final case class HybridSearch(tau: Int = 5) extends Strategy { val label = "HS" }
  /** §4.3 baseline: query the rule with highest expected precision. */
  case object HighP extends Strategy { val label = "HighP" }
  /** §4.3 baseline: query the rule with highest coverage. */
  case object HighC extends Strategy { val label = "HighC" }
}

final case class DarwinConfig(
    k: Int = 10000,                                  // candidates per hierarchy generation (paper: 10K)
    classifier: Classifier.Config = Classifier.Config(),
    seed: Long = 42,
)

/** One oracle interaction: the rule asked, the answer, and the state of
  * the discovered positive set afterwards.
  */
final case class QueryEvent(query: Int, rule: String, answer: Boolean,
                            pSize: Int, recall: Double)

final case class DarwinResult(
    rules: Vector[String],
    positives: java.util.BitSet,
    trace: Vector[QueryEvent],
    model: Model,
) {
  def queries: Int = trace.length
  /** recall after each query, prefixed with the post-seed state at x=0. */
  def recallCurve(seedRecall: Double): Vector[(Int, Double)] =
    (0, seedRecall) +: trace.map(e => (e.query, e.recall))
}

/** The Darwin driver (paper Algorithm 1): seed → iterate (candidate
  * generation → hierarchy traversal → oracle query → score update).
  *
  * Implementation notes (see DESIGN.md "Paper deviations"):
  *  - Alg. 4 line 10 typo corrected to `R ← R ∪ {r}, P ← P ∪ C_r`;
  *  - the budget counts oracle queries only — universal mode's
  *    `avgBenefit ≤ 0.5` skip is a filter on each regenerated candidate
  *    pool and consumes no budget;
  *  - HybridSearch's failure counter resets on a YES (the paper's stated
  *    intent: switch after τ *unsuccessful* attempts).
  */
final class Darwin(prep: PreparedCorpus, oracle: RuleOracle,
                   cfg: DarwinConfig = DarwinConfig()) {

  /** Run from a seed labeling rule (must be indexed — i.e. have corpus
    * support within the index bounds).
    */
  def run(seedRule: String, budget: Int, strategy: Strategy): DarwinResult = {
    val seed = prep.index.id(seedRule)
    require(seed >= 0, s"seed rule '$seedRule' not in index for ${prep.name}")
    runLoop(Some(seed), prep.index.postings(seed), budget, strategy)
  }

  /** Run from a couple of labeled positive sentences instead of a rule. */
  def runFromPositives(seedIds: Array[Int], budget: Int, strategy: Strategy): DarwinResult =
    runLoop(None, seedIds, budget, strategy)

  // ------------------------------------------------------------------

  // Rules are pattern numbers of the index (HeuristicIndex.patterns); the
  // result and the trace name them by repr.
  private def runLoop(seedRule: Option[Int], seedIds: Array[Int],
                      budget: Int, strategy: Strategy): DarwinResult = {
    val index = prep.index
    val n     = prep.n

    val P = new java.util.BitSet(n)
    seedIds.foreach(P.set)
    val R     = mutable.ArrayBuffer.empty[Int]
    seedRule.foreach(R += _)
    val asked = new java.util.BitSet(index.size)
    seedRule.foreach(asked.set) // the seed is pre-verified; never re-ask
    val trace = Vector.newBuilder[QueryEvent]

    // Per pattern, |C_g ∩ P| and benefit(g) = Σ_{s ∈ C_g \ P} p_s (§3.3).
    // P and the scores change only on an accept, whose retrain() refills
    // both in one pass over the postings, summing each pattern's ids in
    // ascending order.
    val inP     = new Array[Int](index.size)
    val benefit = new Array[Double](index.size)
    var retrains = 0
    var model  = Model(new Array[Double](0), 0.0)
    def retrain(): Unit = {
      model = Classifier.trainOnPositives(prep.features, P, n,
                                          cfg.seed + retrains, cfg.classifier)
      val scores = Classifier.scoreAll(prep.features, model)
      retrains += 1
      var g = 0
      while (g < index.size) {
        val ids = index.postings(g)
        var c = 0; var b = 0.0; var i = 0
        while (i < ids.length) {
          if (P.get(ids(i))) c += 1 else b += scores(ids(i))
          i += 1
        }
        inP(g) = c; benefit(g) = b
        g += 1
      }
    }
    retrain()
    /** |C_g \ P|: the sentences rule g would add. */
    def fresh(g: Int): Int = index.postings(g).length - inP(g)
    def avgBenefit(g: Int): Double = if (fresh(g) == 0) 0.0 else benefit(g) / fresh(g)

    val byBenefit: Int => (Double, Double) =
      g => (benefit(g), fresh(g).toDouble)
    val byAvgBenefit: Int => (Double, Double) =
      g => (avgBenefit(g), benefit(g))
    val byCoverage: Int => (Double, Double) =
      g => (index.postings(g).length.toDouble, 0.0)

    // One traversal loop; the strategy only picks its settings (DESIGN.md,
    // "Traversal loop"): the pools it uses, the ranking key, whether
    // universal candidates with avg benefit ≤ MinAvgBenefit are dropped,
    // and τ. The mode flips after τ+1 consecutive rejections or on an
    // empty pool.
    val (useLocal, useUniversal, key, dropLowAvg, tau) = strategy match {
      case Strategy.LocalSearch     => (true, false, byBenefit, false, Int.MaxValue)
      case Strategy.UniversalSearch => (false, true, byBenefit, true, Int.MaxValue)
      case Strategy.HybridSearch(t) => (true, true, byBenefit, true, t)
      case Strategy.HighP           => (false, true, byAvgBenefit, false, Int.MaxValue)
      case Strategy.HighC           => (false, true, byCoverage, false, Int.MaxValue)
    }

    // §3.2 diversity constraint: never spend a query on a rule whose
    // coverage is nearly identical to one already answered — the oracle
    // would give the same answer ("avoid having to evaluate many similar
    // candidate heuristics").
    val askedCoverages = mutable.ArrayBuffer.empty[Array[Int]]
    def redundant(g: Int): Boolean = {
      val ids = index.postings(g)
      askedCoverages.exists(HeuristicIndex.jaccard(ids, _) >= Darwin.MaxAskedJaccard)
    }

    // Alg. 2 candidates after the §3.2 cleanup (C_g ⊄ P), minus the asked
    // rules. US and HS drop the rules with avg benefit ≤ MinAvgBenefit here,
    // once per regeneration: no key changes before the next accept, so
    // Alg. 4's skip at pick time would drop the same rules (DESIGN.md).
    def regen(): java.util.BitSet = {
      val pool = new java.util.BitSet(index.size)
      for (g <- CandidateGen.generate(index, inP, cfg.k))
        if (fresh(g) > 0 && !(dropLowAvg && avgBenefit(g) <= Darwin.MinAvgBenefit)) pool.set(g)
      pool.andNot(asked)
      pool
    }

    /** argmax over a non-empty pool, scanned in ascending number: the best
      * is replaced only by a strictly greater key, so ties go to the lower
      * number, which is the lexicographically smaller rule.
      */
    def pick(pool: java.util.BitSet, key: Int => (Double, Double)): Int = {
      import Ordering.Double.TotalOrdering
      pool.stream().toArray.maxBy(key)
    }

    // The local pool holds only unasked rules with fresh coverage (§3.2
    // cleanup): addLocal admits no other, and accept() drops the members
    // that the grown P covers. regen() does the same for `universal`.
    val local = new java.util.BitSet(index.size)
    def addLocal(gs: Array[Int]): Unit =
      gs.foreach(g => if (!asked.get(g) && fresh(g) > 0) local.set(g))

    def accept(r: Int): Unit = {
      R += r
      index.postings(r).foreach(P.set)
      retrain()
      local.stream().toArray.foreach(g => if (fresh(g) == 0) local.clear(g))
    }
    def askOracle(r: Int): Boolean = {
      askedCoverages += index.postings(r)
      oracle.query(index.postings(r))
    }
    def record(r: Int, answer: Boolean): Unit =
      trace += QueryEvent(oracle.queries, index.patterns(r), answer, P.cardinality(), prep.recall(P))

    if (useLocal) seedRule match {
      // The seed is pre-verified: expand its neighborhood directly.
      case Some(r) => addLocal(index.parentsOf(r)); addLocal(index.childrenOf(r))
      // Rule-less start: anchor on the indexed rule with the highest
      // coverage over the seed positives (generate_hierarchy would surface
      // it first anyway).
      case None => addLocal(CandidateGen.generate(index, inP, 1))
    }
    var universal = if (useUniversal) regen() else new java.util.BitSet

    var inUniversal = useUniversal
    var attempt     = 0 // consecutive oracle rejections
    def pool = if (inUniversal) universal else local
    def flip(): Unit = { inUniversal = !inUniversal; attempt = 0 }
    while (oracle.queries < budget && (!local.isEmpty || !universal.isEmpty)) {
      if (attempt > tau) flip()
      if (pool.isEmpty) flip()
      val r = pick(pool, key)
      universal.clear(r); local.clear(r); asked.set(r)
      if (!redundant(r)) {
        val yes = askOracle(r)
        if (yes) {
          attempt = 0
          accept(r)
          if (useLocal) addLocal(index.parentsOf(r))
          if (useUniversal) universal = regen()
        } else {
          attempt += 1
          if (useLocal) addLocal(index.childrenOf(r))
        }
        record(r, yes)
      }
    }

    DarwinResult(R.iterator.map(index.patterns(_)).toVector, P, trace.result(), model)
  }
}

object Darwin {

  /** Alg. 4/5: universal mode skips a rule whose average per-instance
    * benefit is at most this.
    */
  val MinAvgBenefit = 0.5

  /** §3.2 diversity: a rule whose coverage has at least this Jaccard
    * similarity with an already-asked rule is never asked.
    */
  val MaxAskedJaccard = 0.8
}
