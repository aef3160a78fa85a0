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
  def finalRecall: Double = trace.lastOption.map(_.recall).getOrElse(0.0)
}

/** The Darwin driver (paper Algorithm 1): seed → iterate (candidate
  * generation → hierarchy traversal → oracle query → score update).
  *
  * Implementation notes (see DESIGN.md "Paper deviations"):
  *  - Alg. 4 line 10 typo corrected to `R ← R ∪ {r}, P ← P ∪ C_r`;
  *  - the budget counts oracle queries only — the UniversalSearch
  *    `avgBenefit ≤ 0.5` skip removes the rule without consuming budget;
  *  - HybridSearch's failure counter resets on a YES (the paper's stated
  *    intent: switch after τ *unsuccessful* attempts).
  */
final class Darwin(prep: PreparedCorpus, oracle: RuleOracle,
                   cfg: DarwinConfig = DarwinConfig()) {

  /** Run from a seed labeling rule (must be indexed — i.e. have corpus
    * support within the index bounds).
    */
  def run(seedRule: String, budget: Int, strategy: Strategy): DarwinResult = {
    require(prep.index.contains(seedRule),
            s"seed rule '$seedRule' not in index for ${prep.name}")
    runLoop(Some(seedRule), prep.index.ids(seedRule), budget, strategy)
  }

  /** Run from a couple of labeled positive sentences instead of a rule. */
  def runFromPositives(seedIds: Array[Int], budget: Int, strategy: Strategy): DarwinResult =
    runLoop(None, seedIds, budget, strategy)

  // ------------------------------------------------------------------

  private def runLoop(seedRule: Option[String], seedIds: Array[Int],
                      budget: Int, strategy: Strategy): DarwinResult = {
    val index = prep.index
    val n     = prep.n

    val P = new java.util.BitSet(n)
    seedIds.foreach(P.set)
    val R     = mutable.ArrayBuffer.empty[String]
    seedRule.foreach(R += _)
    val asked = mutable.HashSet.empty[String]
    seedRule.foreach(asked += _) // the seed is pre-verified; never re-ask
    val trace = Vector.newBuilder[QueryEvent]

    var retrains = 0
    var model  = Model(new Array[Double](0), 0.0)
    var scores = new Array[Double](n)
    def retrain(): Unit = {
      model = Classifier.trainOnPositives(prep.features, P, n,
                                          cfg.seed + retrains, cfg.classifier)
      scores = Classifier.scoreAll(prep.features, model)
      retrains += 1
    }
    retrain()

    // benefit(r) = Σ_{s ∈ C_r \ P} p_s  (§3.3). Memoized: P and the scores
    // only change on an accepted rule (the cache is cleared there), while
    // pick() re-evaluates the whole pool every iteration.
    val statsCache = mutable.HashMap.empty[String, (Double, Int)]
    def stats(p: String): (Double, Int) = statsCache.getOrElseUpdate(p, {
      val ids = index.ids(p)
      var benefit = 0.0; var fresh = 0; var i = 0
      while (i < ids.length) {
        if (!P.get(ids(i))) { benefit += scores(ids(i)); fresh += 1 }
        i += 1
      }
      (benefit, fresh)
    })
    def avgBenefit(p: String): Double = {
      val (b, f) = stats(p); if (f == 0) 0.0 else b / f
    }

    // §3.2 diversity constraint: never spend a query on a rule whose
    // coverage is nearly identical to one already answered — the oracle
    // would give the same answer ("avoid having to evaluate many similar
    // candidate heuristics").
    val askedCoverages = mutable.ArrayBuffer.empty[Array[Int]]
    def redundant(p: String): Boolean = {
      val ids = index.ids(p)
      askedCoverages.exists(HeuristicIndex.jaccard(ids, _) >= Darwin.MaxAskedJaccard)
    }

    def regen(): mutable.LinkedHashSet[String] =
      mutable.LinkedHashSet.from(
        CandidateGen.cleanup(index, P, CandidateGen.generate(index, P, cfg.k))
          .filterNot(asked))

    /** argmax over a candidate pool with deterministic tie-breaking. */
    def pick(pool: Iterable[String], key: String => (Double, Double)): Option[String] =
      pool.foldLeft(Option.empty[(String, (Double, Double))]) { (best, p) =>
        val k = key(p)
        best match {
          case Some((bp, bk))
            if bk._1 > k._1 || (bk._1 == k._1 && (bk._2 > k._2 ||
              (bk._2 == k._2 && bp <= p))) => best
          case _ => Some((p, k))
        }
      }.map(_._1)

    val byBenefit: String => (Double, Double) =
      p => { val (b, f) = stats(p); (b, f.toDouble) }
    val byAvgBenefit: String => (Double, Double) =
      p => { val (b, f) = stats(p); (if (f == 0) 0.0 else b / f, b) }
    val byCoverage: String => (Double, Double) =
      p => (index.count(p).toDouble, 0.0)

    def accept(r: String): Unit = {
      R += r
      index.ids(r).foreach(P.set)
      retrain()
      statsCache.clear()
    }
    def askOracle(r: String): Boolean = {
      askedCoverages += index.ids(r)
      oracle.query(index.ids(r))
    }
    def record(r: String, answer: Boolean): Unit =
      trace += QueryEvent(oracle.queries, r, answer, P.cardinality(), prep.recall(P))

    // One traversal loop; the strategy only picks its settings (DESIGN.md,
    // "Traversal loop"): the pools it uses, the ranking key, whether
    // universal mode skips rules with avg benefit ≤ MinAvgBenefit, and τ.
    // The mode flips after τ+1 consecutive rejections or on an empty pool.
    val (useLocal, useUniversal, key, skipLowAvg, tau) = strategy match {
      case Strategy.LocalSearch     => (true, false, byBenefit, false, Int.MaxValue)
      case Strategy.UniversalSearch => (false, true, byBenefit, true, Int.MaxValue)
      case Strategy.HybridSearch(t) => (true, true, byBenefit, true, t)
      case Strategy.HighP           => (false, true, byAvgBenefit, false, Int.MaxValue)
      case Strategy.HighC           => (false, true, byCoverage, false, Int.MaxValue)
    }

    val local = mutable.LinkedHashSet.empty[String]
    // §3.2 cleanup applied to the local pool: a rule whose coverage is
    // inside P cannot add positives — drop it without spending an oracle
    // query. `universal` needs none: regen() already drops those rules and
    // follows every change to P.
    def pruneLocal(): Unit = local.filterInPlace(p => stats(p)._2 > 0)
    def addLocalParents(r: String): Unit =
      index.parents(r).filterNot(asked).foreach(local += _)
    def addLocalChildren(r: String): Unit =
      index.children(r).filterNot(asked).foreach(local += _)
    if (useLocal) seedRule match {
      // The seed is pre-verified: expand its neighborhood directly.
      case Some(r) => addLocalParents(r); addLocalChildren(r)
      // Rule-less start: anchor on the indexed rule with the highest
      // coverage over the seed positives (generate_hierarchy would surface
      // it first anyway).
      case None => CandidateGen.generate(index, P, 1).foreach(local += _)
    }
    var universal = if (useUniversal) regen() else mutable.LinkedHashSet.empty[String]

    var inUniversal = useUniversal
    var attempt     = 0 // consecutive oracle rejections (not benefit skips)
    def pool = if (inUniversal) universal else local
    def flip(): Unit = { inUniversal = !inUniversal; attempt = 0 }
    while (oracle.queries < budget && { pruneLocal(); local.nonEmpty || universal.nonEmpty }) {
      if (attempt > tau) flip()
      if (pool.isEmpty) flip()
      val r = pick(pool, key).get
      if (inUniversal && skipLowAvg && avgBenefit(r) <= Darwin.MinAvgBenefit) {
        universal -= r // skipped, no oracle cost (see DESIGN.md)
      } else {
        universal -= r; local -= r; asked += r
        if (!redundant(r)) {
          val yes = askOracle(r)
          if (yes) {
            attempt = 0
            accept(r)
            if (useLocal) addLocalParents(r)
            if (useUniversal) universal = regen()
          } else {
            attempt += 1
            if (useLocal) addLocalChildren(r)
          }
          record(r, yes)
        }
      }
    }

    DarwinResult(R.toVector, P, trace.result(), model)
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
