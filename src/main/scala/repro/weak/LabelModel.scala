package repro.weak

import repro.core.{Classifier, PreparedCorpus}

/** Snorkel substitute (DESIGN.md substitution 5): the one-coin generative
  * label model over positive-voting labeling functions, fitted with EM.
  *
  * Snorkel-faithful semantics: a labeling function that does not fire
  * ABSTAINS — it contributes no evidence (modelling absence as negative
  * evidence collapses under disjoint rule families and a skewed class
  * prior: a single precise rule could never push a sentence past 0.5).
  * Each rule j has an accuracy a_j = P(vote correct | it fires); with the
  * class balance π the posterior of a covered sentence is
  *   P(y=1 | votes) ∝ π · Π_{j fires} a_j   vs   (1-π) · Π_{j fires} (1-a_j).
  * Snorkel's default balanced prior (π = 0.5) is used. Uncovered sentences
  * get no label (posterior 0) — they are not part of the de-noised
  * training positives, exactly as Snorkel drops uncovered examples.
  */
object LabelModel {

  /** EM iterations of [[fit]]. */
  private val Iters = 25

  /** A covered sentence is a de-noised positive at this posterior. */
  private val MinPosterior = 0.5

  /** The posterior P(y=1 | votes) of every sentence; 0 for uncovered ones.
    *
    * @param coverages inverted lists (sorted sentence ids) of each rule
    * @param n corpus size
    */
  def fit(coverages: Vector[Array[Int]], n: Int, prior: Double = 0.5): Array[Double] = {
    val m = coverages.length
    require(m > 0, "need at least one labeling function")

    // The rules firing on each sentence in CSR form: sentence s's rules are
    // rules(start(s) until start(s + 1)), in descending rule index. Filling
    // each sentence's slots from its end while j ascends gives that order,
    // and `start` ends up holding the slice starts.
    val start = new Array[Int](n + 1)
    for (ids <- coverages; id <- ids) start(id) += 1
    var s = 0; var total = 0
    while (s < n) { total += start(s); start(s) = total; s += 1 }
    start(n) = total
    val rules = new Array[Int](total)
    for (j <- 0 until m; id <- coverages(j)) { start(id) -= 1; rules(start(id)) = j }

    val a = Array.fill(m)(0.7) // accuracy when firing
    val q = new Array[Double](n)

    def clamp(x: Double, lo: Double = 1e-6, hi: Double = 1 - 1e-6): Double =
      math.max(lo, math.min(hi, x))

    val logPrior = math.log(clamp(prior)) - math.log(clamp(1 - prior))
    var it = 0
    while (it < Iters) {
      // E-step over covered sentences only (abstains carry no evidence)
      s = 0
      while (s < n) {
        val end = start(s + 1)
        var k   = start(s)
        if (k < end) {
          var logit = logPrior
          while (k < end) {
            val j = rules(k)
            logit += math.log(clamp(a(j))) - math.log(clamp(1 - a(j)))
            k += 1
          }
          q(s) = Classifier.sigmoid(logit)
        }
        s += 1
      }
      // M-step: accuracy = expected fraction of correct firings
      var j = 0
      while (j < m) {
        val ids = coverages(j)
        if (ids.nonEmpty) {
          var cq = 0.0; var i = 0
          while (i < ids.length) { cq += q(ids(i)); i += 1 }
          a(j) = clamp(cq / ids.length, 0.05, 0.95)
        }
        j += 1
      }
      it += 1
    }
    q
  }

  /** De-noised positive set: covered sentences with posterior ≥ [[MinPosterior]]. */
  def denoise(prep: PreparedCorpus, ruleCoverages: Vector[Array[Int]]): java.util.BitSet = {
    val posterior = fit(ruleCoverages, prep.n)
    val out       = new java.util.BitSet(prep.n)
    var i = 0
    while (i < prep.n) {
      if (posterior(i) >= MinPosterior) out.set(i)
      i += 1
    }
    out
  }
}
