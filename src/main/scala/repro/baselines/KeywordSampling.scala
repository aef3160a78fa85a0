package repro.baselines

import repro.core.{Classifier, InstanceOracle, Model, PreparedCorpus}
import repro.data.SplitMix
import repro.eval.Metrics
import repro.grammar.{Heuristic, Term}

/** Keyword-sampling baseline (paper §4.4): annotators provide 10 relevant
  * keywords; the corpus is filtered to sentences containing any keyword,
  * instances are sampled from the filtered pool and labeled, and a
  * classifier is trained on those labels.
  */
object KeywordSampling {

  final case class Step(queries: Int, f1: Double)
  final case class Result(steps: Vector[Step], model: Model, poolSize: Int)

  /** F1 is recorded every this many queries, and at the budget. */
  private val EvalEvery = 10

  /** Seed of the pool and negative draws. */
  private val Seed = 29L

  def run(prep: PreparedCorpus, keywords: Seq[String], budget: Int): Result = {
    val oracle = new InstanceOracle(prep.gt)
    val rng    = new SplitMix(Seed)

    // Pool = union of the keywords' (token-terminal) coverage sets.
    val pool = Classifier.bitsetIndices(prep.index.cover(keywords.flatMap(w =>
      Seq(Heuristic.TermPat(Term.Tok(w)).repr, Heuristic.Phrase(Vector(w)).repr))))

    val labeled = scala.collection.mutable.HashMap.empty[Int, Int]
    val steps   = Vector.newBuilder[Step]
    var model   = Model(new Array[Double](0), 0.0)

    def trainNow(): Model = {
      val pos = labeled.collect { case (i, 1) => i }.toArray
      // negatives: labeled-negative pool items plus random out-of-pool draws
      val negLabeled = labeled.collect { case (i, 0) => i }.toArray
      val extraNeg = Array.fill(math.max(0, 2 * pos.length - negLabeled.length)) {
        rng.nextInt(prep.n)
      }.filterNot(i => labeled.get(i).contains(1))
      Classifier.train(prep.features, pos, negLabeled ++ extraNeg)
    }

    if (pool.isEmpty) return Result(Vector(Step(0, 0.0)), model, 0)

    while (oracle.queries < budget && labeled.size < pool.length) {
      val i = pool(rng.nextInt(pool.length))
      if (!labeled.contains(i)) {
        labeled(i) = oracle.label(i)
        if (oracle.queries % EvalEvery == 0 || oracle.queries == budget) {
          model = trainNow()
          steps += Step(oracle.queries, Metrics.ofModel(prep, model).f1)
        }
      }
    }
    model = trainNow()
    Result(steps.result(), model, pool.length)
  }
}
