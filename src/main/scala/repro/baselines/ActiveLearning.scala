package repro.baselines

import repro.core.{Classifier, InstanceOracle, Model, PreparedCorpus}
import repro.data.SplitMix
import repro.eval.Metrics

/** Active-learning baseline (paper §4.4): pool-based uncertainty sampling.
  * Each query asks the oracle for the label of the single sentence with
  * maximum predictive entropy, then retrains.
  */
object ActiveLearning {

  final case class Step(queries: Int, f1: Double)
  final case class Result(steps: Vector[Step], model: Model)

  /** F1 is recorded every this many queries, and at the budget. */
  val EvalEvery = 10

  /** Seed of the bootstrap sample. */
  private val Seed = 23L

  /** @param seedPos a couple of known positive ids (same seeding as Darwin)
    * @param budget  number of instance labels to request
    */
  def run(prep: PreparedCorpus, seedPos: Array[Int], budget: Int): Result = {
    val oracle  = new InstanceOracle(prep.gt)
    val rng     = new SplitMix(Seed)
    val labeled = scala.collection.mutable.HashMap.empty[Int, Int]
    seedPos.foreach(labeled(_) = 1)
    // a few random instances bootstrap the negative class
    var k = 0
    while (k < 10) {
      val i = rng.nextInt(prep.n)
      if (!labeled.contains(i)) labeled(i) = oracle.label(i)
      k += 1
    }

    def trainNow(): Model = {
      val pos = labeled.collect { case (i, 1) => i }.toArray
      val neg = labeled.collect { case (i, 0) => i }.toArray
      Classifier.train(prep.features, pos, neg)
    }
    var model = trainNow()
    val steps = Vector.newBuilder[Step]

    while (oracle.queries < budget) {
      // max-entropy = score closest to 0.5 among unlabeled
      val scores = Classifier.scoreAll(prep.features, model)
      var best = -1; var bestDist = Double.MaxValue
      var i = 0
      while (i < prep.n) {
        if (!labeled.contains(i)) {
          val d = math.abs(scores(i) - 0.5)
          if (d < bestDist) { bestDist = d; best = i }
        }
        i += 1
      }
      if (best < 0) return Result(steps.result(), model)
      labeled(best) = oracle.label(best)
      model = trainNow()
      if (oracle.queries % EvalEvery == 0 || oracle.queries == budget)
        steps += Step(oracle.queries, Metrics.ofModel(prep, model).f1)
    }
    Result(steps.result(), model)
  }
}
