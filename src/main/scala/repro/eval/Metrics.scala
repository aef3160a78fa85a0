package repro.eval

import repro.core.{Classifier, Model, PreparedCorpus}
import repro.index.HeuristicIndex

/** Precision / recall / F1 helpers shared by all experiments. */
object Metrics {

  /** Hyperparameters of the §4.4 end classifier: unlike the in-loop
    * benefit scorer it is not recall-biased (posWeight 1) and can afford a
    * large negative sample and weaker regularization — discovery is done.
    */
  val FinalClassifier: Classifier.Config =
    Classifier.Config(negRatio = 8, negWeight = 1.0,
                      posWeight = Some(1.0), l2 = 0.005)

  /** Seed of the end classifier's negative sample. */
  private val FinalSeed = 17L

  /** Score at which a classifier calls a sentence positive. */
  private val DecisionThreshold = 0.5

  final case class PRF(precision: Double, recall: Double, f1: Double)

  def prf(tp: Int, fp: Int, fn: Int): PRF = {
    val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val r = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    val f = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    PRF(p, r, f)
  }

  /** Evaluate a predicted positive set against ground truth. */
  def ofBitset(pred: java.util.BitSet, gt: java.util.BitSet): PRF = {
    val tp = HeuristicIndex.overlap(pred, gt)
    prf(tp, pred.cardinality() - tp, gt.cardinality() - tp)
  }

  /** Classifier F-score over the whole corpus at [[DecisionThreshold]] (§4.4). */
  def ofModel(prep: PreparedCorpus, model: Model): PRF = {
    val scores = Classifier.scoreAll(prep.features, model)
    val pred   = new java.util.BitSet(prep.n)
    var i = 0
    while (i < prep.n) {
      if (scores(i) >= DecisionThreshold) pred.set(i)
      i += 1
    }
    ofBitset(pred, prep.gt)
  }

  /** Train the §4.4 end classifier on a discovered positive set (random
    * negatives, as in the paper) and report its corpus F-score. The final
    * classifier uses a larger negative sample than the in-loop scorer:
    * once discovery is done, the uncovered corpus serves as abundant
    * (noisy) negatives, standard in weak supervision.
    */
  def classifierF1(prep: PreparedCorpus, positives: java.util.BitSet): PRF =
    ofModel(prep, Classifier.trainOnPositives(prep.features, positives, prep.n, FinalSeed,
                                              FinalClassifier))
}
