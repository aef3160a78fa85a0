package repro.core

import repro.data.SplitMix

/** Logistic-regression scorer over sentence embedding features — the
  * paper's "any short text classifier would be ideal for this task"
  * (§3.3, footnote 6; CNN substitute per DESIGN.md substitution 4).
  *
  * Trained exactly as the paper prescribes: positives are the discovered
  * set P, negatives are random corpus samples. Scores p_s feed the benefit
  * computation of the hierarchy traversals.
  */
final case class Model(w: Array[Double], b: Double) {
  def score(f: Array[Float]): Double = {
    var z = b; var i = 0
    while (i < w.length) { z += w(i) * f(i); i += 1 }
    1.0 / (1.0 + math.exp(-z))
  }
}

object Classifier {

  /** @param negWeight down-weights sampled negatives: they are random
    *   corpus draws, so a positive-rate fraction of them is mislabeled
    *   (§3.3 samples negatives "from the corpus"); a weight < 1 keeps that
    *   label noise from suppressing not-yet-discovered positive families.
    */
  /** @param posWeight positive-class weight; None = balance classes
    *   (|neg|/|pos|), which biases the 0.5 boundary toward recall — right
    *   for the in-loop benefit scorer, wrong for the final classifier.
    */
  final case class Config(
      epochs: Int = 400,
      lr: Double = 1.0,
      // strong enough that the model cannot memorize the (contaminated)
      // random negative sample via the noise block — keeps unseen positive
      // families scoring above the 0.5 benefit threshold (§3.5)
      l2: Double = 0.02,
      negRatio: Int = 3,
      negWeight: Double = 0.5,
      posWeight: Option[Double] = None,
  )

  /** Train on explicit positive/negative index sets (full-batch GD with a
    * class-balance weight on positives).
    */
  def train(features: Array[Array[Float]], posIdx: Array[Int], negIdx: Array[Int],
            cfg: Config = Config()): Model = {
    val dim = dimOf(features)
    val w   = new Array[Double](dim)
    var b   = 0.0
    if (posIdx.isEmpty || negIdx.isEmpty) return Model(w, b)
    val posW = cfg.posWeight.getOrElse(negIdx.length.toDouble / posIdx.length.toDouble)
    val m    = posIdx.length + negIdx.length
    var e = 0
    while (e < cfg.epochs) {
      val gw = new Array[Double](dim)
      var gb = 0.0
      def accumulate(idx: Array[Int], y: Double, weight: Double): Unit = {
        var k = 0
        while (k < idx.length) {
          val f = features(idx(k))
          var z = b; var i = 0
          while (i < dim) { z += w(i) * f(i); i += 1 }
          val p   = 1.0 / (1.0 + math.exp(-z))
          val err = weight * (p - y)
          i = 0
          while (i < dim) { gw(i) += err * f(i); i += 1 }
          gb += err
          k += 1
        }
      }
      accumulate(posIdx, 1.0, posW)
      accumulate(negIdx, 0.0, cfg.negWeight)
      val scale = cfg.lr / m
      var i = 0
      while (i < dim) { w(i) -= scale * gw(i) + cfg.lr * cfg.l2 * w(i); i += 1 }
      b -= scale * gb
      e += 1
    }
    Model(w, b)
  }

  /** Train with P as positives and ``negRatio·|P|`` random non-P sentences
    * as (noisy) negatives — §3.3's negative sampling.
    */
  def trainOnPositives(features: Array[Array[Float]], pos: java.util.BitSet,
                       n: Int, seed: Long, cfg: Config = Config()): Model = {
    val posIdx = bitsetIndices(pos)
    if (posIdx.isEmpty) return Model(new Array[Double](dimOf(features)), 0.0)
    val rng    = new SplitMix(seed)
    val want   = math.min(n - posIdx.length, math.max(8, cfg.negRatio * posIdx.length))
    val negSet = new java.util.BitSet(n)
    var tries  = 0
    while (negSet.cardinality() < want && tries < 50 * want) {
      val c = rng.nextInt(n)
      if (!pos.get(c)) negSet.set(c)
      tries += 1
    }
    train(features, posIdx, bitsetIndices(negSet), cfg)
  }

  def scoreAll(features: Array[Array[Float]], model: Model): Array[Double] = {
    val out = new Array[Double](features.length)
    var i = 0
    while (i < features.length) { out(i) = model.score(features(i)); i += 1 }
    out
  }

  /** Feature dimension of a corpus's feature matrix (0 when it is empty). */
  def dimOf(features: Array[Array[Float]]): Int =
    if (features.nonEmpty) features(0).length else 0

  def bitsetIndices(bs: java.util.BitSet): Array[Int] = {
    val out = new Array[Int](bs.cardinality())
    var i = bs.nextSetBit(0); var k = 0
    while (i >= 0) { out(k) = i; k += 1; i = bs.nextSetBit(i + 1) }
    out
  }
}
