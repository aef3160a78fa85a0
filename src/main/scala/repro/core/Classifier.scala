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
    Classifier.sigmoid(z)
  }
}

object Classifier {

  /** The logistic function σ(z) = 1 / (1 + e^−z). */
  def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  /** @param negWeight down-weights sampled negatives: they are random
    *   corpus draws, so a positive-rate fraction of them is mislabeled
    *   (§3.3 samples negatives "from the corpus"); a weight < 1 keeps that
    *   label noise from suppressing not-yet-discovered positive families.
    * @param posWeight positive-class weight; None = balance classes
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
    *
    * The m training rows, positives first, are gathered once into one
    * row-major `Double` buffer, padded to a multiple of four with zero rows
    * of weight 0. An epoch takes the rows four at a time: it computes their
    * four logits as independent chains from the epoch's fixed (w, b), then
    * adds their four gradient terms to each coordinate in row order. Every
    * logit is summed from b in coordinate order and every gradient
    * coordinate over the rows in the order of a row-at-a-time loop. A pad
    * row's terms are +0.0, which leave every sum's bits as they are, so the
    * model is bit-identical to that loop's (DESIGN.md, "Classifier kernel").
    */
  def train(features: Array[Array[Float]], posIdx: Array[Int], negIdx: Array[Int],
            cfg: Config = Config()): Model = {
    val dim = dimOf(features)
    val w   = new Array[Double](dim)
    var b   = 0.0
    if (posIdx.isEmpty || negIdx.isEmpty) return Model(w, b)
    val posW = cfg.posWeight.getOrElse(negIdx.length.toDouble / posIdx.length.toDouble)
    val m    = posIdx.length + negIdx.length
    val rows = (m + 3) / 4 * 4 // m padded with zero rows of weight 0
    val x      = new Array[Double](rows * dim)
    val y      = new Array[Double](rows)
    val weight = new Array[Double](rows)
    var k = 0
    while (k < m) {
      val isPos = k < posIdx.length
      val f     = features(if (isPos) posIdx(k) else negIdx(k - posIdx.length))
      var i = 0
      while (i < dim) { x(k * dim + i) = f(i); i += 1 }
      y(k)      = if (isPos) 1.0 else 0.0
      weight(k) = if (isPos) posW else cfg.negWeight
      k += 1
    }
    val gw = new Array[Double](dim)
    def errOf(k: Int, z: Double): Double =
      weight(k) * (sigmoid(z) - y(k))
    var e = 0
    while (e < cfg.epochs) {
      java.util.Arrays.fill(gw, 0.0)
      var gb = 0.0
      k = 0
      while (k < rows) {
        val o0 = k * dim; val o1 = o0 + dim; val o2 = o1 + dim; val o3 = o2 + dim
        var z0 = b; var z1 = b; var z2 = b; var z3 = b
        var i = 0
        while (i < dim) {
          val wi = w(i)
          z0 += wi * x(o0 + i); z1 += wi * x(o1 + i)
          z2 += wi * x(o2 + i); z3 += wi * x(o3 + i)
          i += 1
        }
        val e0 = errOf(k, z0); val e1 = errOf(k + 1, z1)
        val e2 = errOf(k + 2, z2); val e3 = errOf(k + 3, z3)
        i = 0
        while (i < dim) {
          gw(i) = gw(i) + e0 * x(o0 + i) + e1 * x(o1 + i) + e2 * x(o2 + i) + e3 * x(o3 + i)
          i += 1
        }
        gb = gb + e0 + e1 + e2 + e3
        k += 4
      }
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
    train(features, posIdx, sampleNegatives(pos, posIdx.length, n, seed, cfg), cfg)
  }

  /** ``negRatio·|P|`` (at least 8, at most n − |P|) distinct random ids
    * outside P, ascending; the draw gives up after 50 tries per wanted id.
    */
  private[core] def sampleNegatives(pos: java.util.BitSet, nPos: Int, n: Int, seed: Long,
                                    cfg: Config): Array[Int] = {
    val rng    = new SplitMix(seed)
    val want   = math.min(n - nPos, math.max(8, cfg.negRatio * nPos))
    val negSet = new java.util.BitSet(n)
    var got    = 0
    var tries  = 0
    while (got < want && tries < 50 * want) {
      val c = rng.nextInt(n)
      if (!pos.get(c) && !negSet.get(c)) { negSet.set(c); got += 1 }
      tries += 1
    }
    bitsetIndices(negSet)
  }

  /** Every sentence's score p_s; the one loop that scores a whole corpus. */
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
