package repro.core

import repro.data.SplitMix

/** The row-at-a-time full-batch GD that `Classifier.train` must reproduce
  * bit for bit, and the negative sampling loop that `trainOnPositives`
  * must reproduce id for id. Each row's logit and gradient are computed
  * together, straight from the corpus's feature rows.
  */
object ReferenceClassifier {

  def train(features: Array[Array[Float]], posIdx: Array[Int], negIdx: Array[Int],
            cfg: Classifier.Config): Model = {
    val dim = Classifier.dimOf(features)
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

  /** The negatives `trainOnPositives` draws for P, the set's size read
    * with `BitSet.cardinality()` before every draw.
    */
  def sampleNegatives(pos: java.util.BitSet, n: Int, seed: Long,
                      cfg: Classifier.Config): Array[Int] = {
    val nPos   = pos.cardinality()
    val rng    = new SplitMix(seed)
    val want   = math.min(n - nPos, math.max(8, cfg.negRatio * nPos))
    val negSet = new java.util.BitSet(n)
    var tries  = 0
    while (negSet.cardinality() < want && tries < 50 * want) {
      val c = rng.nextInt(n)
      if (!pos.get(c)) negSet.set(c)
      tries += 1
    }
    Classifier.bitsetIndices(negSet)
  }
}
