package repro.text

import repro.data.SplitMix

/** Synthetic word embeddings (SpaCy substitute, DESIGN.md substitution 3).
  *
  * Each word's vector is its semantic cluster's centroid plus a small
  * deterministic per-word perturbation, L2-normalized. Words in the same
  * cluster (e.g. 'bus' and 'shuttle') are therefore close, while words in
  * different clusters are near-orthogonal in expectation — the property
  * Darwin's classifier exploits to generalize across related rules.
  * Function-word clusters get larger noise so they carry little signal.
  */
object Embeddings extends Serializable {

  val dim = 16

  /** Deterministic pseudo-random vector, uniform in [-1, 1) per dimension,
    * from a string seed: one [[SplitMix]] draw per dimension, seeded from
    * the string hash.
    */
  private[text] def hashVector(seed: String, n: Int = dim): Array[Float] = {
    val rng = new SplitMix(seed.hashCode.toLong * 0x9E3779B97F4A7C15L + 0xBF58476D1CE4E5B9L)
    val v   = new Array[Float](n)
    var i = 0
    while (i < n) { v(i) = (rng.nextDouble() * 2.0 - 1.0).toFloat; i += 1 }
    v
  }

  private def normalize(v: Array[Float]): Array[Float] = {
    var s = 0.0; var i = 0
    while (i < dim) { s += v(i) * v(i); i += 1 }
    val inv = if (s == 0) 0f else (1.0 / math.sqrt(s)).toFloat
    val out = new Array[Float](dim)
    i = 0
    while (i < dim) { out(i) = v(i) * inv; i += 1 }
    out
  }

  // Function words are nearly pure noise; content words keep a clear
  // cluster direction (the classifier's generalization signal).
  private val noiseScale: Map[String, Float] =
    Map("func" -> 1.8f, "misc" -> 1.8f).withDefaultValue(0.7f)

  private val cache = new java.util.concurrent.ConcurrentHashMap[String, Array[Float]]()

  /** Embedding vector of a word (unit L2 norm, deterministic). */
  def vector(word: String): Array[Float] =
    cache.computeIfAbsent(word, { w =>
      val info     = Vocab.info(w)
      val centroid = hashVector("cluster:" + info.cluster)
      val noise    = hashVector("word:" + w)
      val ns       = noiseScale(info.cluster)
      val v        = new Array[Float](dim)
      var i = 0
      while (i < dim) { v(i) = centroid(i) + ns * noise(i); i += 1 }
      normalize(v)
    })

  /** Sentence feature: mean embedding of content tokens (all tokens if no
    * content token is present), unit-normalized.
    */
  def sentenceVector(tokens: Array[String], pos: Array[String]): Array[Float] = {
    val content = tokens.indices.filter(i => Vocab.contentPos(pos(i)))
    val idxs    = if (content.nonEmpty) content else tokens.indices
    val acc     = new Array[Float](dim)
    for (i <- idxs) {
      val v = vector(tokens(i))
      var d = 0
      while (d < dim) { acc(d) += v(d); d += 1 }
    }
    var d = 0
    while (d < dim) { acc(d) /= idxs.size.max(1); d += 1 }
    normalize(acc)
  }

  def cosine(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < dim) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Dimension of the idiosyncratic per-sentence noise block. */
  val noiseDim = 32

  /** Scale of the semantic (embedding) block. Scaled up so the logistic
    * classifier leans on shared cluster directions — a sentence from an
    * unseen positive family with related vocabulary must score high
    * (the paper's 'bus' → 'public transport' generalization, §3).
    */
  val embScale = 2.5f

  /** Scale of the per-sentence noise block: emulates the idiosyncratic
    * variation of real sentences (and the variance of the paper's CNN on
    * small training sets) — a few dozen labels overfit it, rule-coverage-
    * scale training sets average it out.
    */
  val noiseScaleSentence = 1.0f

  /** Full classifier feature vector: mean content-word embedding (dense
    * semantic part, matching the paper's embeddings-only classifier input)
    * ++ deterministic per-sentence noise (dim [[noiseDim]]). No lexical
    * (bag-of-words) block: lexical evidence would let the optimizer
    * separate the (contaminated) random negative sample from the seed
    * family with a single token dimension, destroying exactly the
    * cross-family generalization Darwin relies on. See DESIGN.md
    * substitution 4.
    */
  def features(tokens: Array[String], pos: Array[String]): Array[Float] = {
    val out = new Array[Float](dim + noiseDim)
    val sv = sentenceVector(tokens, pos)
    var e = 0
    while (e < dim) { out(e) = embScale * sv(e); e += 1 }
    val noise = hashVector("sentence:" + tokens.mkString(" "), noiseDim)
    var d = 0
    while (d < noiseDim) {
      out(dim + d) = noiseScaleSentence * noise(d)
      d += 1
    }
    out
  }
}
