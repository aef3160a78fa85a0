package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Datasets, SplitMix}
import repro.eval.Metrics
import repro.text.{Embeddings, Pipeline}

class ClassifierSpec extends AnyFunSuite {

  /** Two separable clusters in 4d. */
  private def clusters(n: Int, seed: Long): (Array[Array[Float]], java.util.BitSet) = {
    val rng = new SplitMix(seed)
    val feats = new Array[Array[Float]](n)
    val gt = new java.util.BitSet(n)
    for (i <- 0 until n) {
      val pos = i % 2 == 0
      if (pos) gt.set(i)
      val base = if (pos) 1f else -1f
      feats(i) = Array.fill(4)(base + (rng.nextDouble().toFloat - 0.5f) * 0.4f)
    }
    (feats, gt)
  }

  test("learns a separable problem") {
    val (f, gt) = clusters(200, 1)
    val pos = (0 until 200).filter(gt.get).toArray
    val neg = (0 until 200).filterNot(gt.get).toArray
    val m = Classifier.train(f, pos, neg)
    val acc = (0 until 200).count(i => (m.score(f(i)) >= 0.5) == gt.get(i)) / 200.0
    assert(acc > 0.95, s"accuracy=$acc")
  }

  test("scores are probabilities in (0,1)") {
    val (f, gt) = clusters(100, 2)
    val m = Classifier.train(f, (0 until 100).filter(gt.get).toArray,
                             (0 until 100).filterNot(gt.get).toArray)
    for (i <- 0 until 100) {
      val s = m.score(f(i))
      assert(s > 0.0 && s < 1.0)
    }
  }

  test("empty positives yield the zero model") {
    val (f, _) = clusters(10, 3)
    val m = Classifier.train(f, Array.empty, Array(0, 1))
    assert(m.w.forall(_ == 0.0) && m.b === 0.0)
  }

  test("trainOnPositives samples negatives outside P") {
    val (f, gt) = clusters(300, 4)
    val pBits = new java.util.BitSet(300)
    (0 until 300).filter(gt.get).take(40).foreach(pBits.set)
    val m = Classifier.trainOnPositives(f, pBits, 300, 11)
    // positives should score higher on average than negatives
    val posAvg = (0 until 300).filter(gt.get).map(i => m.score(f(i))).sum / 150
    val negAvg = (0 until 300).filterNot(gt.get).map(i => m.score(f(i))).sum / 150
    assert(posAvg > negAvg + 0.2, s"pos=$posAvg neg=$negAvg")
  }

  test("trainOnPositives with empty P returns zero model") {
    val (f, _) = clusters(20, 5)
    val m = Classifier.trainOnPositives(f, new java.util.BitSet(20), 20, 1)
    assert(m.w.length === 4 || m.w.isEmpty)
    assert(m.b === 0.0)
  }

  test("scoreAll matches per-row scores") {
    val (f, gt) = clusters(50, 6)
    val m = Classifier.train(f, (0 until 50).filter(gt.get).toArray,
                             (0 until 50).filterNot(gt.get).toArray)
    val all = Classifier.scoreAll(f, m)
    for (i <- 0 until 50) assert(all(i) === m.score(f(i)))
  }

  test("bitsetIndices round-trips") {
    val bs = new java.util.BitSet(100)
    Seq(3, 17, 42, 99).foreach(bs.set)
    assert(Classifier.bitsetIndices(bs).toSeq === Seq(3, 17, 42, 99))
    assert(Classifier.bitsetIndices(new java.util.BitSet(5)).isEmpty)
  }

  test("training is deterministic given the seed") {
    val (f, gt) = clusters(120, 7)
    val pBits = new java.util.BitSet(120)
    (0 until 120).filter(gt.get).take(20).foreach(pBits.set)
    val m1 = Classifier.trainOnPositives(f, pBits, 120, 5)
    val m2 = Classifier.trainOnPositives(f, pBits, 120, 5)
    assert(m1.w.toSeq === m2.w.toSeq && m1.b === m2.b)
  }

  test("embedding-based classifier separates intents on real templates") {
    import repro.text.Pipeline
    def vec(s: String) = {
      val p = Pipeline.parse(s); Embeddings.sentenceVector(p.tokens, p.pos)
    }
    val pos = Array("craving some pizza right now", "just ordered sushi for dinner",
                    "had ramen for lunch today").map(vec)
    val neg = Array("booked my flight to paris", "watching the hockey game tonight",
                    "first day at my new job today").map(vec)
    val f = pos ++ neg
    val m = Classifier.train(f, Array(0, 1, 2), Array(3, 4, 5),
                             Classifier.Config(epochs = 300))
    val test = vec("anyone want to grab tacos tonight")
    val ctrl = vec("reading about mortgages all morning")
    assert(m.score(test) > m.score(ctrl))
  }

  private def bits(m: Model): (Seq[Long], Long) =
    (m.w.toSeq.map(java.lang.Double.doubleToRawLongBits),
     java.lang.Double.doubleToRawLongBits(m.b))

  /** The four configurations of the kernel test: the in-loop and the final
    * classifier, each with a balancing and with a fixed positive weight.
    */
  private val configs = Seq(
    Classifier.Config(),
    Classifier.Config(posWeight = Some(2.0)),
    Metrics.FinalClassifier,
    Metrics.FinalClassifier.copy(posWeight = None))

  /** 48-dimensional features of professions sentences, as the index job
    * computes them.
    */
  private lazy val professionsFeatures: Array[Array[Float]] =
    Array.tabulate(40) { id =>
      val p = Pipeline.parse(Datasets.professions.sentence(id.toLong)._1)
      Embeddings.features(p.tokens, p.pos)
    }

  test("train is bit-identical to the row-at-a-time reference") {
    val (small, _) = clusters(12, 8)
    for ((feats, dim) <- Seq(small -> 4, professionsFeatures -> 48)) {
      assert(Classifier.dimOf(feats) === dim)
      val order = new scala.util.Random(dim).shuffle((0 until feats.length).toVector).toArray
      for (cfg <- configs; m <- 1 to 9; nPos <- 0 to m) {
        val pos = order.take(nPos)
        val neg = order.slice(nPos, m)
        val got = Classifier.train(feats, pos, neg, cfg)
        assert(bits(got) === bits(ReferenceClassifier.train(feats, pos, neg, cfg)),
               s"dim=$dim m=$m nPos=$nPos cfg=$cfg")
        if (pos.isEmpty || neg.isEmpty)
          assert(got.w.length === dim && got.w.forall(_ == 0.0) && got.b === 0.0)
      }
      // a row listed twice, and a training set larger than the feature rows
      val pos = Array(order(0), order(1), order(0))
      val neg = order.drop(2) ++ order.drop(5)
      for (cfg <- configs)
        assert(bits(Classifier.train(feats, pos, neg, cfg)) ===
               bits(ReferenceClassifier.train(feats, pos, neg, cfg)))
    }
  }

  test("negative sampling draws the reference loop's ids, also when tries run out") {
    val n = 1000
    val rng = new SplitMix(3)
    val sparse = new java.util.BitSet(n)
    (0 until 40).foreach(_ => sparse.set(rng.nextInt(n)))
    // 990 of 1,000 ids are positive: 500 tries find only about 5 of the 10
    val dense = new java.util.BitSet(n)
    dense.set(0, 990)
    for (pos <- Seq(sparse, dense); cfg <- configs; seed <- 1L to 5L) {
      val want = math.min(n - pos.cardinality(), math.max(8, cfg.negRatio * pos.cardinality()))
      val ref  = ReferenceClassifier.sampleNegatives(pos, n, seed, cfg)
      val got  = Classifier.sampleNegatives(pos, pos.cardinality(), n, seed, cfg)
      assert(got.toSeq === ref.toSeq)
      assert(got.forall(i => !pos.get(i)))
      if (pos eq dense) assert(got.length < want, s"cap not reached: ${got.length} of $want")
      else assert(got.length === want)
    }
    val (f, _) = clusters(n, 9)
    for (cfg <- configs) {
      val neg = ReferenceClassifier.sampleNegatives(sparse, n, 7, cfg)
      assert(bits(Classifier.trainOnPositives(f, sparse, n, 7, cfg)) ===
             bits(ReferenceClassifier.train(f, Classifier.bitsetIndices(sparse), neg, cfg)))
    }
  }
}
