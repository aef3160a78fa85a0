package darwinbench

import org.apache.spark.sql.SparkSession
import repro.core.{CandidateGen, Classifier, DarwinConfig, DarwinResult, PreparedCorpus}
import repro.data.{CorpusGen, DatasetSpec}
import repro.grammar.SketchExtractor
import repro.index.HeuristicIndex
import repro.text.{Embeddings, Pipeline}
import scala.collection.mutable

/** Per-layer probes for the traced run. Each probe calls the program's
  * public functions itself and times them from outside; none of them
  * changes what the end-to-end op does.
  */
object Layers {

  private def secondsOf[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** `repro.data`, `repro.text` and `repro.grammar`, each as one pass over
    * the corpus on the driver thread, so each time is that layer's own busy
    * time: generate every sentence, parse it, extract its features, and
    * (with ``withSketch``) enumerate its sketches. Returns the metrics and
    * the number of distinct patterns emitted (0 without sketches).
    */
  def corpusLayers(spec: DatasetSpec, n: Long, withText: Boolean,
                   withSketch: Boolean): (Map[String, Metric], Long) = {
    val (texts, gen) = secondsOf(Array.tabulate(n.toInt)(i => spec.sentence(i.toLong)._1))
    val data = Map("data.gen_s" -> Metric(gen, "s"), "data.rows" -> Metric(n.toDouble, "count"))
    if (!withText) return (data, 0L)
    val (parsed, parse) = secondsOf(texts.map(Pipeline.parse))
    val (_, features) = secondsOf(parsed.foreach(p => Embeddings.features(p.tokens, p.pos)))
    val text = Map(
      "text.parse_s"    -> Metric(parse, "s"),
      "text.tokens"     -> Metric(parsed.map(_.length.toLong).sum.toDouble, "count"),
      "text.features_s" -> Metric(features, "s"),
    )
    if (!withSketch) return (data ++ text, 0L)
    val (sketches, sketch) = secondsOf(parsed.map(p => SketchExtractor.patterns(p)))
    val distinct = mutable.HashSet.empty[String]
    sketches.foreach(distinct ++= _)
    (data ++ text ++ Map(
      "grammar.sketch_s"         -> Metric(sketch, "s"),
      "grammar.patterns_emitted" -> Metric(sketches.map(_.length.toLong).sum.toDouble, "count"),
    ), distinct.size.toLong)
  }

  /** `repro.index` build: the distributed build with its Spark counters,
    * the share of ``distinct`` emitted patterns it kept, and the driver-side
    * assembly.
    */
  def indexBuild(spark: SparkSession, counters: SparkCounters, spec: DatasetSpec,
                 n: Long, distinct: Long): Map[String, Metric] = {
    val corpus = CorpusGen.corpus(spark, spec, Some(n))
    val span   = new Span(spark, counters)
    val index  = HeuristicIndex.build(spark, corpus)
    val built  = span.end()
    val (_, assemble) = secondsOf(HeuristicIndex.fromEntries(index.n, index.entries))
    val counts = index.entries.valuesIterator.map(_.count.toLong).toVector
    val c = built.counters
    Map(
      "index.build_s"               -> Metric(built.wallS, "s"),
      "index.patterns_kept"         -> Metric(index.entries.size.toDouble, "count"),
      "index.kept_ratio"            -> Metric(index.entries.size.toDouble / distinct, "ratio"),
      "index.postings"              -> Metric(counts.sum.toDouble, "count"),
      "index.longest_list"          -> Metric(counts.max.toDouble, "count"),
      "index.shuffle_write_records" -> Metric(c("shuffle_write_records").toDouble, "count"),
      "index.shuffle_write_bytes"   -> Metric(c("shuffle_write_bytes").toDouble, "bytes"),
      "index.shuffle_read_bytes"    -> Metric(c("shuffle_read_bytes").toDouble, "bytes"),
      "index.spill_bytes"           -> Metric(c("spill_bytes").toDouble, "bytes"),
      "index.tasks"                 -> Metric(c("tasks").toDouble, "count"),
      "index.assemble_s"            -> Metric(assemble, "s"),
    )
  }

  /** `repro.index` navigation: mean `parents` / `children` call time over
    * every entry (second of two passes, so the first pays for warm-up).
    */
  def navigation(index: HeuristicIndex): Map[String, Metric] = {
    val keys = index.entries.keysIterator.toArray
    def meanUs(f: String => Int): Double = {
      var sink = 0
      keys.foreach(k => sink += f(k))
      val t0 = System.nanoTime()
      keys.foreach(k => sink += f(k))
      val us = (System.nanoTime() - t0) / 1e3 / keys.length
      if (sink < 0) println(sink) // keeps the calls observable
      us
    }
    Map(
      "index.parents_us"  -> Metric(meanUs(index.parents(_).length), "us"),
      "index.children_us" -> Metric(meanUs(index.children(_).length), "us"),
    )
  }

  /** The loop's retrain sequence, replayed call by call. */
  final case class Replay(
      trainS: Vector[Double], scoreS: Vector[Double],
      generateS: Vector[Double], cleanupS: Vector[Double],
      trainRows: Long, candidates: Long, kept: Long,
      faithful: Boolean,
  ) {
    def calledS: Double = trainS.sum + scoreS.sum + generateS.sum + cleanupS.sum
  }

  /** Replays what `Darwin.run` did between questions: P₀ is the seed rule's
    * coverage, and each step adds the next accepted rule's coverage, then
    * retrains with seed `cfg.seed + k`, scores the corpus, generates
    * candidates and cleans them up. The replay is faithful when its last
    * model equals the loop's model bit for bit and its P equals the loop's.
    */
  def replay(prep: PreparedCorpus, res: DarwinResult, cfg: DarwinConfig): Replay = {
    val index = prep.index
    val p     = new java.util.BitSet(prep.n)
    val train, score, gen, clean = mutable.ArrayBuffer.empty[Double]
    var rows = 0L; var cands = 0L; var kept = 0L
    var model = repro.core.Model(Array.empty, 0.0)
    for ((rule, k) <- res.rules.zipWithIndex) {
      index.ids(rule).foreach(p.set)
      val nPos = p.cardinality()
      val (m, tTrain) = secondsOf(
        Classifier.trainOnPositives(prep.features, p, prep.n, cfg.seed + k, cfg.classifier))
      model = m
      val (_, tScore) = secondsOf(Classifier.scoreAll(prep.features, m))
      val (generated, tGen) = secondsOf(CandidateGen.generate(index, p, cfg.k))
      val (cleaned, tClean) = secondsOf(CandidateGen.cleanup(index, p, generated))
      train += tTrain; score += tScore; gen += tGen; clean += tClean
      rows += nPos + math.min(prep.n - nPos,
                              math.max(8, cfg.classifier.negRatio * nPos))
      cands += generated.length; kept += cleaned.length
    }
    val faithful =
      java.util.Arrays.equals(model.w, res.model.w) &&
      java.lang.Double.doubleToRawLongBits(model.b) ==
        java.lang.Double.doubleToRawLongBits(res.model.b) &&
      p == res.positives
    Replay(train.toVector, score.toVector, gen.toVector, clean.toVector,
           rows, cands, kept, faithful)
  }

  def replayMetrics(r: Replay): Map[String, Metric] = Map(
    "classifier.retrains"      -> Metric(r.trainS.length.toDouble, "count"),
    "classifier.retrain_s"     -> Metric(r.trainS.sum, "s"),
    "classifier.retrain_p50_ms"-> Metric(Stats.median(r.trainS) * 1e3, "ms"),
    "classifier.train_rows"    -> Metric(r.trainRows.toDouble, "count"),
    "classifier.score_s"       -> Metric(r.scoreS.sum, "s"),
    "candgen.generate_s"       -> Metric(r.generateS.sum, "s"),
    "candgen.cleanup_s"        -> Metric(r.cleanupS.sum, "s"),
    "candgen.candidates"       -> Metric(r.candidates.toDouble, "count"),
    "candgen.kept_ratio"       -> Metric(r.kept.toDouble / r.candidates.max(1L), "ratio"),
  )
}
