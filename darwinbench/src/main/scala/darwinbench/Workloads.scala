package darwinbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.{CorpusGen, DatasetSpec, Datasets}
import repro.eval.Metrics
import repro.index.HeuristicIndex
import repro.weak.{LabelModel, RuleApply}
import scala.util.hashing.MurmurHash3

/** One workload: an untimed set-up that also runs the op once to warm its
  * code paths, the timed op, the checks on the op's output, and the
  * workload's end-to-end and per-layer readings.
  */
trait Workload {
  def setup(): Unit
  /** Runs the op once; the returned thunk checks the output afterwards,
    * outside the timed interval, while the output is still reachable.
    */
  def op(): () => Seq[String]
  /** After the timed ops: `recall` and `final_f1`, and the failures of
    * checks that run once per run (counted against the last op).
    */
  def finish(): (Map[String, Metric], Seq[String])
  /** The traced op and the per-layer probes. */
  def traced(counters: SparkCounters): Map[String, Metric]
}

object Workloads {
  val DefaultSeed = 1L
  /** Sentences of the professions corpus (Table-1 spec, resized). */
  val ProfessionsN = 30000L
  val Budget = 100

  val names: Vector[String] =
    Vector("prepare-professions", "discover-hard", "label-professions")

  /** The workload seed reseeds the corpus through the spec's name salt. */
  def professions(seed: Long): DatasetSpec =
    Datasets.professions.copy(name = s"professions-$seed")
  def hard(seed: Long): DatasetSpec =
    HardSpec.spec.copy(name = s"${HardSpec.spec.name}-$seed")

  def apply(name: String, spark: SparkSession, seed: Long): Workload = name match {
    case "prepare-professions" => new PrepareProfessions(spark, seed)
    case "discover-hard"       => new DiscoverHard(spark, seed)
    case "label-professions"   => new LabelProfessions(spark, seed)
  }

  /** Order-independent digest of every (pattern, ids) entry of an index. */
  def digest(prep: PreparedCorpus): Long =
    prep.index.entries.valuesIterator.map { e =>
      val h = (MurmurHash3.stringHash(e.pattern).toLong << 32) ^
              (MurmurHash3.arrayHash(e.ids) & 0xFFFFFFFFL)
      var z = h + 0x9E3779B97F4A7C15L
      z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
      z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
      z ^ (z >>> 31)
    }.sum

  /** An HS session from a seed rule, with every question time-stamped. */
  final case class Session(result: DarwinResult, oracle: TimingOracle, startNs: Long) {
    def waitsMs: Vector[Double] = oracle.waitsMs(startNs)
  }

  def discover(prep: PreparedCorpus, seedRule: String, cfg: DarwinConfig): Session = {
    val oracle = new TimingOracle(new ExactOracle(prep.gt))
    val t0     = System.nanoTime()
    val res    = new Darwin(prep, oracle, cfg).run(seedRule, Budget, Strategy.HybridSearch())
    Session(res, oracle, t0)
  }

  /** The labeling tail: de-noise the rules' votes, train the final
    * classifier on them, and score it against the ground truth.
    */
  def finalF1(prep: PreparedCorpus, rules: Seq[String]): Double =
    Metrics.classifierF1(prep, LabelModel.denoise(prep, rules.map(prep.index.ids).toVector)).f1

  def sessionQuality(prep: PreparedCorpus, positives: java.util.BitSet,
                     f1: Double): Map[String, Metric] = Map(
    "recall"   -> Metric(prep.recall(positives), "ratio"),
    "final_f1" -> Metric(f1, "ratio"),
  )

  def opSpanMetrics(s: SpanResult): Map[String, Metric] = Map(
    "trace.op_s"              -> Metric(s.wallS, "s"),
    "jvm.gc_ms"               -> Metric(s.gcMs, "ms"),
    "jvm.driver_cpu_s"        -> Metric(s.cpuS, "s"),
    "spark.jobs"              -> Metric(s.counters("jobs").toDouble, "count"),
    "spark.tasks"             -> Metric(s.counters("tasks").toDouble, "count"),
    "spark.shuffle_write_bytes" -> Metric(s.counters("shuffle_write_bytes").toDouble, "bytes"),
    "spark.spill_bytes"       -> Metric(s.counters("spill_bytes").toDouble, "bytes"),
  )

  def loopMetrics(s: Session, replay: Layers.Replay, opS: Double,
                  cpuS: Double): Map[String, Metric] = {
    val questions = s.oracle.queries
    val accepts   = s.result.rules.length - 1
    def medianOr0(xs: Vector[Double]) = if (xs.isEmpty) 0.0 else Stats.median(xs)
    Map(
      "loop.questions"        -> Metric(questions.toDouble, "count"),
      "loop.accepts"          -> Metric(accepts.toDouble, "count"),
      "loop.accept_ratio"     -> Metric(accepts.toDouble / questions.max(1), "ratio"),
      "loop.first_question_ms"-> Metric(s.waitsMs.headOption.getOrElse(0.0), "ms"),
      "loop.question_p90_ms"  -> Metric(Stats.percentile(s.waitsMs, 0.9), "ms"),
      "loop.wait_after_yes_ms"-> Metric(medianOr0(s.oracle.waitsAfterMs(true)), "ms"),
      "loop.wait_after_no_ms" -> Metric(medianOr0(s.oracle.waitsAfterMs(false)), "ms"),
      "loop.residual_s"       -> Metric(opS - replay.calledS, "s"),
      "loop.driver_cpu_s"     -> Metric(cpuS, "s"),
    )
  }
}

import Workloads._

/** Phase one of §4.5: build the index and features of the professions
  * corpus. The op is `PreparedCorpus.prepare`.
  */
final class PrepareProfessions(spark: SparkSession, seed: Long) extends Workload {
  private val spec = professions(seed)
  private val cfg  = DarwinConfig(seed = seed)
  private var firstDigest: Option[Long] = None
  private var last: PreparedCorpus = _

  private def prepare(): PreparedCorpus =
    PreparedCorpus.prepare(spark, spec, Some(ProfessionsN))

  def setup(): Unit = {
    last = prepare()
    finalF1(last, discover(last, spec.seedRule, cfg).result.rules)
  }

  def op(): () => Seq[String] = {
    last = null
    val prep = prepare()
    last = prep
    () => {
      val d = digest(prep)
      if (firstDigest.isEmpty) firstDigest = Some(d)
      val pinned =
        if (seed != DefaultSeed) Nil
        else Seq(
          Option.when(d != Pinned.ProfessionsDigest)(s"digest $d != pinned ${Pinned.ProfessionsDigest}"),
          Option.when(prep.index.entries.size != Pinned.ProfessionsEntries)(
            s"entries ${prep.index.entries.size} != pinned ${Pinned.ProfessionsEntries}"),
          Option.when(prep.nPos != Pinned.ProfessionsPositives)(
            s"nPos ${prep.nPos} != pinned ${Pinned.ProfessionsPositives}"),
        ).flatten
      val minCover = HeuristicIndex.defaultMinCover(prep.n)
      val badEntry = prep.index.entries.valuesIterator.exists(e =>
        e.count != e.ids.length || e.count < minCover || e.count > 0.2 * prep.n)
      pinned ++ Seq(
        Option.when(firstDigest.get != d)("index differs from the first op's"),
        Option.when(prep.n != ProfessionsN)(s"n ${prep.n}"),
        Option.when(!prep.index.contains(spec.seedRule))("seed rule not indexed"),
        Option.when(badEntry)("an entry's count disagrees with its ids or bounds"),
      ).flatten
    }
  }

  def finish(): (Map[String, Metric], Seq[String]) = {
    val s = discover(last, spec.seedRule, cfg)
    (sessionQuality(last, s.result.positives, finalF1(last, s.result.rules)), Nil)
  }

  def traced(counters: SparkCounters): Map[String, Metric] = {
    val span  = new Span(spark, counters)
    val check = op()
    val s     = span.end()
    val failures = check()
    require(failures.isEmpty, failures.mkString("; "))
    val (corpus, distinct) =
      Layers.corpusLayers(spec, ProfessionsN, withText = true, withSketch = true)
    opSpanMetrics(s) ++ corpus ++
      Layers.indexBuild(spark, counters, spec, ProfessionsN, distinct) ++
      Layers.navigation(last.index)
  }
}

/** The annotator loop on a corpus that keeps it busy for all 100
  * questions. The op is one `Darwin.run` with `HybridSearch()`.
  */
final class DiscoverHard(spark: SparkSession, seed: Long) extends Workload {
  private val spec = hard(seed)
  private val cfg  = DarwinConfig(seed = seed)
  private var prep: PreparedCorpus = _
  private var first: Session = _
  private var last: Session = _

  def setup(): Unit = {
    prep  = PreparedCorpus.prepare(spark, spec)
    first = discover(prep, spec.seedRule, cfg)
    finalF1(prep, first.result.rules)
  }

  def op(): () => Seq[String] = {
    last = null
    val s = discover(prep, spec.seedRule, cfg)
    last = s
    () => {
      val q = s.oracle.queries
      val accepts = s.result.rules.length - 1
      val recall = prep.recall(s.result.positives)
      Main.log(f"session: $q questions, $accepts accepted, recall $recall%.3f")
      val pinned =
        if (seed != DefaultSeed) Nil
        else Seq(
          Option.when(q != Budget)(s"asked $q questions, not $Budget"),
          Option.when(accepts < Pinned.HardMinAccepts)(s"accepted $accepts rules"),
        ).flatten
      pinned ++ Seq(
        Option.when(q > Budget)(s"asked $q questions, budget $Budget"),
        Option.when(recall <= Pinned.HardRecallFloor)(s"recall $recall"),
        Option.when(s.result.rules != first.result.rules)("rules differ from the set-up run"),
        Option.when(!(s.result.model.w sameElements first.result.model.w))(
          "model differs from the set-up run"),
      ).flatten
    }
  }

  def finish(): (Map[String, Metric], Seq[String]) = {
    val replay = Layers.replay(prep, last.result, cfg)
    (sessionQuality(prep, last.result.positives, finalF1(prep, last.result.rules)),
     Option.when(!replay.faithful)("replay is not faithful").toSeq)
  }

  def traced(counters: SparkCounters): Map[String, Metric] = {
    val span  = new Span(spark, counters)
    val check = op()
    val s     = span.end()
    val failures = check()
    require(failures.isEmpty, failures.mkString("; "))
    val replay = Layers.replay(prep, last.result, cfg)
    require(replay.faithful, "replay is not faithful")
    opSpanMetrics(s) ++
      Layers.corpusLayers(spec, spec.n, withText = false, withSketch = false)._1 ++
      Layers.navigation(prep.index) ++
      Layers.replayMetrics(replay) ++
      loopMetrics(last, replay, s.wallS, s.cpuS)
  }
}

/** Phase three of §4.5: label the professions corpus with the rules HS
  * found. The op applies the rules over the corpus through Spark, de-noises
  * their votes and trains and scores the final classifier.
  */
final class LabelProfessions(spark: SparkSession, seed: Long) extends Workload {
  private val spec = professions(seed)
  private val cfg  = DarwinConfig(seed = seed)
  private var prep: PreparedCorpus = _
  private var session: Session = _
  private def rules = session.result.rules
  private var unionSize = 0
  private var firstF1: Option[Double] = None
  private var lastF1 = 0.0

  private def apply(rules: Seq[String]): Long =
    RuleApply.weakLabels(spark, CorpusGen.corpus(spark, spec, Some(ProfessionsN)), rules)
      .filter(col("weakLabel") === 1).count()

  def setup(): Unit = {
    prep = PreparedCorpus.prepare(spark, spec, Some(ProfessionsN))
    session = discover(prep, spec.seedRule, cfg)
    val union = new java.util.BitSet(prep.n)
    rules.foreach(r => prep.index.ids(r).foreach(union.set))
    unionSize = union.cardinality()
    op()
  }

  def op(): () => Seq[String] = {
    val weak  = apply(rules)
    val f1    = finalF1(prep, rules)
    lastF1 = f1
    () => {
      if (firstF1.isEmpty) firstF1 = Some(f1)
      Seq(
        Option.when(weak != unionSize)(s"weak positives $weak != |∪ ids(r)| $unionSize"),
        Option.when(firstF1.get != f1)(s"F1 $f1 differs from the first op's ${firstF1.get}"),
        Option.when(!(f1 > 0.0))(s"F1 $f1"),
      ).flatten
    }
  }

  def finish(): (Map[String, Metric], Seq[String]) =
    (sessionQuality(prep, session.result.positives, lastF1), Nil)

  def traced(counters: SparkCounters): Map[String, Metric] = {
    val span  = new Span(spark, counters)
    val t0    = System.nanoTime()
    val weak  = apply(rules)
    val t1    = System.nanoTime()
    val denoised = LabelModel.denoise(prep, rules.map(prep.index.ids).toVector)
    val t2    = System.nanoTime()
    val model = Classifier.trainOnPositives(prep.features, denoised, prep.n, 17,
                                            Metrics.FinalClassifier)
    val t3    = System.nanoTime()
    val f1    = Metrics.ofModel(prep, model).f1
    val t4    = System.nanoTime()
    val s     = span.end()
    require(weak == unionSize && f1 > 0.0, s"traced op: weak $weak vs $unionSize, F1 $f1")
    val applyS = (t1 - t0) / 1e9
    // The set-up's HS session, run again under a span: the loop layers'
    // numbers on the professions corpus.
    val loopSpan = new Span(spark, counters)
    val loop     = discover(prep, spec.seedRule, cfg)
    val loopS    = loopSpan.end()
    val replay   = Layers.replay(prep, loop.result, cfg)
    require(replay.faithful, "replay is not faithful")
    opSpanMetrics(s) ++ Layers.replayMetrics(replay) ++
      loopMetrics(loop, replay, loopS.wallS, loopS.cpuS) ++
      Layers.corpusLayers(spec, ProfessionsN, withText = true, withSketch = false)._1 ++
      Layers.navigation(prep.index) ++
      Map(
        "weak.apply_s"               -> Metric(applyS, "s"),
        "weak.apply_sentences_per_s" -> Metric(ProfessionsN / applyS, "1/s"),
        "weak.positives"             -> Metric(weak.toDouble, "count"),
        "weak.denoise_s"             -> Metric((t2 - t1) / 1e9, "s"),
        "eval.final_train_s"         -> Metric((t3 - t2) / 1e9, "s"),
        "eval.final_score_s"         -> Metric((t4 - t3) / 1e9, "s"),
      )
  }
}

/** Values pinned for the default seed. */
object Pinned {
  val ProfessionsDigest    = -5806480494849402416L
  val ProfessionsEntries   = 4591
  val ProfessionsPositives = 309
  val HardMinAccepts       = 20
  val HardRecallFloor      = 0.5
}
