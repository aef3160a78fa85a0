package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines.{ActiveLearning, KeywordSampling, Snuba}
import repro.core._
import repro.data.{CorpusGen, DatasetSpec, Datasets, SplitMix}
import repro.grammar.{Heuristic, Term}
import repro.weak.LabelModel

/** The paper's evaluation: one function per table/figure ([[table1]],
  * [[table2]], [[snuba]], [[coverage]], [[quality]], [[efficiency]]), each
  * owning its datasets, budget and checkpoints. The job
  * `repro.jobs.Paper <name>` prints a function's table and the bench suite
  * of the same result asserts on its rows, so the numbers in
  * EXPERIMENTS.md and the job output come from the same code.
  */
object Experiments {

  /** One experiment's typed rows and its rendered tables. */
  final case class Result[R](rows: Vector[R], table: String)

  // ---------------------------------------------------------------- corpora

  /** Spark SQL's shuffle partitions. No job shuffles; only the test
    * suites' Spark SQL references (the DuckDB cross-checks) do, on small
    * inputs.
    */
  private val ShufflePartitions = 64

  /** The local SparkSession of the jobs and the test suites. */
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  /** Sentences of `spec` at `scale`: the Table-1 size at full scale, else
    * `n·scale` but at least 2,000 (at most `spec.n`). Below 2,000 sentences
    * a seed rule can cover fewer sentences than `minCover` and drop out of
    * the index (musicians' `G:composer` does at 1,580).
    */
  def scaledSize(spec: DatasetSpec, scale: Double): Long =
    if (scale >= 1.0) spec.n
    else math.min(spec.n, math.max(2000L, (spec.n * scale).toLong))

  /** The corpora of one run at one scale; each dataset is prepared once. */
  final class Corpora(val spark: SparkSession, val scale: Double) {
    private val cache = scala.collection.mutable.Map.empty[String, PreparedCorpus]

    def sizeOf(spec: DatasetSpec): Long = scaledSize(spec, scale)

    def prepared(spec: DatasetSpec): PreparedCorpus =
      cache.getOrElseUpdate(spec.name, {
        val (p, s) = timed(PreparedCorpus.prepare(spark, spec, Some(sizeOf(spec))))
        println(f"[corpora] prepared ${spec.name} n=${p.n} positives=${p.nPos} " +
                f"index=${p.index.size} in $s%.1f s")
        p
      })
  }

  /** Runs `f` and returns its result with its wall time in seconds. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  // ---------------------------------------------------------------- Table 1

  final case class DatasetStats(name: String, sentences: Long,
                                pctPositives: Double, labeling: String)

  /** Size and positive rate of the generated corpus, counted by Spark in
    * one pass over [[CorpusGen.rows]].
    */
  def table1Row(spark: SparkSession, spec: DatasetSpec, n: Long): DatasetStats = {
    val (count, positives) = CorpusGen.rows(spark, spec, n).aggregate((0L, 0L))(
      (acc, row) => (acc._1 + 1, acc._2 + row.label),
      (a, b) => (a._1 + b._1, a._2 + b._2))
    DatasetStats(spec.name, count, 100 * (positives.toDouble / count), spec.labeling)
  }

  /** Table 1: dataset statistics of all five corpora. */
  def table1(c: Corpora): Result[DatasetStats] = {
    val rows = Datasets.all.map(spec => table1Row(c.spark, spec, c.sizeOf(spec)))
    Result(rows, section("Table 1: dataset statistics", renderTable(
      Seq("dataset", "# Sentences", "% Positives", "Labeling"),
      rows.map(r => Seq(r.name, r.sentences.toString, f"${r.pctPositives}%.1f", r.labeling)))))
  }

  // ---------------------------------------------------------------- Darwin runs

  /** Run Darwin from the dataset's seed rule with a fresh exact oracle. */
  def runDarwin(prep: PreparedCorpus, seedRule: String, budget: Int,
                strategy: Strategy, cfg: DarwinConfig = DarwinConfig()): DarwinResult = {
    val oracle = new ExactOracle(prep.gt)
    new Darwin(prep, oracle, cfg).run(seedRule, budget, strategy)
  }

  // ---------------------------------------------------------------- Table 2

  final case class Table2Row(name: String, f1Darwin: Double, f1Snorkel: Double)

  /** Darwin(HS) labels, classifier trained directly vs after de-noising by
    * the label model (Snorkel substitute). Paper Table 2.
    */
  def table2Row(prep: PreparedCorpus, seedRule: String, budget: Int = 100): Table2Row = {
    val res = runDarwin(prep, seedRule, budget, Strategy.HybridSearch())
    val f1Direct = Metrics.classifierF1(prep, res.positives).f1
    val coverages = res.rules.map(prep.index.ids)
    val denoised  = LabelModel.denoise(prep, coverages)
    val f1Snorkel = Metrics.classifierF1(prep, denoised).f1
    Table2Row(prep.name, f1Direct, f1Snorkel)
  }

  /** Table 2 on musicians (M), cause-effect (C), directions (D) and
    * food-tweets (F) at budget 100.
    */
  def table2(c: Corpora): Result[Table2Row] = {
    val rows = Vector(Datasets.musicians, Datasets.causeEffect, Datasets.directions,
                      Datasets.tweets).map(spec => table2Row(c.prepared(spec), spec.seedRule))
    Result(rows, section("Table 2: Darwin vs Darwin+Snorkel (paper: M 0.91/0.82, " +
                         "C 0.79/0.78, D 0.89/0.97, F 0.87/0.87)", renderTable(
      Seq("dataset", "Darwin", "Darwin+Snorkel"),
      rows.map(r => Seq(r.name, f"${r.f1Darwin}%.2f", f"${r.f1Snorkel}%.2f")))))
  }

  // ---------------------------------------------------------------- Fig 7/8 (Snuba)

  /** Sample a labeled seed subset of the corpus. ``excludeToken`` removes
    * sentences containing the token (Fig. 8's biased seed). At least two
    * positives are guaranteed (the paper's standing assumption that the
    * seed yields a couple of positive instances).
    */
  def sampleSeed(prep: PreparedCorpus, size: Int, seed: Long,
                 excludeToken: Option[String] = None): Array[(Int, Int)] = {
    val excluded = prep.index.cover(excludeToken.map(w => Heuristic.TermPat(Term.Tok(w)).repr))
    val rng  = new SplitMix(seed)
    val pick = scala.collection.mutable.LinkedHashMap.empty[Int, Int]
    var tries = 0
    while (pick.size < size && tries < 100 * size + 1000) {
      val i = rng.nextInt(prep.n)
      if (!excluded.get(i) && !pick.contains(i)) pick(i) = if (prep.gt.get(i)) 1 else 0
      tries += 1
    }
    // guarantee >= 2 positive instances
    var nPos = pick.valuesIterator.count(_ == 1)
    tries = 0
    while (nPos < 2 && tries < 100000) {
      val i = prep.positiveIds(rng.nextInt(prep.positiveIds.length))
      if (!excluded.get(i) && !pick.contains(i)) { pick(i) = 1; nPos += 1 }
      tries += 1
    }
    pick.toArray
  }

  final case class SeedSweepRow(seedSize: Int, darwinRecall: Double, snubaRecall: Double)

  /** Seed of [[snubaComparison]]'s samples; a seed size s samples with
    * seed ``SweepSeed + s``.
    */
  private val SweepSeed = 101L

  /** Fig. 7/8: fraction of positives identified vs labeled-seed size, for
    * Darwin(HS) (budget oracle queries) and Snuba (no oracle).
    */
  def snubaComparison(prep: PreparedCorpus, seedSizes: Seq[Int], budget: Int,
                      biased: Boolean): Vector[SeedSweepRow] = {
    val exclude = if (biased) {
      require(prep.positiveIds.nonEmpty)
      Datasets.byName(prep.name).biasToken
    } else None
    seedSizes.toVector.map { size =>
      val labeled = sampleSeed(prep, size, SweepSeed + size, exclude)
      val seedPos = labeled.collect { case (i, 1) => i }
      val oracle  = new ExactOracle(prep.gt)
      val dRes    = new Darwin(prep, oracle).runFromPositives(seedPos, budget, Strategy.HybridSearch())
      val sRes    = Snuba.run(prep, labeled)
      SeedSweepRow(size, prep.recall(dRes.positives), prep.recall(sRes.positives))
    }
  }

  final case class SeedSweep(dataset: String, biased: Boolean, rows: Vector[SeedSweepRow])

  /** Fig. 7/8 on directions and musicians, random and biased seeds (the
    * biased seed has no 'shuttle' / 'composer' sentence), Darwin budget 100.
    */
  def snuba(c: Corpora): Result[SeedSweep] = {
    val sweeps = for (spec <- Vector(Datasets.directions, Datasets.musicians);
                      biased <- Vector(false, true))
      yield SeedSweep(spec.name, biased, snubaComparison(
        c.prepared(spec), Seq(10, 25, 100, 200, 1000), budget = 100, biased = biased))
    Result(sweeps, sweeps.map { s =>
      section(s"Fig ${if (s.biased) 8 else 7} (${s.dataset}, " +
              s"${if (s.biased) "biased" else "random"} seed): fraction of positives identified",
        renderTable(Seq("seed size", "Darwin(HS)", "Snuba"),
          s.rows.map(r => Seq(r.seedSize.toString, f"${r.darwinRecall}%.2f",
                              f"${r.snubaRecall}%.2f"))))
    }.mkString("\n"))
  }

  // ---------------------------------------------------------------- Fig 9 (coverage + F1)

  final case class StrategyRun(strategy: String, finalRecall: Double,
                               curve: Vector[(Int, Double)], f1: Double,
                               rules: Int)

  def strategySweep(prep: PreparedCorpus, seedRule: String, budget: Int,
                    strategies: Seq[Strategy] = Seq(
                      Strategy.LocalSearch, Strategy.UniversalSearch,
                      Strategy.HybridSearch(), Strategy.HighP)): Vector[StrategyRun] = {
    val seedRecall = prep.recall(prep.index.cover(Seq(seedRule)))
    strategies.toVector.map { st =>
      val res = runDarwin(prep, seedRule, budget, st)
      StrategyRun(st.label, prep.recall(res.positives),
                  res.recallCurve(seedRecall),
                  Metrics.classifierF1(prep, res.positives).f1,
                  res.rules.length)
    }
  }

  /** Fig. 9 (a–d): coverage after b queries of LS, US, HS and HighP at
    * budget 150, on cause-effect, musicians, directions and tweets.
    */
  def coverage(c: Corpora): Result[(String, Vector[StrategyRun])] = {
    val checkpoints = Seq(0, 25, 50, 100, 150)
    def at(curve: Vector[(Int, Double)], q: Int): Double =
      curve.filter(_._1 <= q).lastOption.map(_._2).getOrElse(0.0)
    val rows = Vector(Datasets.causeEffect, Datasets.musicians, Datasets.directions,
                      Datasets.tweets)
      .map(spec => spec.name -> strategySweep(c.prepared(spec), spec.seedRule, budget = 150))
    Result(rows, rows.map { case (name, runs) =>
      section(s"Fig 9 coverage ($name)", renderTable(
        "strategy" +: checkpoints.map(q => s"b=$q"),
        runs.map(r => r.strategy +: checkpoints.map(q => f"${at(r.curve, q)}%.2f"))))
    }.mkString("\n"))
  }

  final case class QualityRow(method: String, f1: Double)

  /** Fig. 9 (e–h): classifier F-score of Darwin pipelines vs AL / KS /
    * HighP at the same query budget.
    */
  def classifierQuality(prep: PreparedCorpus, spec: DatasetSpec,
                        budget: Int): Vector[QualityRow] = {
    val darwinRows = strategySweep(prep, spec.seedRule, budget,
      Seq(Strategy.HybridSearch(), Strategy.UniversalSearch,
          Strategy.LocalSearch, Strategy.HighP))
      .map(r => QualityRow(s"Darwin(${r.strategy})", r.f1))
    val seedPos = prep.index.ids(spec.seedRule)
      .filter(prep.gt.get).take(2)
    val al = ActiveLearning.run(prep, seedPos, budget)
    val ks = KeywordSampling.run(prep, spec.keywords, budget)
    darwinRows :+
      QualityRow("AL", Metrics.ofModel(prep, al.model).f1) :+
      QualityRow("KS", Metrics.ofModel(prep, ks.model).f1)
  }

  /** Fig. 9 (e–h) at budget 100 on cause-effect, musicians, directions,
    * tweets and professions.
    */
  def quality(c: Corpora): Result[(String, Vector[QualityRow])] = {
    val rows = Vector(Datasets.causeEffect, Datasets.musicians, Datasets.directions,
                      Datasets.tweets, Datasets.professions)
      .map(spec => spec.name -> classifierQuality(c.prepared(spec), spec, budget = 100))
    Result(rows, section("Fig 9 F-score at budget 100", renderTable(
      "dataset" +: rows.head._2.map(_.method),
      rows.map { case (name, q) => name +: q.map(r => f"${r.f1}%.2f") })))
  }

  // ---------------------------------------------------------------- §4.5

  final case class EfficiencyRun(prepareS: Double, loopS: Double, labelS: Double,
                                 trainS: Double, recall: Double, weakPositives: Long,
                                 f1: Double, rules: Vector[String]) {
    def totalS: Double = prepareS + loopS + labelS + trainS
  }

  /** §4.5: label collection end to end over professions (1M sentences at
    * full scale). Each phase is timed: a fresh `PreparedCorpus.prepare`
    * (generation, parsing, sketches, index, features), the Darwin(HS) loop
    * at budget 100, the weak labels, and the final classifier. Discovered
    * rules are indexed and the index holds every sentence a rule matches,
    * so the weak-labeled positives are ∪ C_r read from the index's
    * postings; `RuleApply` gives the same count by matching the corpus text.
    */
  def efficiency(c: Corpora): Result[EfficiencyRun] = {
    val spec = Datasets.professions
    val n    = c.sizeOf(spec)
    val (prep, tPrep) = timed(PreparedCorpus.prepare(c.spark, spec, Some(n)))
    val (res, tLoop)  = timed(runDarwin(prep, spec.seedRule, budget = 100, Strategy.HybridSearch()))
    val (nWeak, tLabel) = timed(prep.index.cover(res.rules).cardinality().toLong)
    val (f1, tTrain) = timed(Metrics.classifierF1(prep, res.positives).f1)
    val run = EfficiencyRun(tPrep, tLoop, tLabel, tTrain, prep.recall(res.positives), nWeak, f1,
                            res.rules)
    Result(Vector(run), section(s"Sec. 4.5 efficiency (professions, n=$n)", renderTable(
      Seq("phase", "s"),
      Seq(Seq("prepare (generate+parse+index+features)", f"$tPrep%.1f"),
          Seq("Darwin(HS) loop, budget 100", f"$tLoop%.1f"),
          Seq("weak labels from the index postings", f"$tLabel%.1f"),
          Seq("final classifier + corpus scoring", f"$tTrain%.1f"),
          Seq("total", f"${run.totalS}%.1f")))) +
      s"\nindex ${prep.index.stats.summary}" +
      f"\nrules=${res.rules.size} queries=${res.queries} recall=${run.recall}%.3f " +
      f"precisionOfP=${prep.precisionOf(res.positives)}%.3f weakPositives=$nWeak " +
      f"classifierF1=$f1%.3f")
  }

  // ---------------------------------------------------------------- rendering

  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(widths.map("-" * _)) +: rows.map(line)).mkString("\n")
  }

  private def section(title: String, table: String): String = s"\n=== $title ===\n$table"
}
