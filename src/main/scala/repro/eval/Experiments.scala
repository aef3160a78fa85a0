package repro.eval

import repro.baselines.{ActiveLearning, KeywordSampling, Snuba}
import repro.core._
import repro.data.{DatasetSpec, Datasets, SplitMix}
import repro.weak.LabelModel

/** Shared experiment harness: every paper table/claim is produced here and
  * rendered by both the spark-submit jobs (jobs/) and the bench suites
  * (bench/). Keeping the logic in one place guarantees the bench numbers
  * in EXPERIMENTS.md and the job output agree.
  */
object Experiments {

  // ---------------------------------------------------------------- Table 1

  final case class DatasetStats(name: String, sentences: Long,
                                pctPositives: Double, labeling: String)

  def table1Row(prep: PreparedCorpus, spec: DatasetSpec): DatasetStats =
    DatasetStats(spec.name, prep.n.toLong, 100.0 * prep.nPos / prep.n, spec.labeling)

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
  def table2Row(prep: PreparedCorpus, seedRule: String, budget: Int = 100,
                cfg: DarwinConfig = DarwinConfig()): Table2Row = {
    val res = runDarwin(prep, seedRule, budget, Strategy.HybridSearch(), cfg)
    val f1Direct = Metrics.classifierF1(prep, res.positives).f1
    val coverages = res.rules.map(prep.index.ids)
    val denoised  = LabelModel.denoise(prep, coverages)
    val f1Snorkel = Metrics.classifierF1(prep, denoised).f1
    Table2Row(prep.name, f1Direct, f1Snorkel)
  }

  // ---------------------------------------------------------------- Fig 7/8 (Snuba)

  /** Sample a labeled seed subset of the corpus. ``excludeToken`` removes
    * sentences containing the token (Fig. 8's biased seed). At least two
    * positives are guaranteed (the paper's standing assumption that the
    * seed yields a couple of positive instances).
    */
  def sampleSeed(prep: PreparedCorpus, size: Int, seed: Long,
                 excludeToken: Option[String] = None): Array[(Int, Int)] = {
    val excluded: Int => Boolean = excludeToken match {
      case Some(w) =>
        val bs = new java.util.BitSet(prep.n)
        prep.index.ids(s"T:t=$w").foreach(bs.set)
        bs.get _
      case None => _ => false
    }
    val rng  = new SplitMix(seed)
    val pick = scala.collection.mutable.LinkedHashMap.empty[Int, Int]
    var tries = 0
    while (pick.size < size && tries < 100 * size + 1000) {
      val i = rng.nextInt(prep.n)
      if (!excluded(i) && !pick.contains(i)) pick(i) = if (prep.gt.get(i)) 1 else 0
      tries += 1
    }
    // guarantee >= 2 positive instances
    var nPos = pick.valuesIterator.count(_ == 1)
    tries = 0
    while (nPos < 2 && tries < 100000) {
      val i = prep.positiveIds(rng.nextInt(prep.positiveIds.length))
      if (!excluded(i) && !pick.contains(i)) { pick(i) = 1; nPos += 1 }
      tries += 1
    }
    pick.toArray
  }

  final case class SeedSweepRow(seedSize: Int, darwinRecall: Double, snubaRecall: Double)

  /** Fig. 7/8: fraction of positives identified vs labeled-seed size, for
    * Darwin(HS) (budget oracle queries) and Snuba (no oracle).
    */
  def snubaComparison(prep: PreparedCorpus, seedSizes: Seq[Int], budget: Int,
                      biased: Boolean, seed: Long = 101,
                      cfg: DarwinConfig = DarwinConfig()): Vector[SeedSweepRow] = {
    val exclude = if (biased) {
      require(prep.positiveIds.nonEmpty)
      Datasets.all.find(_.name == prep.name).flatMap(_.biasToken)
    } else None
    seedSizes.toVector.map { size =>
      val labeled = sampleSeed(prep, size, seed + size, exclude)
      val seedPos = labeled.collect { case (i, 1) => i }
      val oracle  = new ExactOracle(prep.gt)
      val dRes    = new Darwin(prep, oracle, cfg).runFromPositives(seedPos, budget, Strategy.HybridSearch())
      val sRes    = Snuba.run(prep, labeled)
      SeedSweepRow(size, prep.recall(dRes.positives), prep.recall(sRes.positives))
    }
  }

  // ---------------------------------------------------------------- Fig 9 (coverage + F1)

  final case class StrategyRun(strategy: String, finalRecall: Double,
                               curve: Vector[(Int, Double)], f1: Double,
                               rules: Int)

  def strategySweep(prep: PreparedCorpus, seedRule: String, budget: Int,
                    strategies: Seq[Strategy] = Seq(
                      Strategy.LocalSearch, Strategy.UniversalSearch,
                      Strategy.HybridSearch(), Strategy.HighP),
                    cfg: DarwinConfig = DarwinConfig()): Vector[StrategyRun] =
    strategies.toVector.map { st =>
      val res = runDarwin(prep, seedRule, budget, st, cfg)
      val seedRecall = {
        val bs = new java.util.BitSet(prep.n)
        prep.index.ids(seedRule).foreach(bs.set)
        prep.recall(bs)
      }
      StrategyRun(st.label, prep.recall(res.positives),
                  res.recallCurve(seedRecall),
                  Metrics.classifierF1(prep, res.positives).f1,
                  res.rules.length)
    }

  final case class QualityRow(method: String, f1: Double)

  /** Fig. 9 (e–h): classifier F-score of Darwin pipelines vs AL / KS /
    * HighP at the same query budget.
    */
  def classifierQuality(prep: PreparedCorpus, spec: DatasetSpec, budget: Int,
                        cfg: DarwinConfig = DarwinConfig()): Vector[QualityRow] = {
    val darwinRows = strategySweep(prep, spec.seedRule, budget,
      Seq(Strategy.HybridSearch(), Strategy.UniversalSearch,
          Strategy.LocalSearch, Strategy.HighP), cfg)
      .map(r => QualityRow(s"Darwin(${r.strategy})", r.f1))
    val seedPos = prep.index.ids(spec.seedRule)
      .filter(prep.gt.get).take(2)
    val al = ActiveLearning.run(prep, seedPos, budget)
    val ks = KeywordSampling.run(prep, spec.keywords, budget)
    darwinRows :+
      QualityRow("AL", Metrics.ofModel(prep, al.model).f1) :+
      QualityRow("KS", Metrics.ofModel(prep, ks.model).f1)
  }

  // ---------------------------------------------------------------- rendering

  def fmtPct(x: Double): String = f"${100 * x}%.1f%%"

  def renderTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(widths.map("-" * _)) +: rows.map(line)).mkString("\n")
  }
}
