package repro.jobs

import repro.core.{Darwin, ExactOracle, PreparedCorpus, Strategy}
import repro.data.Datasets
import repro.eval.Metrics
import repro.weak.RuleApply

/** §4.5 efficiency — end-to-end label collection over the 1M-sentence
  * professions corpus: distributed index construction, the Darwin(HS)
  * discovery loop, and distributed rule application producing weak labels.
  * The paper's reference points: index build < 5 min, full labeling of a
  * 1M corpus < 3 h.
  *
  * spark-submit --class repro.jobs.Efficiency repro.jar [--scale s]
  */
object Efficiency {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("efficiency-1m")
    val scale = JobSession.scaleOf(args)
    val spec  = Datasets.professions

    def timed[A](what: String)(f: => A): A = {
      val t0 = System.nanoTime()
      val r  = f
      println(f"[efficiency] $what: ${(System.nanoTime() - t0) / 1e9}%.1f s")
      r
    }

    val prep = timed("corpus generation + parsing + index build (Spark)") {
      PreparedCorpus.prepare(spark, spec, JobSession.scaled(spec.n, scale))
    }
    println(s"[efficiency] corpus=${prep.n} positives=${prep.nPos} " +
            s"index ${prep.index.stats.summary}")

    val res = timed("Darwin(HS) discovery loop, budget 100") {
      val oracle = new ExactOracle(prep.gt)
      new Darwin(prep, oracle).run(spec.seedRule, budget = 100, Strategy.HybridSearch())
    }
    println(f"[efficiency] rules=${res.rules.size} queries=${res.queries} " +
            f"recall=${prep.recall(res.positives)}%.3f " +
            f"precisionOfP=${prep.precisionOf(res.positives)}%.3f")

    val nWeak = timed("distributed rule application (weak labels over corpus)") {
      val corpus = repro.data.CorpusGen.corpus(spark, spec, JobSession.scaled(spec.n, scale))
      RuleApply.weakLabels(spark, corpus, res.rules)
        .filter(org.apache.spark.sql.functions.col("weakLabel") === 1).count()
    }
    println(s"[efficiency] weak-labeled positives=$nWeak")

    val f1 = timed("final classifier training + corpus scoring") {
      Metrics.classifierF1(prep, res.positives).f1
    }
    println(f"[efficiency] classifier F1=$f1%.3f")
    spark.stop()
  }
}
