package repro.bench

import repro.SparkSpec
import repro.eval.Experiments.Corpora
import repro.jobs.Paper

/** The corpora of one bench run, shared by all suites so that each dataset
  * is prepared once. The benches run the paper's evaluation at the paper's
  * dataset sizes (Table 1); ``BENCH_SCALE`` (default 1.0) shrinks every
  * dataset for smoke runs, exactly as the job's `--scale` does.
  */
object BenchCorpora {
  lazy val corpora: Corpora =
    new Corpora(SparkSpec.shared, Paper.scale(sys.env.getOrElse("BENCH_SCALE", "1.0")))
}
