package darwinbench

import org.apache.spark.sql.SparkSession

/** Runs one workload and prints its result as the last line of stdout:
  * `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
  *
  * With `--trace 0` the metrics are the end-to-end ones: the op is run
  * back to back for `--seconds` seconds, each run timed and checked. With
  * `--trace 1` the op runs once under a Spark listener and the per-layer
  * probes follow; a layer the workload does not exercise reads 0.
  */
object Main {

  /** Spark runs in local mode with at most this many task threads. */
  val MaxCores = 4
  val ShufflePartitions = 8

  val perLayer: Vector[(String, String)] = Vector(
    "data.gen_s" -> "s", "data.rows" -> "count",
    "text.parse_s" -> "s", "text.tokens" -> "count", "text.features_s" -> "s",
    "grammar.sketch_s" -> "s", "grammar.patterns_emitted" -> "count",
    "index.build_s" -> "s", "index.patterns_kept" -> "count",
    "index.kept_ratio" -> "ratio", "index.postings" -> "count",
    "index.longest_list" -> "count", "index.shuffle_write_records" -> "count",
    "index.shuffle_write_bytes" -> "bytes", "index.shuffle_read_bytes" -> "bytes",
    "index.spill_bytes" -> "bytes", "index.tasks" -> "count", "index.assemble_s" -> "s",
    "index.parents_us" -> "us", "index.children_us" -> "us",
    "classifier.retrains" -> "count", "classifier.retrain_s" -> "s",
    "classifier.retrain_p50_ms" -> "ms", "classifier.train_rows" -> "count",
    "classifier.score_s" -> "s",
    "candgen.generate_s" -> "s", "candgen.cleanup_s" -> "s",
    "candgen.candidates" -> "count", "candgen.kept_ratio" -> "ratio",
    "loop.questions" -> "count", "loop.accepts" -> "count", "loop.accept_ratio" -> "ratio",
    "loop.first_question_ms" -> "ms", "loop.question_p90_ms" -> "ms",
    "loop.wait_after_yes_ms" -> "ms",
    "loop.wait_after_no_ms" -> "ms", "loop.residual_s" -> "s", "loop.driver_cpu_s" -> "s",
    "weak.apply_s" -> "s", "weak.apply_sentences_per_s" -> "1/s",
    "weak.positives" -> "count", "weak.denoise_s" -> "s",
    "eval.final_train_s" -> "s", "eval.final_score_s" -> "s",
    "trace.op_s" -> "s", "jvm.gc_ms" -> "ms", "jvm.driver_cpu_s" -> "s",
    "spark.jobs" -> "count", "spark.tasks" -> "count",
    "spark.shuffle_write_bytes" -> "bytes", "spark.spill_bytes" -> "bytes",
  )

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      w  <- get("workload").filterOrElse(Workloads.names.contains, s"unknown workload; one of ${Workloads.names.mkString(", ")}")
      sd <- get("seed").flatMap(_.toLongOption.toRight("--seed must be an integer"))
      sc <- get("seconds").flatMap(_.toIntOption.filter(_ > 0).toRight("--seconds must be a positive integer"))
      tr <- get("trace").filterOrElse(Set("0", "1"), "--trace must be 0 or 1")
      _  <- Either.cond(argv.length == 2 * kv.size, (), "arguments come in --key value pairs")
    } yield Args(w, sd, sc, tr == "1")
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val args = parseArgs(argv) match {
      case Right(a) => a
      case Left(err) =>
        System.err.println(s"darwinbench: $err")
        System.err.println("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"darwinbench-${args.workload}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    val code =
      try { println(run(spark, args, t0)); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  def run(spark: SparkSession, args: Args, t0: Long): String = {
    val counters = new SparkCounters
    if (args.trace) spark.sparkContext.addSparkListener(counters)
    val wl = Workloads(args.workload, spark, args.seed)
    wl.setup()
    val setupS = (System.nanoTime() - t0) / 1e9
    log(f"${args.workload} seed ${args.seed}: set-up $setupS%.2f s")

    if (args.trace) {
      val m = wl.traced(counters)
      val unknown = m.keySet -- perLayer.map(_._1)
      require(unknown.isEmpty, s"metrics missing from the catalogue: $unknown")
      val all = perLayer.map { case (k, unit) =>
        k -> m.getOrElse(k, Metric(0.0, unit))
      }
      all.foreach { case (k, v) => require(v.unit == perLayer.toMap.apply(k), s"unit of $k") }
      return Json.result(correct = true, attempted = 1, failed = 0, all)
    }

    val opS, heapMb = scala.collection.mutable.ArrayBuffer.empty[Double]
    var attempted, failed = 0
    var lastFailed = false
    // Holds the op's result until its checks have run; cleared before the
    // next op so that only one result is ever retained.
    var check: () => Seq[String] = null
    val start = System.nanoTime()
    do {
      check = null
      val a = System.nanoTime()
      val failures =
        try {
          check = wl.op()
          opS += (System.nanoTime() - a) / 1e9
          heapMb += Jvm.retainedHeapMb()
          check()
        } catch { case e: Exception => Seq(s"op threw $e") }
      attempted += 1
      lastFailed = failures.nonEmpty
      if (lastFailed) failed += 1
      log(f"op ${opS.length}: ${opS.lastOption.getOrElse(Double.NaN)}%.3f s " +
          f"heap ${heapMb.lastOption.getOrElse(Double.NaN)}%.0f MB " +
          (if (failures.isEmpty) "ok" else failures.mkString("FAILED: ", "; ", "")))
    } while (System.nanoTime() - start < args.seconds * 1000000000L)
    val (quality, finalFailures) = wl.finish()
    if (finalFailures.nonEmpty) {
      log(finalFailures.mkString("FAILED: ", "; ", ""))
      if (!lastFailed) failed += 1
    }
    require(opS.nonEmpty, "every op threw")
    val metrics = Vector(
      "setup_s"          -> Metric(setupS, "s"),
      "op_s"             -> Metric(Stats.median(opS.toSeq), "s"),
      "retained_heap_mb" -> Metric(Stats.median(heapMb.toSeq), "MB"),
    ) ++ quality.toVector.sortBy(_._1)
    Json.result(correct = failed == 0, attempted, failed, metrics)
  }

  def log(s: String): Unit = System.err.println(s"[darwinbench] $s")
}

object Json {
  private def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric $x")
    x.toString
  }

  def result(correct: Boolean, attempted: Int, failed: Int,
             metrics: Seq[(String, Metric)]): String =
    metrics.map { case (k, m) => s""""$k": {"value": ${num(m.value)}, "unit": "${m.unit}"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""",
                ", ", "}}")
}
