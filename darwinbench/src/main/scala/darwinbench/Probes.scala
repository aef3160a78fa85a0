package darwinbench

import java.lang.management.ManagementFactory
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.core.RuleOracle
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One reported number with its unit. */
final case class Metric(value: Double, unit: String)

/** Wraps the simulated annotator and stamps every question: when it was
  * asked, when it was answered, and the answer. The annotator's waits and
  * the `loop.*` metrics are computed from these stamps.
  */
final class TimingOracle(inner: RuleOracle) extends RuleOracle {
  val askedAt    = mutable.ArrayBuffer.empty[Long]
  val answeredAt = mutable.ArrayBuffer.empty[Long]
  val answers    = mutable.ArrayBuffer.empty[Boolean]

  def queries: Int = inner.queries

  def query(coverage: Array[Int]): Boolean = {
    askedAt += System.nanoTime()
    val a = inner.query(coverage)
    answeredAt += System.nanoTime()
    answers += a
    a
  }

  /** The annotator's waits in ms: from the op's start to the first
    * question, then from each answer to the next question.
    */
  def waitsMs(opStart: Long): Vector[Double] =
    askedAt.indices.map { i =>
      (askedAt(i) - (if (i == 0) opStart else answeredAt(i - 1))) / 1e6
    }.toVector

  /** Waits that follow an answer equal to ``answer``. */
  def waitsAfterMs(answer: Boolean): Vector[Double] =
    (1 until askedAt.length).collect {
      case i if answers(i - 1) == answer => (askedAt(i) - answeredAt(i - 1)) / 1e6
    }.toVector
}

/** Spark counters summed from task-end events, read through a listener the
  * benchmark registers on its own session.
  */
final class SparkCounters extends SparkListener {
  private val MarkerKey = "darwinbench.marker"

  @volatile private var markersSeen = 0L
  private var markerJobs = Set.empty[Int]

  private var markerStages = Set.empty[Int]
  private var jobs = 0L
  private var tasks = 0L
  private var shuffleWriteRecords = 0L
  private var shuffleWriteBytes = 0L
  private var shuffleReadRecords = 0L
  private var shuffleReadBytes = 0L
  private var spillBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val marker = Option(e.properties).exists(_.getProperty(MarkerKey) != null)
    if (marker) { markerJobs += e.jobId; markerStages ++= e.stageIds }
    else jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (markerJobs.contains(e.jobId)) { markerJobs -= e.jobId; markersSeen += 1 }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages.contains(e.stageId) && e.taskMetrics != null) {
      val m = e.taskMetrics
      tasks += 1
      shuffleWriteRecords += m.shuffleWriteMetrics.recordsWritten
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleReadRecords += m.shuffleReadMetrics.recordsRead
      shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  /** Blocks until every event posted before this call has been delivered:
    * runs a one-task marker job and waits for its end event, which the
    * listener bus delivers after all earlier events.
    */
  def settle(spark: SparkSession): Unit = {
    val sc     = spark.sparkContext
    val before = markersSeen
    sc.setLocalProperty(MarkerKey, "1")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (markersSeen == before && System.nanoTime() < deadline) Thread.sleep(1)
    require(markersSeen > before, "Spark listener bus did not drain")
  }

  def snapshot: Map[String, Long] = synchronized {
    Map("jobs" -> jobs, "tasks" -> tasks,
        "shuffle_write_records" -> shuffleWriteRecords,
        "shuffle_write_bytes" -> shuffleWriteBytes,
        "shuffle_read_records" -> shuffleReadRecords,
        "shuffle_read_bytes" -> shuffleReadBytes,
        "spill_bytes" -> spillBytes)
  }
}

/** JVM-side readings: GC time from the GC MXBeans, driver-thread CPU time,
  * and the heap retained after a full collection.
  */
object Jvm {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val threads = ManagementFactory.getThreadMXBean

  def gcMillis: Long = gcBeans.map(_.getCollectionTime.max(0L)).sum
  def threadCpuNanos: Long = threads.getCurrentThreadCpuTime

  /** Heap in use after a full GC, in MB. Callers keep the op's result
    * reachable across this call so that it is counted.
    */
  def retainedHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** Counter and time deltas over one traced call. */
final class Span(spark: SparkSession, counters: SparkCounters) {
  private val c0   = { counters.settle(spark); counters.snapshot }
  private val gc0  = Jvm.gcMillis
  private val cpu0 = Jvm.threadCpuNanos
  private val t0   = System.nanoTime()

  /** Ends the span: wall seconds, GC ms, driver CPU seconds, counter deltas. */
  def end(): SpanResult = {
    val wall = (System.nanoTime() - t0) / 1e9
    val cpu  = (Jvm.threadCpuNanos - cpu0) / 1e9
    val gc   = (Jvm.gcMillis - gc0).toDouble
    counters.settle(spark)
    val c1 = counters.snapshot
    SpanResult(wall, gc, cpu, c1.map { case (k, v) => k -> (v - c0(k)) })
  }
}

final case class SpanResult(wallS: Double, gcMs: Double, cpuS: Double,
                            counters: Map[String, Long])

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Linear-interpolated percentile, q in [0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no values")
    val s   = xs.sorted.toVector
    val pos = q * (s.length - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}
