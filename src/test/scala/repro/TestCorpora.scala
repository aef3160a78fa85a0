package repro

import org.apache.spark.sql.SparkSession
import repro.core.{Model, PreparedCorpus}
import repro.data.{DatasetSpec, Datasets}

/** Shared cache of prepared corpora for the test run (one JVM, sequential
  * suites): preparing a corpus runs the full Spark dataflow once per
  * (dataset, size) and is reused across suites.
  */
object TestCorpora {
  private val cache = scala.collection.concurrent.TrieMap.empty[(String, Long), PreparedCorpus]

  def prepared(spark: SparkSession, spec: DatasetSpec, n: Long): PreparedCorpus =
    cache.getOrElseUpdate((spec.name, n), PreparedCorpus.prepare(spark, spec, Some(n)))

  /** Small corpora used by most unit suites (SF analogue: tiny). */
  def tweetsSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.tweets, 800L)
  def directionsSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.directions, 2000L)
  def musiciansSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.musicians, 2000L)
  def causeEffectSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.causeEffect, 1500L)
  def professionsSmall(spark: SparkSession): PreparedCorpus =
    prepared(spark, Datasets.professions, 4000L)

  /** The five small corpora, with their specs, as the golden tests run them. */
  val small: Seq[(DatasetSpec, SparkSession => PreparedCorpus)] = Seq(
    Datasets.tweets      -> tweetsSmall,
    Datasets.directions  -> directionsSmall,
    Datasets.musicians   -> musiciansSmall,
    Datasets.causeEffect -> causeEffectSmall,
    Datasets.professions -> professionsSmall,
  )

  /** The first 8 bytes, in hex, of the SHA-256 of what ``feed`` writes. */
  def digest(feed: java.security.MessageDigest => Unit): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    feed(md)
    md.digest().take(8).map("%02x".format(_)).mkString
  }

  /** A model's weights, then its bias, as big-endian doubles. */
  def modelBits(m: Model): Array[Byte] = {
    val bits = java.nio.ByteBuffer.allocate(8 * (m.w.length + 1))
    m.w.foreach(bits.putDouble)
    bits.putDouble(m.b).array()
  }
}
