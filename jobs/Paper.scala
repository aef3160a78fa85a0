package repro.jobs

import java.io.{FileDescriptor, FileOutputStream, OutputStream, PrintStream}
import java.nio.charset.StandardCharsets
import scala.collection.immutable.ListMap
import repro.eval.Experiments
import repro.eval.Experiments.Corpora

/** The paper's evaluation, one experiment per run:
  *
  *   spark-submit --class repro.jobs.Paper repro.jar <name> [--scale s]
  *   sbt "runMain repro.jobs.Paper <name> [--scale s]"
  *
  * `<name>` is a key of [[experiments]]: Table 1, Table 2, Fig. 7/8 (snuba),
  * Fig. 9 a–d (coverage), Fig. 9 e–h (quality) and §4.5 (efficiency).
  * `--scale s` (0 < s ≤ 1) shrinks every dataset to
  * [[Experiments.scaledSize]].
  */
object Paper {
  val experiments: ListMap[String, Corpora => Experiments.Result[_]] = ListMap(
    "table1"     -> Experiments.table1,
    "table2"     -> Experiments.table2,
    "snuba"      -> Experiments.snuba,
    "coverage"   -> Experiments.coverage,
    "quality"    -> Experiments.quality,
    "efficiency" -> Experiments.efficiency,
  )

  private val usage =
    s"usage: repro.jobs.Paper <${experiments.keys.mkString("|")}> [--scale s] with 0 < s <= 1"

  /** A scale in (0, 1]; anything else is rejected with the usage line. */
  def scale(s: String): Double =
    s.toDoubleOption.filter(x => x > 0 && x <= 1)
      .getOrElse(throw new IllegalArgumentException(s"bad scale '$s'; $usage"))

  /** The experiment name and scale of a command line. */
  def parse(args: Seq[String]): (String, Double) = {
    val (name, s) = args match {
      case Seq(name)                => (name, 1.0)
      case Seq(name, "--scale", v) => (name, scale(v))
      case _ => throw new IllegalArgumentException(s"bad arguments '${args.mkString(" ")}'; $usage")
    }
    if (!experiments.contains(name))
      throw new IllegalArgumentException(s"unknown experiment '$name'; $usage")
    (name, s)
  }

  /** A UTF-8 print stream over ``out``. A JVM whose default charset is
    * ASCII, as sbt's forked one is under a POSIX locale, would print any
    * non-ASCII table text as '?'.
    */
  def utf8(out: OutputStream): PrintStream = new PrintStream(out, true, StandardCharsets.UTF_8)

  def main(args: Array[String]): Unit = {
    val (name, s) = try parse(args.toSeq) catch {
      case e: IllegalArgumentException => Console.err.println(e.getMessage); sys.exit(2)
    }
    val spark = Experiments.session(s"paper-$name")
    val out   = utf8(new FileOutputStream(FileDescriptor.out))
    try out.println(experiments(name)(new Corpora(spark, s)).table) finally spark.stop()
  }
}
