package repro.weak

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.CorpusRow
import repro.grammar.Heuristic
import repro.text.Pipeline

/** Distributed rule application: turn a discovered rule set into weak
  * labels over a (possibly much larger) corpus with a DataFrame UDF —
  * the final labeling pass that feeds Snorkel/classifier training.
  *
  * Each output row carries the per-rule vote vector and the union weak
  * label, so the label model can be fitted from the result as well.
  */
object RuleApply {

  /** @return DataFrame(id, text, label, votes: array<int of rule idx>, weakLabel) */
  def weakLabels(spark: SparkSession, corpus: Dataset[CorpusRow],
                 rules: Seq[String]): DataFrame = {
    val parsedRules = rules.map(Heuristic.parse).toArray
    val bcast = spark.sparkContext.broadcast(parsedRules)
    val votesUdf = udf { (text: String) =>
      val p     = Pipeline.parse(text)
      val rs    = bcast.value
      val votes = Array.newBuilder[Int]
      var i     = 0
      while (i < rs.length) { if (rs(i).matches(p)) votes += i; i += 1 }
      votes.result()
    }
    corpus.toDF()
      .withColumn("votes", votesUdf(col("text")))
      .withColumn("weakLabel", (size(col("votes")) > 0).cast("int"))
  }
}
