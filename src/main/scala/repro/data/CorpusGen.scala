package repro.data

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}

/** One generated sentence with its hidden ground-truth label (used only by
  * the oracle simulation and final evaluation, never by Darwin itself).
  */
final case class CorpusRow(id: Long, text: String, label: Int)

/** Synthetic substitutes for the paper's five evaluation datasets
  * (Table 1), at the paper's sentence counts and positive rates. Each
  * dataset has several *semantically distant* positive template families
  * (so precise rules exist far apart in the rule hierarchy) and negative
  * families that share surface vocabulary with the positives (so short
  * generalizations like 'best way to' or 'by' are imprecise, as in the
  * paper's Fig. 11 traversals). See DESIGN.md substitution 1.
  */
object Datasets {

  /** directions: hotel-concierge intent classification (Example 1). */
  val directions: DatasetSpec = DatasetSpec(
    name = "directions", n = 15300L, posRate = 0.038, labeling = "Intents",
    pos = Vector(
      Tmpl("what is the best way to get to the {place}", 3),
      Tmpl("is there a {rail} from the {place2} to the {place}", 2),
      Tmpl("is a {road} the fastest way to reach the {place}", 2),
      Tmpl("does the hotel have a shuttle to the {place}", 2),
      Tmpl("how do i go from the {place2} to the {place}", 2),
      Tmpl("can i take a {road} from the {place2} to the {place}", 1),
    ),
    neg = Vector(
      Tmpl("what is the best way to check in there", 1),
      Tmpl("what is the best way to order {food} from you", 1),
      Tmpl("is this the fastest way to order {food}", 1),
      Tmpl("can i get more {amenity} in my room", 2),
      Tmpl("what time is {meal} served at the restaurant", 2),
      Tmpl("is the {amenity} open in the morning", 2),
      // function-word skeletons shared with positive families, so that
      // bare determiners/auxiliaries ('a', 'do', 'is there a', 'does the
      // hotel have a') are imprecise and rules must specialize
      Tmpl("is there a {amenity} in the room", 2),
      Tmpl("does the hotel have a {amenity}", 1),
      Tmpl("how do i order {food} online", 1),
      Tmpl("do i need a pass for the {amenity}", 1),
      Tmpl("we walked to the {place} yesterday and it was {wadj}", 1),
      // ambiguous: shares the movement/place content of positive family 5
      // but is a statement, not a request for directions
      Tmpl("i had to walk from the {place2} to the {place} yesterday", 0.5),
      Tmpl("the {amenity} was amazing today", 1),
      Tmpl("we watched the {sport} game in the room", 1),
      Tmpl("the weather downtown is {wadj} today", 1),
    ),
    seedRule = "G:best way to get",
    keywords = Vector("shuttle", "bart", "taxi", "airport", "way", "get",
                      "bus", "train", "uber", "station"),
    biasToken = Some("shuttle"),
  )

  /** musicians: entity extraction (sentences mentioning musicians). */
  val musicians: DatasetSpec = DatasetSpec(
    name = "musicians", n = 15800L, posRate = 0.10, labeling = "Entities",
    pos = Vector(
      Tmpl("{mname} was a famous {mrole} from {country}", 3),
      Tmpl("the {mrole} {mname} composed the {mwork} in {city}", 2),
      Tmpl("{mname} taught {instrument} to the daughters of the count", 1),
      Tmpl("{mname} performed the {mwork} on the {instrument} in {city}", 2),
      Tmpl("the {mwork} was recorded by the {mrole} in {city}", 1),
    ),
    neg = Vector(
      Tmpl("{city} is the capital of {country}", 2),
      Tmpl("the {animal} is native to {country}", 2),
      Tmpl("{sname} discovered the laws of nature in {country}", 1),
      Tmpl("{sname} was a famous scientist from {country}", 1),
      Tmpl("the team won the {sport} championship in {city}", 2),
      Tmpl("the {product} is available in {city}", 2),
      Tmpl("the weather in {city} is {wadj} today", 1),
      Tmpl("read more about {topic} and {topic2}", 1),
      Tmpl("the {animal} was observed near {city}", 1),
      // ambiguous polysemy: 'conductor' (train staff) is not a musician
      Tmpl("the conductor checked every ticket on the train to {city}", 0.5),
    ),
    seedRule = "G:composer",
    keywords = Vector("composer", "pianist", "symphony", "opera", "piano",
                      "famous", "performed", "singer", "violin", "concerto"),
    biasToken = Some("composer"),
  )

  /** cause-effect: relation extraction (causal relation between entities). */
  val causeEffect: DatasetSpec = DatasetSpec(
    name = "cause-effect", n = 10700L, posRate = 0.122, labeling = "Relations",
    pos = Vector(
      Tmpl("the {cevent} caused {ceffect} in {city}", 3),
      Tmpl("the {ceffect} was triggered by the {cevent}", 2),
      Tmpl("the {cevent} led to {ceffect} across the city", 2),
      Tmpl("the {ceffect} resulted from the {cevent}", 1),
      Tmpl("the {cevent} sparked {ceffect} near {city}", 1),
    ),
    neg = Vector(
      Tmpl("the {cevent} happened after the {ceffect}", 2),
      Tmpl("the {cevent} was observed near the {place}", 2),
      Tmpl("the mayor reported the {cevent} by phone", 2),
      Tmpl("the {cevent} was reported by the team", 1),
      Tmpl("we watched the {sport} game after the {cevent}", 1),
      Tmpl("the {product} is available in {city}", 2),
      Tmpl("the {cevent} and the {ceffect} occurred in {city}", 2),
    ),
    seedRule = "G:caused",
    keywords = Vector("caused", "triggered", "resulted", "led", "effect",
                      "sparked", "damage", "fire", "storm", "panic"),
  )

  /** professions: entity extraction over a 1M-sentence web-scale corpus. */
  val professions: DatasetSpec = DatasetSpec(
    name = "professions", n = 1000000L, posRate = 0.011, labeling = "Entities",
    pos = Vector(
      Tmpl("her job as a {prof} in {city} is demanding", 2),
      Tmpl("he works as a {prof} in {city}", 3),
      Tmpl("she is a {prof} by profession", 2),
      Tmpl("his job is a {prof}", 1),
      Tmpl("they hired a {prof} in {city}", 1),
    ),
    neg = Vector(
      Tmpl("click here to read more about {topic}", 2),
      Tmpl("the {product} is available in {city}", 2),
      Tmpl("the weather in {city} is {wadj} today", 2),
      Tmpl("read more about {topic} and {sport}", 1),
      Tmpl("the {animal} is native to {country}", 1),
      Tmpl("we booked a room near the {place}", 1),
      Tmpl("the team won the {sport} championship in {city}", 1),
      Tmpl("{city} is the capital of {country}", 1),
      Tmpl("the {cevent} happened near {city}", 1),
      Tmpl("my new {product} arrived today", 1),
      // pronoun sharers: 'he'/'she'/'they' must not be precise rules
      Tmpl("he watched the {sport} game in {city}", 1),
      Tmpl("she read about {topic} all morning", 1),
      Tmpl("they booked a room near the {place}", 0.5),
    ),
    seedRule = "G:works as a",
    keywords = Vector("job", "profession", "works", "teacher", "engineer",
                      "doctor", "hired", "career", "scientist", "nurse"),
  )

  /** tweets: intent classification ('Food' intent). */
  val tweets: DatasetSpec = DatasetSpec(
    name = "tweets", n = 2130L, posRate = 0.114, labeling = "Intents",
    pos = Vector(
      Tmpl("craving some {food} right now", 2),
      Tmpl("just ordered {food} for {meal}", 2),
      Tmpl("anyone want to grab {food} tonight", 1),
      Tmpl("this {food} place downtown is amazing", 1),
      Tmpl("had {food} for {meal} today and it was delicious", 1),
    ),
    neg = Vector(
      Tmpl("booked my flight to {city}", 2),
      Tmpl("first day at my new job today", 2),
      Tmpl("cant wait for the weekend", 2),
      Tmpl("watching the {sport} game tonight", 2),
      Tmpl("my {product} just arrived", 1),
      // ambiguous: same place/qual content as the food-place positive
      Tmpl("this new place downtown is amazing", 0.5),
      // skeleton sharers: keep 'anyone', 'some', 'want', 'right now'
      // imprecise on their own
      Tmpl("anyone watching the {sport} game tonight", 1),
      Tmpl("need some sleep right now", 1),
      Tmpl("want to go to {city} so bad", 0.5),
      Tmpl("reading about {topic} all morning", 1),
      Tmpl("so {wadj} in {city} today", 1),
    ),
    seedRule = "G:craving",
    keywords = Vector("pizza", "sushi", "craving", "ordered", "dinner",
                      "lunch", "burger", "food", "eat", "delicious"),
  )

  val all: Vector[DatasetSpec] =
    Vector(causeEffect, musicians, directions, professions, tweets)

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown dataset: $name"))
}

/** Distributed corpus generation: a range of ids mapped through the
  * deterministic template renderer — the same (id -> sentence) function on
  * every executor, so regeneration is free and reproducible.
  */
object CorpusGen {

  /** The corpus as a typed Dataset, for consumers that run Spark SQL on it
    * (rule application, the DuckDB cross-checks).
    */
  def corpus(spark: SparkSession, spec: DatasetSpec,
             nOverride: Option[Long] = None): Dataset[CorpusRow] = {
    import spark.implicits._
    val n = nOverride.getOrElse(spec.n)
    spark.range(n).map(id => row(spec, id))
  }

  /** The same rows as [[corpus]], as a plain RDD over ``sc.range``: a scan
    * that only needs ``mapPartitions`` plans no SQL query and never builds
    * the session's SQL state.
    */
  def rows(spark: SparkSession, spec: DatasetSpec, n: Long): RDD[CorpusRow] = {
    val sc = spark.sparkContext
    sc.range(0, n, 1, sc.defaultParallelism).map(row(spec, _))
  }

  private def row(spec: DatasetSpec, id: Long): CorpusRow = {
    val (text, label) = spec.sentence(id)
    CorpusRow(id, text, label)
  }
}
