package repro.data

import repro.text.Vocab

/** Deterministic splitmix64 PRNG — the corpora must be identical across
  * Spark executors and the DuckDB oracle, so no java.util.Random.
  */
final class SplitMix(seed0: Long) extends Serializable {
  private var x = seed0
  def nextLong(): Long = {
    x += 0x9E3779B97F4A7C15L
    var z = x
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
  def nextInt(n: Int): Int = {
    require(n > 0); (((nextLong() >>> 1) % n).toInt)
  }
  def nextDouble(): Double = (nextLong() >>> 11).toDouble / (1L << 53).toDouble
}

/** A sentence template with ``{slot}`` placeholders drawing from the named
  * word lists in [[repro.text.Vocab]]. A trailing digit on a slot name
  * (``{place2}``) draws an independent sample from the same list.
  *
  * The text is split once, at construction, into the literal segments
  * around its slots, so rendering a sentence runs no regex.
  */
final case class Tmpl(text: String, weight: Double = 1.0) {

  /** Slot list names referenced by this template (for validation). */
  val slotNames: Seq[String] = Tmpl.SlotRe.findAllMatchIn(text).map(_.group(1)).toVector

  private val literals = Tmpl.SlotRe.pattern.split(text, -1)
  private val slots    = slotNames.map(Tmpl.lists).toArray

  /** Render with slot words drawn from ``rng`` in left-to-right order. */
  def render(rng: SplitMix): String = {
    val sb = new java.lang.StringBuilder(literals(0))
    var i = 0
    while (i < slots.length) {
      val list = slots(i)
      sb.append(list(rng.nextInt(list.length))).append(literals(i + 1))
      i += 1
    }
    sb.toString
  }
}

object Tmpl {
  private val SlotRe = "\\{([a-z]+)\\d?\\}".r

  /** Slot name -> word list. */
  val lists: Map[String, Vector[String]] = Map(
    "place"      -> Vocab.places,
    "rail"       -> Vocab.railTransport,
    "road"       -> Vocab.roadTransport,
    "air"        -> Vocab.airTransport,
    "food"       -> Vocab.foods,
    "meal"       -> Vocab.meals,
    "amenity"    -> Vocab.amenities,
    "mrole"      -> Vocab.musicianRoles,
    "mname"      -> Vocab.musicianNames,
    "mwork"      -> Vocab.musicWorks,
    "instrument" -> Vocab.instruments,
    "prof"       -> Vocab.professions,
    "sname"      -> Vocab.scientistNames,
    "cevent"     -> Vocab.causalEvents,
    "ceffect"    -> Vocab.causalEffects,
    "city"       -> Vocab.cities,
    "country"    -> Vocab.countries,
    "animal"     -> Vocab.animals,
    "sport"      -> Vocab.sports,
    "product"    -> Vocab.products,
    "topic"      -> Vocab.topics,
    "wadj"       -> Vocab.weatherAdjs,
  )
}

/** Specification of one synthetic evaluation dataset (Table 1 substitute).
  *
  * @param name      dataset id (also the PRNG salt)
  * @param n         number of sentences (paper's Table 1 count)
  * @param posRate   fraction of positive sentences (paper's %Positives)
  * @param labeling  task type reported in Table 1
  * @param pos       positive template families (weighted)
  * @param neg       negative template families (weighted)
  * @param seedRule  canonical repr of the seed heuristic used in §4.3/4.4
  * @param keywords  the 10 annotator keywords for the KS baseline (§4.4)
  * @param biasToken token excluded from seed samples in the biased-seed
  *                  experiment (Fig. 8: 'shuttle' / 'composer')
  */
final case class DatasetSpec(
    name: String,
    n: Long,
    posRate: Double,
    labeling: String,
    pos: Vector[Tmpl],
    neg: Vector[Tmpl],
    seedRule: String,
    keywords: Vector[String],
    biasToken: Option[String] = None,
) {
  require(pos.nonEmpty && neg.nonEmpty)
  private def cum(ts: Vector[Tmpl]): Vector[Double] = {
    val total = ts.map(_.weight).sum
    ts.map(_.weight / total).scanLeft(0.0)(_ + _).tail
  }
  private val posCum = cum(pos)
  private val negCum = cum(neg)

  /** Deterministically generate sentence ``id``: (text, groundTruthLabel). */
  def sentence(id: Long): (String, Int) = {
    val rng   = new SplitMix(name.hashCode.toLong * 0x100000001B3L + id)
    val isPos = rng.nextDouble() < posRate
    val (ts, cs) = if (isPos) (pos, posCum) else (neg, negCum)
    val u = rng.nextDouble()
    val k = cs.indexWhere(u <= _) match { case -1 => ts.length - 1; case i => i }
    (ts(k).render(rng), if (isPos) 1 else 0)
  }
}
