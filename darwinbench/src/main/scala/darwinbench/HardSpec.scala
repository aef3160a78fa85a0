package darwinbench

import repro.data.{DatasetSpec, Tmpl}

/** A corpus on which the annotator loop works for all 100 questions.
  *
  * Positives say what someone did for a living, each family through its
  * own verb ("my neighbor interned as a nurse"), so most families need a
  * rule of their own: the loop accepts about 20 rules. Negatives put the same
  * profession words in roles that are not occupations (costumes, acting,
  * pretending) and in encounters and stories, so the profession words, "as
  * a", and the other short generalisations are imprecise. Once every family
  * is found, the negatives keep supplying rules the annotator rejects, so
  * the loop spends its whole budget. Each negative has at most one slot, and
  * positives are common enough that retraining, whose cost follows |P|,
  * outweighs the loop's pool scans, whose cost depends on the path taken:
  * both keep the op's time steady across corpus seeds.
  *
  * Built only from the program's `Tmpl` slot lists plus literal words.
  */
object HardSpec {

  /** One family per verb; the first is the seed rule's family. */
  val verbs: Vector[String] = Vector(
    "worked", "trained", "interned", "apprenticed", "qualified", "retired",
    "volunteered", "freelanced", "moonlighted", "graduated", "enlisted", "toiled",
    "labored", "clerked", "started", "continued", "succeeded", "excelled",
    "flourished", "struggled", "thrived", "temped", "subbed", "doubled",
    "debuted", "served", "ranked", "registered", "listed", "signed")

  val spec: DatasetSpec = DatasetSpec(
    name = "occupations-hard", n = 10000L, posRate = 0.3, labeling = "Relations",
    pos = verbs.zipWithIndex.map { case (v, i) =>
      Tmpl(s"my neighbor $v as a {prof}", if (i == 0) 2 else 1)
    },
    neg = Vector(
      Tmpl("he dressed up as a {prof} for the party", 2),
      Tmpl("she disguised herself as a {prof} in the film", 2),
      Tmpl("the actor was cast as a {prof} on television", 1),
      Tmpl("the kids pretended to be a {prof} all day", 2),
      Tmpl("she was mistaken for a {prof} at the mall", 2),
      Tmpl("the {prof} parked the car near the station", 3),
      Tmpl("we met a {prof} at the museum", 3),
      Tmpl("a {prof} was seen at the beach", 3),
      Tmpl("the {prof} bought a laptop today", 3),
      Tmpl("he called a {prof} about the leak", 3),
      Tmpl("she asked the {prof} about insurance", 3),
      Tmpl("the {prof} watched the football game", 3),
      Tmpl("my neighbor read a novel about a {prof}", 3),
      Tmpl("the {product} is available online", 3),
      Tmpl("the weather is {wadj} today", 3),
      Tmpl("{city} is lovely in spring", 3),
      Tmpl("the {animal} lives near the river", 3),
    ),
    seedRule = "G:worked as a",
    keywords = Vector("worked", "trained", "retired", "interned", "served",
                      "qualified", "volunteered", "job", "career", "profession"),
  )
}
