package repro.grammar

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Datasets, SplitMix}
import repro.grammar.Heuristic._
import repro.text.Pipeline

/** The critical invariant for index exactness: for every pattern p the
  * extractor can emit and every sentence s, ``p ∈ patterns(s)`` iff
  * ``parse(p).matches(s)``. Soundness is checked per-sentence; completeness
  * is checked across sentence pairs (a pattern extracted from one sentence
  * must be extracted from every other sentence it matches).
  */
class SketchExtractorSpec extends AnyFunSuite {

  private def sentences(n: Int): Vector[repro.text.Parsed] =
    (for {
      spec <- Datasets.all
      id   <- 0L until n.toLong
    } yield Pipeline.parse(spec.sentence(id)._1)).toVector

  test("soundness: every extracted pattern matches its sentence") {
    for (p <- sentences(100); pat <- SketchExtractor.patterns(p))
      assert(Heuristic.parse(pat).matches(p), s"$pat vs '${p.tokens.mkString(" ")}'")
  }

  test("every extracted pattern is inFamily") {
    for (p <- sentences(60); pat <- SketchExtractor.patterns(p))
      assert(SketchExtractor.inFamily(Heuristic.parse(pat)), pat)
  }

  test("completeness across sentences: matching pattern is always extracted") {
    val ss  = sentences(40)
    val rng = new SplitMix(99)
    var checks = 0
    for (_ <- 0 until 4000) {
      val s1 = ss(rng.nextInt(ss.length))
      val s2 = ss(rng.nextInt(ss.length))
      val pats1 = SketchExtractor.patterns(s1)
      val pat   = pats1(rng.nextInt(pats1.length))
      val h     = Heuristic.parse(pat)
      if (h.matches(s2)) {
        assert(SketchExtractor.patterns(s2).contains(pat),
          s"$pat matches '${s2.tokens.mkString(" ")}' but was not extracted")
        checks += 1
      }
    }
    assert(checks > 200, s"too few cross-matches exercised: $checks")
  }

  test("phrases up to maxPhraseLen are extracted, longer ones are not") {
    val p    = Pipeline.parse("what is the best way to get to the airport")
    val pats = SketchExtractor.patterns(p).toSet
    assert(pats.contains("G:best way to get"))
    assert(!pats.contains("G:best way to get to"))
    assert(pats.contains("G:airport"))
  }

  test("terminals for every token and POS are extracted") {
    val p    = Pipeline.parse("the storm caused damage")
    val pats = SketchExtractor.patterns(p).toSet
    assert(pats.contains("T:t=storm"))
    assert(pats.contains("T:p=VERB"))
    assert(pats.contains("T:p=DET"))
  }

  test("ChildPat combos for an edge are extracted") {
    val p    = Pipeline.parse("the storm caused damage")
    val pats = SketchExtractor.patterns(p).toSet
    val (st, vb) = ("t=storm", "t=caused")
    assert(pats.contains(s"T:C($vb,$st)"))
    assert(pats.contains("T:C(t=caused,p=NOUN)"))
    assert(pats.contains("T:C(p=VERB,t=storm)"))
    assert(pats.contains("T:C(p=VERB,p=NOUN)"))
  }

  test("DescPat includes distance-1 edges (child implies descendant)") {
    val p    = Pipeline.parse("the storm caused damage")
    val pats = SketchExtractor.patterns(p).toSet
    for (pat <- pats if pat.startsWith("T:C(")) {
      val d = pat.replace("T:C(", "T:D(")
      assert(pats.contains(d), s"missing $d for $pat")
    }
  }

  test("AndPat only over content-token pairs") {
    val p    = Pipeline.parse("the storm caused damage")
    val pats = SketchExtractor.patterns(p).toSet
    assert(pats.contains("T:A(t=caused,t=storm)"))
    assert(pats.contains("T:A(t=damage,t=storm)"))
    assert(!pats.exists(s => s.startsWith("T:A(") && s.contains("t=the")))
    assert(!pats.exists(s => s.startsWith("T:A(") && s.contains("p=")))
  }

  test("Child2Pat of the paper's professions shape is extracted") {
    val p    = Pipeline.parse("his job is a teacher")
    val pats = SketchExtractor.patterns(p).toSet
    // canonical child order: "p=NOUN" < "t=job"
    assert(pats.contains("T:C2(t=is,p=NOUN,t=job)"),
      s"expected canonical C2(is, NOUN, job); got: ${pats.filter(_.startsWith("T:C2(t=is")).take(10).toSeq}")
  }

  test("patterns are distinct") {
    val p    = Pipeline.parse("is there a bart from the airport to the hotel")
    val pats = SketchExtractor.patterns(p)
    assert(pats.length === pats.distinct.length)
  }

  test("keyed enumeration decodes to the reference string sketches on all 5 datasets") {
    for (spec <- Datasets.all; id <- 0L until 2000L) {
      val p = Pipeline.parse(spec.sentence(id)._1)
      assert(SketchExtractor.patterns(p).toSet === ReferenceSketches.patterns(p).toSet,
        s"${spec.name} sentence $id")
    }
  }

  test("one dictionary shared by many sentences decodes each sentence's keys exactly") {
    val dict = new SketchExtractor.Dictionary
    for (p <- sentences(40)) {
      val keys = new scala.collection.mutable.ArrayBuilder.ofLong
      SketchExtractor.keys(p, dict)(k => keys.addOne(k))
      assert(keys.result().map(SketchExtractor.decode(_, dict)).toSet ===
        ReferenceSketches.patterns(p).toSet)
    }
  }

  test("dictionary overflow fails instead of colliding") {
    val p = Pipeline.parse("the storm caused damage")
    val e = intercept[IllegalArgumentException] {
      SketchExtractor.keys(p, new SketchExtractor.Dictionary(3))(_ => ())
    }
    assert(e.getMessage.contains("sketch dictionary overflow"))
    // a dictionary with room for every id enumerates the same sentence
    SketchExtractor.keys(p, new SketchExtractor.Dictionary(1000))(_ => ())
  }

  test("pattern volume per sentence is bounded") {
    for (s <- sentences(50)) {
      val c = SketchExtractor.patterns(s).length
      assert(c < 800, s"too many patterns ($c) for '${s.tokens.mkString(" ")}'")
    }
  }
}
