package repro.text

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Datasets, SplitMix}

class PipelineSpec extends AnyFunSuite {

  // ---------------------------------------------------------- tokenizer

  test("tokenize lowercases and splits on whitespace") {
    assert(Pipeline.tokenize("What IS the Best Way").toSeq ===
      Seq("what", "is", "the", "best", "way"))
  }

  test("tokenize strips punctuation") {
    assert(Pipeline.tokenize("way to SFO airport?").toSeq ===
      Seq("way", "to", "sfo", "airport"))
  }

  test("tokenize keeps apostrophes inside words") {
    assert(Pipeline.tokenize("it's fine").toSeq === Seq("it's", "fine"))
  }

  test("tokenize of empty string is empty") {
    assert(Pipeline.tokenize("").isEmpty)
    assert(Pipeline.tokenize("  ,,, !!").isEmpty)
  }

  test("tokenize collapses repeated separators") {
    assert(Pipeline.tokenize("a,  b -- c").toSeq === Seq("a", "b", "c"))
  }

  /** The tokenizer as it was: map each char, then a regex split. */
  private def regexTokenize(text: String): Array[String] =
    text.toLowerCase
      .map(c => if (c.isLetterOrDigit || c == '\'') c else ' ')
      .split("\\s+")
      .filter(_.nonEmpty)

  test("tokenize equals the map/split/filter tokenizer on the small corpora and edge strings") {
    val small = Seq(Datasets.tweets -> 800L, Datasets.directions -> 2000L,
                    Datasets.musicians -> 2000L, Datasets.causeEffect -> 1500L,
                    Datasets.professions -> 4000L)
    val texts = for ((spec, n) <- small; id <- 0L until n) yield spec.sentence(id)._1
    val edges = Seq("", " ", "a", " lead", "trail ", "  both  ", "tab\there\nnew\r\nline",
                    "?!...,;--", "a..b,,c", "don't", "'quoted'", "''", "rock 'n' roll",
                    "route 66 at 9am", "123", "Café au LAIT", "İstanbul", "\u0130",
                    "ẞ STRASSE", "smile \uD83D\uDE00 now", "\uD83D\uDE00\uD83D\uDE00",
                    "x\u00A0y", "x\u2003y\u3000z", "\uD835\uDC00bc")
    assert("İstanbul".toLowerCase.length > "İstanbul".length)
    for (t <- texts ++ edges)
      assert(Pipeline.tokenize(t).toSeq === regexTokenize(t).toSeq, s"'$t'")
  }

  // ---------------------------------------------------------- tagger

  test("lexicon words get lexicon tags") {
    val toks = Array("the", "shuttle", "is", "fastest")
    assert(Pipeline.tag(toks).toSeq === Seq("DET", "NOUN", "AUX", "ADJ"))
  }

  test("fallback tags: digits NUM, -ly ADV, -ed/-ing VERB, else NOUN") {
    assert(Vocab.fallbackPos("1234") === "NUM")
    assert(Vocab.fallbackPos("quickly") === "ADV")
    assert(Vocab.fallbackPos("arrived") === "VERB")
    assert(Vocab.fallbackPos("zorp") === "NOUN")
  }

  test("a word's tag is deterministic and global") {
    val w = "composer"
    assert(Vocab.info(w).pos === "NOUN")
    assert(Pipeline.tag(Array(w, "x", w)).toSeq === Seq("NOUN", "NOUN", "NOUN"))
  }

  // ---------------------------------------------------------- parser

  private def wellFormed(p: Parsed): Unit = {
    val roots = p.heads.count(_ == -1)
    assert(roots === 1, s"expected single root in ${p.tokens.mkString(" ")}")
    // acyclic: walking up from any node reaches the root
    for (i <- p.tokens.indices) {
      var cur = i; var steps = 0
      while (p.heads(cur) != -1) {
        cur = p.heads(cur); steps += 1
        assert(steps <= p.length, s"cycle at token $i in ${p.tokens.mkString(" ")}")
      }
    }
  }

  test("parse produces a single-rooted acyclic tree on a simple sentence") {
    wellFormed(Pipeline.parse("what is the best way to get to the airport"))
  }

  test("root prefers the first VERB") {
    val p = Pipeline.parse("the storm caused damage in paris")
    assert(p.heads(p.tokens.indexOf("caused")) === -1)
  }

  test("root falls back to AUX when no verb exists") {
    val p = Pipeline.parse("his job is a teacher")
    assert(p.heads(p.tokens.indexOf("is")) === -1)
  }

  test("determiners attach to the next noun") {
    val p = Pipeline.parse("the storm caused damage")
    assert(p.heads(0) === p.tokens.indexOf("storm"))
  }

  test("nouns attach to a nearby preposition") {
    val p = Pipeline.parse("go to the airport")
    val to = p.tokens.indexOf("to"); val airport = p.tokens.indexOf("airport")
    assert(p.heads(airport) === to)
  }

  test("paper's /is/NOUN∧job shape: 'is' has children 'job' and the profession noun") {
    val p  = Pipeline.parse("his job is a teacher")
    val is = p.tokens.indexOf("is")
    val ch = p.children(is).map(p.tokens(_)).toSet
    assert(ch.contains("job") && ch.contains("teacher"))
  }

  test("every sentence from every dataset parses into a well-formed tree") {
    for (spec <- Datasets.all; id <- 0L until 300L) {
      val (text, _) = spec.sentence(id)
      wellFormed(Pipeline.parse(text))
    }
  }

  test("parse is deterministic") {
    val a = Pipeline.parse("is there a bart from the airport to the hotel")
    val b = Pipeline.parse("is there a bart from the airport to the hotel")
    assert(a === b)
  }

  test("isAncestor respects the distance bound") {
    // chain: 0 <- 1 <- 2 <- 3 <- 4 (heads point left)
    val p = Parsed(Array("a", "b", "c", "d", "e"),
                   Array.fill(5)("NOUN"), Array(-1, 0, 1, 2, 3))
    assert(p.isAncestor(0, 1, 1))
    assert(p.isAncestor(0, 3, 3))
    assert(!p.isAncestor(0, 4, 3))
    assert(p.isAncestor(0, 4, 4))
  }

  test("children lists nodes in token order") {
    val p = Parsed(Array("x", "y", "z"), Array.fill(3)("NOUN"), Array(-1, 0, 0))
    assert(p.children(0) === Seq(1, 2))
  }

  // ---------------------------------------------------------- embeddings

  test("embeddings are unit-norm and deterministic") {
    val v1 = Embeddings.vector("shuttle")
    val v2 = Embeddings.vector("shuttle")
    assert(v1.toSeq === v2.toSeq)
    val norm = math.sqrt(v1.map(x => x * x).sum)
    assert(math.abs(norm - 1.0) < 1e-4)
  }

  test("same-cluster words are closer than cross-cluster words") {
    val busShuttle = Embeddings.cosine(Embeddings.vector("bus"), Embeddings.vector("shuttle"))
    val busPizza   = Embeddings.cosine(Embeddings.vector("bus"), Embeddings.vector("pizza"))
    assert(busShuttle > busPizza + 0.2,
      s"bus~shuttle=$busShuttle should exceed bus~pizza=$busPizza")
  }

  test("rail and road transport are distinct clusters") {
    val bartTrain = Embeddings.cosine(Embeddings.vector("bart"), Embeddings.vector("train"))
    val bartTaxi  = Embeddings.cosine(Embeddings.vector("bart"), Embeddings.vector("taxi"))
    assert(bartTrain > bartTaxi)
  }

  test("sentence vector is unit-norm and uses content words") {
    val p = Pipeline.parse("is there a shuttle to the airport")
    val v = Embeddings.sentenceVector(p.tokens, p.pos)
    val norm = math.sqrt(v.map(x => x * x).sum)
    assert(math.abs(norm - 1.0) < 1e-4)
    // content words shuttle/airport dominate: closer to shuttle than to 'the'
    val simShuttle = Embeddings.cosine(v, Embeddings.vector("shuttle"))
    val simThe     = Embeddings.cosine(v, Embeddings.vector("the"))
    assert(simShuttle > simThe)
  }

  test("sentence vectors of same-intent sentences are closer than cross-intent") {
    def vec(s: String) = { val p = Pipeline.parse(s); Embeddings.sentenceVector(p.tokens, p.pos) }
    val a = vec("is there a shuttle to the airport")
    val b = vec("can i take a bus to the station")
    val c = vec("just ordered pizza for dinner")
    assert(Embeddings.cosine(a, b) > Embeddings.cosine(a, c))
  }

  test("hashVector draws are spread across [-1,1)") {
    val rng = new SplitMix(5)
    val v = Embeddings.hashVector("anything" + rng.nextInt(10))
    assert(v.forall(x => x >= -1f && x < 1f))
    assert(v.distinct.length > 4)
  }
}
