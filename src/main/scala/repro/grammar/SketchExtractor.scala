package repro.grammar

import repro.text.{Parsed, Vocab}
import scala.collection.mutable

/** Derivation-sketch extraction (paper §3.1).
  *
  * For a parsed sentence, enumerates the canonical ``repr`` strings of all
  * heuristics *in the indexed family* that the sentence satisfies. Each
  * Spark partition of the index build adds its sentences' patterns to its
  * own posting map, and the driver merges the partition maps once — the
  * paper's "build per-part sketches, then merge" parallel index
  * construction (see [[repro.index.HeuristicIndex]]).
  *
  * Indexed family (bounded so the index stays linear in corpus size, as
  * the paper's fixed derivation depth does):
  *  - phrases of length 1..maxPhraseLen;
  *  - TreeMatch terminals (every token, every POS tag);
  *  - ChildPat over every dependency edge, all 4 Tok/Pos combos;
  *  - DescPat over ancestor pairs within distance [[Heuristic.MaxDescDist]],
  *    all 4 combos;
  *  - AndPat over pairs of distinct *content-token* positions (a word's
  *    POS is a global property of the word in our vocabulary, so this
  *    restriction is a family restriction, not an approximation: the
  *    inverted list of every emitted pattern is its exact coverage);
  *  - Child2Pat with a token head and children combos
  *    (Tok,Tok), (Pos,Tok), (Tok,Pos) — the paper's ``/is/NOUN∧job`` shape.
  *
  * Extraction is complete for this family: ``patterns(p).contains(h.repr)``
  * iff ``h.matches(p)`` for every family heuristic ``h`` (tested).
  */
final case class SketchConfig(
    maxPhraseLen: Int = Heuristic.MaxPhraseLen,
    includeTree: Boolean = true,
)

object SketchExtractor extends Serializable {

  def patterns(p: Parsed, cfg: SketchConfig = SketchConfig()): Array[String] = {
    val out = mutable.HashSet.empty[String]
    val n   = p.length

    // TokensRegex phrases
    var i = 0
    while (i < n) {
      val sb = new StringBuilder("G:")
      var len = 1
      while (len <= cfg.maxPhraseLen && i + len <= n) {
        if (len > 1) sb.append(' ')
        sb.append(p.tokens(i + len - 1))
        out += sb.toString
        len += 1
      }
      i += 1
    }

    if (cfg.includeTree) {
      // terminals
      i = 0
      while (i < n) {
        out += s"T:t=${p.tokens(i)}"
        out += s"T:p=${p.pos(i)}"
        i += 1
      }
      def terms(k: Int): Array[String] = Array(s"t=${p.tokens(k)}", s"p=${p.pos(k)}")

      // ChildPat + DescPat along ancestor chains
      var j = 0
      while (j < n) {
        var anc  = p.heads(j)
        var dist = 1
        while (anc >= 0 && dist <= Heuristic.MaxDescDist) {
          for (a <- terms(anc); b <- terms(j)) {
            if (dist == 1) out += s"T:C($a,$b)"
            out += s"T:D($a,$b)"
          }
          anc = p.heads(anc); dist += 1
        }
        j += 1
      }

      // AndPat over content-token position pairs
      val content = (0 until n).filter(k => Vocab.contentPos(p.pos(k)))
      var x = 0
      while (x < content.length) {
        var y = x + 1
        while (y < content.length) {
          val (w1, w2) = (p.tokens(content(x)), p.tokens(content(y)))
          val (a, b)   = if (w1 <= w2) (w1, w2) else (w2, w1)
          out += s"T:A(t=$a,t=$b)"
          y += 1
        }
        x += 1
      }

      // Child2Pat: token head with two children; combos (t,t),(p,t),(t,p)
      i = 0
      while (i < n) {
        val ch = p.children(i)
        if (ch.length >= 2) {
          val head = s"t=${p.tokens(i)}"
          var u = 0
          while (u < ch.length) {
            var v = u + 1
            while (v < ch.length) {
              val (cu, cv) = (ch(u), ch(v))
              val combos = Array(
                (s"t=${p.tokens(cu)}", s"t=${p.tokens(cv)}"),
                (s"p=${p.pos(cu)}",    s"t=${p.tokens(cv)}"),
                (s"t=${p.tokens(cu)}", s"p=${p.pos(cv)}"),
              )
              for ((b0, c0) <- combos) {
                val (b, c) = if (b0 <= c0) (b0, c0) else (c0, b0)
                out += s"T:C2($head,$b,$c)"
              }
              v += 1
            }
            u += 1
          }
        }
        i += 1
      }
    }
    out.toArray
  }

  /** Is ``h`` a member of the indexed family for some sentence? Used by
    * tests to scope the completeness check.
    */
  def inFamily(h: Heuristic, cfg: SketchConfig = SketchConfig()): Boolean = h match {
    case Heuristic.Phrase(ws) => ws.length <= cfg.maxPhraseLen
    case _: Heuristic.TermPat | _: Heuristic.ChildPat | _: Heuristic.DescPat =>
      cfg.includeTree
    case Heuristic.AndPat(a, b) =>
      cfg.includeTree && (a, b).productIterator.forall {
        case Term.Tok(w) => Vocab.contentPos(Vocab.info(w).pos)
        case _           => false
      }
    case Heuristic.Child2Pat(a, b, c) =>
      cfg.includeTree && a.isInstanceOf[Term.Tok] &&
        !(b.isInstanceOf[Term.Pos] && c.isInstanceOf[Term.Pos])
  }
}
