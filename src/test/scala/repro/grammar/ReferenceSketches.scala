package repro.grammar

import repro.text.{Parsed, Vocab}
import scala.collection.mutable

/** A test-only reference for [[SketchExtractor.patterns]]: the indexed
  * family enumerated directly as ``repr`` strings, one string per emitted
  * pattern, with no dictionary and no keys. The keyed enumeration must
  * produce exactly this set for every sentence.
  */
object ReferenceSketches extends Serializable {

  def patterns(p: Parsed): Array[String] = {
    val out = mutable.HashSet.empty[String]
    val n   = p.length

    // TokensRegex phrases
    var i = 0
    while (i < n) {
      val sb = new StringBuilder("G:")
      var len = 1
      while (len <= Heuristic.MaxPhraseLen && i + len <= n) {
        if (len > 1) sb.append(' ')
        sb.append(p.tokens(i + len - 1))
        out += sb.toString
        len += 1
      }
      i += 1
    }

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
    out.toArray
  }
}
