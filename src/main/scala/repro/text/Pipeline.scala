package repro.text

/** A parsed sentence: tokens, universal POS tags, and dependency heads.
  *
  * ``heads(i)`` is the index of token i's head in the dependency tree, or
  * -1 for the root. Produced deterministically by [[Pipeline.parse]], the
  * SpaCy substitute (see DESIGN.md).
  */
final case class Parsed(tokens: Array[String], pos: Array[String], heads: Array[Int]) {
  require(tokens.length == pos.length && tokens.length == heads.length,
          "tokens/pos/heads must be aligned")

  def length: Int = tokens.length

  /** Children of node i, in token order. */
  def children(i: Int): IndexedSeq[Int] = tokens.indices.filter(heads(_) == i)

  /** Depth-bounded ancestor check: is ``anc`` an ancestor of ``desc``
    * within ``maxDist`` edges? (distance 1 = direct parent).
    */
  def isAncestor(anc: Int, desc: Int, maxDist: Int): Boolean = {
    var cur = heads(desc); var d = 1
    while (cur != -1 && d <= maxDist) {
      if (cur == anc) return true
      cur = heads(cur); d += 1
    }
    false
  }

  override def equals(o: Any): Boolean = o match {
    case p: Parsed =>
      tokens.sameElements(p.tokens) && pos.sameElements(p.pos) && heads.sameElements(p.heads)
    case _ => false
  }
  override def hashCode: Int =
    java.util.Arrays.hashCode(tokens.asInstanceOf[Array[AnyRef]])
}

/** Deterministic NLP pipeline: tokenizer + lexicon POS tagger + rule-based
  * dependency parser. Substitutes for SpaCy (DESIGN.md substitution 2):
  * the Darwin algorithms only need *consistent* tags and trees so that
  * TreeMatch patterns have stable coverage sets.
  */
object Pipeline extends Serializable {

  /** Lowercase, then emit the runs of letters, digits and apostrophes;
    * every other char (a UTF-16 unit, so each half of a surrogate pair)
    * separates tokens.
    */
  def tokenize(text: String): Array[String] = {
    val s    = text.toLowerCase
    val out  = Array.newBuilder[String]
    var from = -1
    var i    = 0
    while (i <= s.length) {
      val inToken = i < s.length && { val c = s.charAt(i); c.isLetterOrDigit || c == '\'' }
      if (inToken && from < 0) from = i
      else if (!inToken && from >= 0) { out += s.substring(from, i); from = -1 }
      i += 1
    }
    out.result()
  }

  /** Lexicon lookup with suffix fallback. */
  def tag(tokens: Array[String]): Array[String] = tokens.map(Vocab.info(_).pos)

  private val verbal = Set("VERB", "AUX")

  /** Rule-based dependency parser.
    *
    * Head assignment (first match wins):
    *  - root: first VERB, else first AUX, else first NOUN/PROPN, else token 0;
    *  - VERB/AUX (non-root): attach to root;
    *  - DET/ADJ: next NOUN/PROPN to the right, else root;
    *  - NOUN/PROPN/PRON: nearest ADP within 2 tokens to the left, else
    *    nearest VERB/AUX to the left, else root;
    *  - ADP/ADV/other: nearest VERB/AUX to the left, else root.
    *
    * The result is always a forest rooted at a single root (acyclic: every
    * non-root token attaches to the root or to a token resolved without
    * reference to this token's own subtree; ADP->verb, NOUN->ADP/verb,
    * DET/ADJ->NOUN form no cycles because chains terminate at the root).
    */
  def parseTree(tokens: Array[String], pos: Array[String]): Array[Int] = {
    val n = tokens.length
    val heads = Array.fill(n)(-1)
    if (n == 0) return heads
    val root = {
      val v = pos.indexOf("VERB")
      if (v >= 0) v
      else {
        val a = pos.indexOf("AUX")
        if (a >= 0) a
        else {
          val nn = pos.indexWhere(p => p == "NOUN" || p == "PROPN")
          if (nn >= 0) nn else 0
        }
      }
    }
    def nextNounRight(i: Int): Int = {
      var j = i + 1
      while (j < n) { if (pos(j) == "NOUN" || pos(j) == "PROPN") return j; j += 1 }
      root
    }
    def nearestVerbalLeft(i: Int): Int = {
      var j = i - 1
      while (j >= 0) { if (verbal(pos(j))) return j; j -= 1 }
      root
    }
    def nearestAdpLeftWithin(i: Int, w: Int): Int = {
      var j = i - 1
      while (j >= 0 && i - j <= w) { if (pos(j) == "ADP") return j; j -= 1 }
      -1
    }
    var i = 0
    while (i < n) {
      if (i != root) {
        heads(i) = pos(i) match {
          case "VERB" | "AUX" => root
          case "DET" | "ADJ"  => val h = nextNounRight(i); if (h == i) root else h
          case "NOUN" | "PROPN" | "PRON" =>
            val adp = nearestAdpLeftWithin(i, 2)
            if (adp >= 0) adp else nearestVerbalLeft(i)
          case _ => nearestVerbalLeft(i)
        }
        if (heads(i) == i) heads(i) = root // defensive: never self-loop
      }
      i += 1
    }
    heads
  }

  /** Full pipeline: text -> Parsed. */
  def parse(text: String): Parsed = {
    val toks = tokenize(text)
    val tags = tag(toks)
    Parsed(toks, tags, parseTree(toks, tags))
  }
}
