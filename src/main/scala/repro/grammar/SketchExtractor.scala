package repro.grammar

import repro.text.{Parsed, Vocab}
import scala.collection.mutable

/** Derivation-sketch extraction (paper §3.1).
  *
  * For a parsed sentence, enumerates every heuristic *in the indexed
  * family* that the sentence satisfies. Each Spark partition of the index
  * build sketches each of its distinct texts once, and the driver merges
  * the partitions' sentence classes once — the paper's "build per-part
  * sketches, then merge" parallel index construction (see
  * [[repro.index.HeuristicIndex]]).
  *
  * Indexed family (bounded so the index stays linear in corpus size, as
  * the paper's fixed derivation depth does):
  *  - phrases of length 1..[[Heuristic.MaxPhraseLen]];
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
  * The enumeration builds no strings. [[SketchExtractor.keys]] emits each
  * pattern as a packed ``Long`` key: the kind (G, T, C, D, A or C2) in the
  * top bits, then two int ids of a [[SketchExtractor.Dictionary]]. The
  * dictionary numbers every token and POS tag it meets (one id space), and
  * interns term sequences — phrases and a C2 head with its first child —
  * as a trie of ``(prefix id, term id)``, so every key is ``(kind, id,
  * id)``. A dictionary is local to one enumeration context (a Spark
  * partition, or one [[SketchExtractor.patterns]] call); ids mean nothing
  * outside it. [[SketchExtractor.decode]] turns a key back into the
  * [[Heuristic]] it stands for and returns its canonical ``repr``, once
  * per distinct key; the dictionary keeps [[Term]]s and no notation.
  *
  * Extraction is complete for this family: ``patterns(p).contains(h.repr)``
  * iff ``h.matches(p)`` for every family heuristic ``h`` (tested).
  */

object SketchExtractor extends Serializable {

  /** Bits of each of the two ids in a key; the kind sits above them. */
  private final val IdBits = 30
  private final val IdMask = (1L << IdBits) - 1

  /** Number of ids a [[Dictionary]] can hand out before it fails. */
  private final val MaxIds = 1 << IdBits

  private final val G  = 1
  private final val T  = 2
  private final val C  = 3
  private final val D  = 4
  private final val A  = 5
  private final val C2 = 6

  private def key(kind: Int, a: Int, b: Int): Long =
    (kind.toLong << (2 * IdBits)) | (a.toLong << IdBits) | b

  /** Ids for the tokens, POS tags and term sequences that keys refer to.
    * A token and a tag with the same text get different ids. A sequence
    * id is the trie node ``(prefix id, last term id)``; a one-term
    * sequence is the term itself. Handing out more than ``limit`` ids
    * ([[MaxIds]], all that fit in a key) fails a ``require``, so two
    * patterns never share a key.
    */
  final class Dictionary private[grammar] (limit: Int) {
    def this() = this(MaxIds)

    private val tokens = mutable.HashMap.empty[String, Int]
    private val tags   = mutable.HashMap.empty[String, Int]
    private val nodes  = mutable.LongMap.empty[Int]
    // per id: the sequence's prefix id (-1 for a term) and its last term;
    // per term id: the term (null for a longer sequence)
    private var prefixOf = new Array[Int](64)
    private var lastOf   = new Array[Int](64)
    private var termOf   = new Array[Term](64)
    private var size     = 0

    def token(w: String): Int = tokens.getOrElseUpdate(w, add(-1, -1, Term.Tok(w)))
    def tag(t: String): Int   = tags.getOrElseUpdate(t, add(-1, -1, Term.Pos(t)))

    /** The sequence ``prefix`` followed by the term ``term``. */
    def node(prefix: Int, term: Int): Int = {
      val k  = (prefix.toLong << 32) | term
      val id = nodes.getOrElse(k, -1)
      if (id >= 0) id
      else { val added = add(prefix, term, null); nodes.update(k, added); added }
    }

    /** Canonical order of two term ids: their terms' [[Term.leq]]. */
    def termLeq(x: Int, y: Int): Boolean = Term.leq(termOf(x), termOf(y))

    def prefix(id: Int): Int = prefixOf(id)
    def last(id: Int): Int   = lastOf(id)
    def term(id: Int): Term  = termOf(id)

    private def add(prefix: Int, last: Int, term: Term): Int = {
      require(size < limit, s"sketch dictionary overflow: more than $limit terms and sequences")
      if (size == prefixOf.length) {
        val cap = if (size <= limit / 2) size * 2 else limit
        prefixOf = java.util.Arrays.copyOf(prefixOf, cap)
        lastOf   = java.util.Arrays.copyOf(lastOf, cap)
        termOf   = java.util.Arrays.copyOf(termOf, cap)
      }
      val id = size
      prefixOf(id) = prefix
      lastOf(id)   = if (prefix < 0) id else last
      termOf(id)   = term
      size += 1
      id
    }
  }

  /** The distinct canonical ``repr``s of every family pattern ``p``
    * satisfies: its keys, under a fresh dictionary, deduplicated and
    * decoded.
    */
  def patterns(p: Parsed): Array[String] = {
    val dict = new Dictionary
    val out  = new mutable.ArrayBuilder.ofLong
    keys(p, dict)(k => out.addOne(k))
    val ks = out.result()
    java.util.Arrays.sort(ks)
    val distinct = mutable.ArrayBuilder.make[String]
    var i = 0
    while (i < ks.length) {
      if (i == 0 || ks(i) != ks(i - 1)) distinct.addOne(decode(ks(i), dict))
      i += 1
    }
    distinct.result()
  }

  /** Emits the key of every family pattern ``p`` satisfies, interning its
    * terms in ``dict``. A pattern may be emitted more than once per
    * sentence; the caller deduplicates.
    *
    * The A and C2 operands are put in [[Term.leq]] order
    * ([[Dictionary.termLeq]]), never by id, so every key decodes to a
    * canonical [[Heuristic]].
    */
  def keys(p: Parsed, dict: Dictionary)(emit: Long => Unit): Unit = {
    val n   = p.length
    val tok = new Array[Int](n)
    var i = 0
    while (i < n) { tok(i) = dict.token(p.tokens(i)); i += 1 }

    // TokensRegex phrases
    i = 0
    while (i < n) {
      var phrase = tok(i)
      var len    = 1
      while (len <= Heuristic.MaxPhraseLen && i + len <= n) {
        if (len > 1) phrase = dict.node(phrase, tok(i + len - 1))
        emit(key(G, phrase, 0))
        len += 1
      }
      i += 1
    }

    // terminals
    val tag = new Array[Int](n)
    i = 0
    while (i < n) {
      tag(i) = dict.tag(p.pos(i))
      emit(key(T, tok(i), 0))
      emit(key(T, tag(i), 0))
      i += 1
    }

    // ChildPat + DescPat along ancestor chains, all 4 Tok/Pos combos
    def ancestor(a: Int, b: Int, child: Boolean): Unit = {
      if (child) emit(key(C, a, b))
      emit(key(D, a, b))
    }
    var j = 0
    while (j < n) {
      var anc  = p.heads(j)
      var dist = 1
      while (anc >= 0 && dist <= Heuristic.MaxDescDist) {
        ancestor(tok(anc), tok(j), dist == 1)
        ancestor(tok(anc), tag(j), dist == 1)
        ancestor(tag(anc), tok(j), dist == 1)
        ancestor(tag(anc), tag(j), dist == 1)
        anc = p.heads(anc); dist += 1
      }
      j += 1
    }

    // AndPat over content-token position pairs
    val content = new Array[Int](n)
    var m = 0
    i = 0
    while (i < n) { if (Vocab.contentPos(p.pos(i))) { content(m) = i; m += 1 }; i += 1 }
    var x = 0
    while (x < m) {
      var y = x + 1
      while (y < m) {
        val a = tok(content(x))
        val b = tok(content(y))
        if (dict.termLeq(a, b)) emit(key(A, a, b)) else emit(key(A, b, a))
        y += 1
      }
      x += 1
    }

    // Child2Pat: token head with two children; combos (t,t),(p,t),(t,p)
    def child2(head: Int, b: Int, c: Int): Unit =
      if (dict.termLeq(b, c)) emit(key(C2, dict.node(head, b), c))
      else emit(key(C2, dict.node(head, c), b))
    val ch = new Array[Int](n)
    i = 0
    while (i < n) {
      var k = 0
      j = 0
      while (j < n) { if (p.heads(j) == i) { ch(k) = j; k += 1 }; j += 1 }
      var u = 0
      while (u < k) {
        var v = u + 1
        while (v < k) {
          val cu = ch(u)
          val cv = ch(v)
          child2(tok(i), tok(cu), tok(cv))
          child2(tok(i), tag(cu), tok(cv))
          child2(tok(i), tok(cu), tag(cv))
          v += 1
        }
        u += 1
      }
      i += 1
    }
  }

  /** The canonical ``repr`` of the [[Heuristic]] a key emitted with
    * ``dict`` stands for.
    */
  def decode(k: Long, dict: Dictionary): String = {
    val a = ((k >>> IdBits) & IdMask).toInt
    val b = (k & IdMask).toInt
    val h = (k >>> (2 * IdBits)).toInt match {
      case G  => Heuristic.Phrase(words(a, dict))
      case T  => Heuristic.TermPat(dict.term(a))
      case C  => Heuristic.ChildPat(dict.term(a), dict.term(b))
      case D  => Heuristic.DescPat(dict.term(a), dict.term(b))
      case A  => Heuristic.AndPat(dict.term(a), dict.term(b))
      case C2 => Heuristic.Child2Pat(dict.term(dict.prefix(a)), dict.term(dict.last(a)), dict.term(b))
    }
    h.repr
  }

  /** The words of the phrase with sequence id ``id``. */
  private def words(id: Int, dict: Dictionary): Vector[String] = {
    val w = dict.term(dict.last(id)).text
    if (dict.prefix(id) < 0) Vector(w) else words(dict.prefix(id), dict) :+ w
  }

  /** Is ``h`` a member of the indexed family for some sentence? Used by
    * tests to scope the completeness check.
    */
  def inFamily(h: Heuristic): Boolean = h match {
    case Heuristic.Phrase(ws) => ws.length <= Heuristic.MaxPhraseLen
    case _: Heuristic.TermPat | _: Heuristic.ChildPat | _: Heuristic.DescPat => true
    case Heuristic.AndPat(a, b) =>
      (a, b).productIterator.forall {
        case Term.Tok(w) => Vocab.contentPos(Vocab.info(w).pos)
        case _           => false
      }
    case Heuristic.Child2Pat(a, b, c) =>
      a.isInstanceOf[Term.Tok] && !(b.isInstanceOf[Term.Pos] && c.isInstanceOf[Term.Pos])
  }
}
