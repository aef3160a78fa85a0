package repro.grammar

import repro.text.Parsed

/** A terminal of the TreeMatch grammar: a token literal or a POS tag. */
sealed trait Term extends Serializable {
  /** The token or the tag itself. */
  def text: String
  def repr: String
  def matchesNode(p: Parsed, i: Int): Boolean
}
object Term {
  final case class Tok(text: String) extends Term {
    val repr = s"t=$text"
    def matchesNode(p: Parsed, i: Int): Boolean = p.tokens(i) == text
  }
  final case class Pos(text: String) extends Term {
    val repr = s"p=$text"
    def matchesNode(p: Parsed, i: Int): Boolean = p.pos(i) == text
  }
  def parse(s: String): Term =
    if (s.startsWith("t=")) Tok(s.substring(2))
    else if (s.startsWith("p=")) Pos(s.substring(2))
    else throw new IllegalArgumentException(s"bad term: $s")

  /** The canonical order of the operands of a commutative heuristic: by
    * ``repr``, so every tag sorts before every token, then by text.
    */
  def leq(a: Term, b: Term): Boolean = a.repr.compareTo(b.repr) <= 0
}

/** A labeling heuristic: a derivation of one of the heuristic grammars
  * (paper §2, Def. 1–2). ``matches`` decides whether a parsed sentence is
  * in the heuristic's coverage set; ``parents`` returns the heuristics
  * obtained by *removing* one derivation step — every parent's coverage is
  * a superset of this heuristic's coverage, which is the invariant the
  * index hierarchy (§3.1–3.2) relies on.
  *
  * Canonical string form (``repr``) round-trips via [[Heuristic.parse]]:
  *  - TokensRegex phrase:   ``G:w1 w2 w3``
  *  - TreeMatch terminal:   ``T:t=word`` / ``T:p=TAG``
  *  - child:                ``T:C(a,b)``  (node a has child b)
  *  - bounded descendant:   ``T:D(a,b)``  (a is ancestor of b, distance <= 3)
  *  - conjunction:          ``T:A(a,b)``  (a and b match distinct nodes)
  *  - two children:         ``T:C2(a,b,c)`` (node a has children b and c),
  *    the paper's ``/is/NOUN∧job`` shape.
  */
sealed trait Heuristic extends Serializable {
  def repr: String
  def matches(p: Parsed): Boolean
  def parents: Seq[Heuristic]
  override def toString: String = repr
}

object Heuristic {

  /** Maximum phrase length emitted by the TokensRegex sketch. */
  val MaxPhraseLen = 4

  /** Maximum ancestor distance for the bounded-descendant operator. */
  val MaxDescDist = 3

  /** TokensRegex: contiguous token phrase; a sentence matches if it
    * contains the phrase (paper Example 2).
    */
  final case class Phrase(words: Vector[String]) extends Heuristic {
    require(words.nonEmpty, "empty phrase")
    val repr: String = "G:" + words.mkString(" ")
    def matches(p: Parsed): Boolean = p.tokens.indexOfSlice(words) >= 0
    def parents: Seq[Heuristic] =
      if (words.length < 2) Nil
      else Seq(Phrase(words.dropRight(1)), Phrase(words.drop(1))).distinct
  }

  /** TreeMatch: a single terminal occurs in the sentence. */
  final case class TermPat(t: Term) extends Heuristic {
    val repr: String = "T:" + t.repr
    def matches(p: Parsed): Boolean = p.tokens.indices.exists(t.matchesNode(p, _))
    def parents: Seq[Heuristic] = Nil
  }

  /** TreeMatch ``a/b``: some node matching ``a`` has a child matching ``b``. */
  final case class ChildPat(a: Term, b: Term) extends Heuristic {
    val repr: String = s"T:C(${a.repr},${b.repr})"
    def matches(p: Parsed): Boolean =
      p.tokens.indices.exists { j =>
        val h = p.heads(j)
        h >= 0 && a.matchesNode(p, h) && b.matchesNode(p, j)
      }
    def parents: Seq[Heuristic] = Seq(DescPat(a, b))
  }

  /** TreeMatch ``a//b``: ``a`` is an ancestor of ``b`` within
    * [[Heuristic.MaxDescDist]] edges (bounded for index tractability; the
    * paper likewise bounds derivation depth).
    */
  final case class DescPat(a: Term, b: Term) extends Heuristic {
    val repr: String = s"T:D(${a.repr},${b.repr})"
    def matches(p: Parsed): Boolean =
      p.tokens.indices.exists { j =>
        b.matchesNode(p, j) && p.tokens.indices.exists { i =>
          a.matchesNode(p, i) && p.isAncestor(i, j, MaxDescDist)
        }
      }
    def parents: Seq[Heuristic] = (a, b) match {
      case (ta: Term.Tok, tb: Term.Tok) => Seq(AndPat.canonical(ta, tb))
      case _                            => Seq(TermPat(a), TermPat(b)).distinct
    }
  }

  /** TreeMatch ``a∧b``: two *distinct* nodes match ``a`` and ``b``.
    * Stored in canonical ([[Term.leq]]) order since conjunction commutes.
    */
  final case class AndPat(a: Term, b: Term) extends Heuristic {
    require(Term.leq(a, b), s"AndPat not canonical: ${a.repr} > ${b.repr}")
    val repr: String = s"T:A(${a.repr},${b.repr})"
    def matches(p: Parsed): Boolean =
      p.tokens.indices.exists { i =>
        a.matchesNode(p, i) && p.tokens.indices.exists(j => j != i && b.matchesNode(p, j))
      }
    def parents: Seq[Heuristic] = Seq(TermPat(a), TermPat(b)).distinct
  }
  object AndPat {
    def canonical(x: Term, y: Term): AndPat =
      if (Term.leq(x, y)) AndPat(x, y) else AndPat(y, x)
  }

  /** TreeMatch ``a/b∧c`` (paper's ``/is/NOUN∧job``): a node matching ``a``
    * with two distinct children matching ``b`` and ``c``. ``b``/``c`` are
    * in canonical ([[Term.leq]]) order.
    */
  final case class Child2Pat(a: Term, b: Term, c: Term) extends Heuristic {
    require(Term.leq(b, c), s"Child2Pat not canonical: ${b.repr} > ${c.repr}")
    val repr: String = s"T:C2(${a.repr},${b.repr},${c.repr})"
    def matches(p: Parsed): Boolean =
      p.tokens.indices.exists { i =>
        a.matchesNode(p, i) && {
          val ch = p.children(i)
          ch.exists(j => b.matchesNode(p, j) &&
            ch.exists(k => k != j && c.matchesNode(p, k)))
        }
      }
    def parents: Seq[Heuristic] = Seq(ChildPat(a, b), ChildPat(a, c)).distinct
  }
  object Child2Pat {
    def canonical(a: Term, x: Term, y: Term): Child2Pat =
      if (Term.leq(x, y)) Child2Pat(a, x, y) else Child2Pat(a, y, x)
  }

  private val TwoArg   = """T:([CDA])\(([^,()]+),([^,()]+)\)""".r
  private val ThreeArg = """T:C2\(([^,()]+),([^,()]+),([^,()]+)\)""".r

  /** Parse a canonical ``repr`` back into a heuristic (inverse of repr). */
  def parse(s: String): Heuristic = s match {
    case g if g.startsWith("G:") =>
      Phrase(g.substring(2).split(' ').toVector)
    case ThreeArg(a, b, c) =>
      Child2Pat(Term.parse(a), Term.parse(b), Term.parse(c))
    case TwoArg(op, a, b) =>
      val (ta, tb) = (Term.parse(a), Term.parse(b))
      op match {
        case "C" => ChildPat(ta, tb)
        case "D" => DescPat(ta, tb)
        case "A" => AndPat(ta, tb)
      }
    case t if t.startsWith("T:") =>
      TermPat(Term.parse(t.substring(2)))
    case other =>
      throw new IllegalArgumentException(s"unparseable heuristic: $other")
  }
}
