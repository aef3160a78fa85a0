package repro.core

import repro.{SparkSpec, TestCorpora}
import repro.index.{HeuristicIndex, IndexEntry}

class CandidateGenSpec extends SparkSpec {

  /** Handcrafted index:
    *   G:a (0..5)  >  G:a b (0..3)  >  G:a b c (0,1)
    *   G:x (6..9)  >  G:x y (6,7)
    */
  private val idx = HeuristicIndex.fromEntries(10, Map(
    "G:a"     -> IndexEntry("G:a", Array(0, 1, 2, 3, 4, 5)),
    "G:a b"   -> IndexEntry("G:a b", Array(0, 1, 2, 3)),
    "G:a b c" -> IndexEntry("G:a b c", Array(0, 1)),
    "G:b"     -> IndexEntry("G:b", Array(0, 1, 2, 3)),
    "G:b c"   -> IndexEntry("G:b c", Array(0, 1)),
    "G:c"     -> IndexEntry("G:c", Array(0, 1)),
    "G:x"     -> IndexEntry("G:x", Array(6, 7, 8, 9)),
    "G:x y"   -> IndexEntry("G:x y", Array(6, 7)),
    "G:y"     -> IndexEntry("G:y", Array(6, 7)),
  ))

  private def bits(is: Int*): java.util.BitSet = {
    val b = new java.util.BitSet(10); is.foreach(b.set); b
  }

  private def generate(pos: java.util.BitSet, k: Int): Vector[String] =
    CandidateGen.generate(idx, pos, k).toVector.map(idx.patterns(_))

  private def cleanup(pos: java.util.BitSet, candidates: String*): Vector[String] =
    CandidateGen.cleanup(idx, pos, candidates.map(idx.id).toArray).toVector.map(idx.patterns(_))

  test("greedy picks the candidate with most coverage over P first") {
    val got = generate(bits(0, 1, 2, 3), 3)
    assert(got.head === "G:a") // posCount 4, count 6 beats G:b (4,4) on count
  }

  test("children of the selected candidate join the pool") {
    val got = generate(bits(0, 1, 2, 3), 9)
    assert(got.contains("G:a b"))
    assert(got.contains("G:a b c"))
  }

  test("generates exactly k candidates when available") {
    assert(generate(bits(0), 4).length === 4)
  }

  test("returns fewer than k when the index is exhausted") {
    val got = generate(bits(0), 100)
    assert(got.length === idx.size)
    assert(got.distinct.length === got.length)
  }

  test("empty P still yields candidates (count tie-break)") {
    val got = generate(bits(), 2)
    assert(got.nonEmpty)
    // with all posCounts 0, highest total coverage wins
    assert(got.head === "G:a")
  }

  test("disjoint-cluster candidates are still reachable") {
    val got = generate(bits(6, 7), 9)
    assert(got.head === "G:x")
    assert(got.contains("G:x y"))
  }

  test("cleanup drops candidates fully inside P") {
    val p = bits(0, 1)
    val kept = cleanup(p, "G:a", "G:a b c", "G:c")
    assert(kept === Vector("G:a")) // G:a b c and G:c are ⊆ P
  }

  test("cleanup keeps candidates with any fresh coverage") {
    val kept = cleanup(bits(0), "G:a b c", "G:x y")
    assert(kept === Vector("G:a b c", "G:x y"))
  }

  test("full selection order: (posCount, count) ties go to the larger repr") {
    // G:b and G:a b tie at (2, 4); G:c, G:b c and G:a b c at (2, 2); G:y
    // and G:x y at (0, 2)
    assert(generate(bits(0, 1), 9) === Vector(
      "G:a", "G:b", "G:a b", "G:c", "G:b c", "G:a b c", "G:x", "G:y", "G:x y"))
  }

  test("every indexed pattern is reachable from the roots on the small corpora") {
    for ((spec, corpus) <- TestCorpora.small) {
      val index = corpus(spark).index
      val got   = CandidateGen.generate(index, new java.util.BitSet, index.size)
      assert(got.sorted.toSeq === (0 until index.size), spec.name)
    }
  }

  test("determinism: same inputs give same candidate order") {
    val a = generate(bits(0, 1, 6), 9)
    val b = generate(bits(0, 1, 6), 9)
    assert(a === b)
  }
}
