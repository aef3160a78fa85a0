package repro.core

import repro.index.HeuristicIndex
import scala.collection.mutable

/** Candidate-heuristic generation (paper Algorithm 2): greedy best-first
  * expansion of the index from the virtual root '*', repeatedly taking the
  * candidate with the highest coverage over the discovered positives P and
  * adding its index children to the pool. Candidates are pattern numbers.
  */
object CandidateGen {

  /** @return up to ``k`` candidate pattern numbers, in selection order. */
  def generate(index: HeuristicIndex, pos: java.util.BitSet, k: Int): Array[Int] =
    generate(index, Array.tabulate(index.size)(index.posCount(_, pos)), k)

  /** As above, given every pattern's coverage over P: ``posCount(g)`` is
    * |C_g ∩ P|.
    */
  def generate(index: HeuristicIndex, posCount: Array[Int], k: Int): Array[Int] = {
    // Max-heap on (coverage over P, total coverage, number) — ties broken
    // toward higher total coverage (more generic first, as in the paper's
    // "most generic functions at the top"), then by number, which is
    // lexicographic order, for determinism.
    val heap   = mutable.PriorityQueue.empty[Int](
      Ordering.by((g: Int) => (posCount(g), index.postings(g).length, g)))
    val seen   = new java.util.BitSet(index.size)
    val result = new mutable.ArrayBuilder.ofInt

    def push(g: Int): Unit =
      if (!seen.get(g)) { seen.set(g); heap.enqueue(g) }

    index.roots.foreach(push)

    while (result.length < k && heap.nonEmpty) {
      val best = heap.dequeue()
      result.addOne(best)
      index.childrenOf(best).foreach(push)
    }
    result.result()
  }

  /** Hierarchy cleanup (paper §3.2): drop candidates whose coverage adds
    * no sentence beyond the already-discovered positives (C_r ⊆ P).
    */
  def cleanup(index: HeuristicIndex, pos: java.util.BitSet,
              candidates: Array[Int]): Array[Int] =
    candidates.filter(g => index.posCount(g, pos) < index.postings(g).length)
}
