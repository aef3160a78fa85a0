package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("prf basic arithmetic") {
    val m = Metrics.prf(tp = 8, fp = 2, fn = 2)
    assert(m.precision === 0.8)
    assert(m.recall === 0.8)
    assert(math.abs(m.f1 - 0.8) < 1e-12)
  }

  test("prf degenerate cases") {
    assert(Metrics.prf(0, 0, 0) === Metrics.PRF(0, 0, 0))
    assert(Metrics.prf(0, 5, 0).precision === 0.0)
    assert(Metrics.prf(0, 0, 5).recall === 0.0)
  }

  test("ofBitset counts tp/fp/fn") {
    val gt = new java.util.BitSet(6); Seq(0, 1, 2).foreach(gt.set)
    val pr = new java.util.BitSet(6); Seq(1, 2, 3).foreach(pr.set)
    val m = Metrics.ofBitset(pr, gt)
    assert(m.precision === 2.0 / 3)
    assert(m.recall === 2.0 / 3)
  }

  test("perfect prediction yields F1 = 1") {
    val gt = new java.util.BitSet(4); Seq(1, 3).foreach(gt.set)
    val m = Metrics.ofBitset(gt, gt)
    assert(m.f1 === 1.0)
  }

  test("renderTable aligns columns") {
    val t = Experiments.renderTable(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.split('\n')
    assert(lines.length === 4)
    assert(lines.map(_.length).distinct.length === 1)
  }
}
