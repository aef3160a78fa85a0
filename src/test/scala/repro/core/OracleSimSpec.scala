package repro.core

import org.scalatest.funsuite.AnyFunSuite

class OracleSimSpec extends AnyFunSuite {

  private def gtOf(pos: Seq[Int], n: Int): java.util.BitSet = {
    val bs = new java.util.BitSet(n); pos.foreach(bs.set); bs
  }

  test("exact oracle: YES iff precision >= 0.8") {
    val oracle = new ExactOracle(gtOf(0 until 8, 10))
    assert(oracle.query((0 until 10).toArray) === true)   // 8/10
    assert(oracle.query((0 until 9).toArray) === true)    // 8/9
    assert(oracle.query(Array(0, 1, 8, 9)) === false)     // 2/4
  }

  test("exact oracle counts queries") {
    val oracle = new ExactOracle(gtOf(Seq(0), 4))
    assert(oracle.queries === 0)
    oracle.query(Array(0)); oracle.query(Array(1))
    assert(oracle.queries === 2)
  }

  test("exact oracle: empty coverage is rejected") {
    val oracle = new ExactOracle(gtOf(Seq(0), 4))
    assert(oracle.query(Array.empty) === false)
  }

  test("exact oracle precision helper") {
    val oracle = new ExactOracle(gtOf(Seq(0, 1), 6))
    assert(oracle.precision(Array(0, 1, 2, 3)) === 0.5)
    assert(oracle.precision(Array.empty) === 0.0)
  }

  test("sample oracle is deterministic given a seed") {
    val gt = gtOf(0 until 50, 100)
    val o1 = new SampleOracle(gt, seed = 3)
    val o2 = new SampleOracle(gt, seed = 3)
    val cov = (0 until 100).toArray
    assert((1 to 10).map(_ => o1.query(cov)) === (1 to 10).map(_ => o2.query(cov)))
  }

  test("sample oracle accepts pure rules and rejects pure-noise rules") {
    val gt = gtOf(0 until 50, 100)
    val o  = new SampleOracle(gt, seed = 5)
    assert(o.query((0 until 50).toArray) === true)     // all positive
    assert(o.query((50 until 100).toArray) === false)  // all negative
  }

  test("sample oracle makes occasional mistakes on borderline rules (the §4.5 error mode)") {
    // rule with true precision 0.7 (< 0.8): the exact oracle always says NO,
    // the 5-sample oracle sometimes draws 4+ positives and says YES.
    val gt  = gtOf(0 until 70, 100)
    val cov = (0 until 100).toArray
    val exact = new ExactOracle(gt)
    assert(exact.query(cov) === false)
    val noisy = new SampleOracle(gt, seed = 11)
    val yesses = (1 to 200).count(_ => noisy.query(cov))
    assert(yesses > 0, "expected at least one false YES")
    assert(yesses < 200, "expected at least one NO")
  }

  test("instance oracle labels from ground truth and counts queries") {
    val oracle = new InstanceOracle(gtOf(Seq(1, 3), 5))
    assert(oracle.label(1) === 1)
    assert(oracle.label(2) === 0)
    assert(oracle.queries === 2)
  }
}
