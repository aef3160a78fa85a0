package repro.weak

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Darwin, ExactOracle, Strategy}
import repro.data.Datasets
import repro.{SparkSpec, TestCorpora}

/** `LabelModel.fit` as it was with one list of firing rules per sentence,
  * built by prepending: each sentence sums its rules in descending rule
  * index. The fit must reproduce these posteriors bit for bit.
  */
object ReferenceLabelModel {
  def posterior(coverages: Vector[Array[Int]], n: Int,
                iters: Int = 25, prior: Double = 0.5): Array[Double] = {
    val m = coverages.length
    val covered = Array.fill(n)(List.empty[Int])
    for (j <- 0 until m; s <- coverages(j)) covered(s) ::= j
    val a = Array.fill(m)(0.7)
    val q = new Array[Double](n)
    def clamp(x: Double, lo: Double = 1e-6, hi: Double = 1 - 1e-6): Double =
      math.max(lo, math.min(hi, x))
    val logPrior = math.log(clamp(prior)) - math.log(clamp(1 - prior))
    var it = 0
    while (it < iters) {
      var s = 0
      while (s < n) {
        var cs = covered(s)
        if (cs.isEmpty) q(s) = 0.0
        else {
          var logit = logPrior
          while (cs.nonEmpty) {
            val j = cs.head
            logit += math.log(clamp(a(j))) - math.log(clamp(1 - a(j)))
            cs = cs.tail
          }
          q(s) = 1.0 / (1.0 + math.exp(-logit))
        }
        s += 1
      }
      var j = 0
      while (j < m) {
        val ids = coverages(j)
        if (ids.nonEmpty) {
          var cq = 0.0; var i = 0
          while (i < ids.length) { cq += q(ids(i)); i += 1 }
          a(j) = clamp(cq / ids.length, 0.05, 0.95)
        }
        j += 1
      }
      it += 1
    }
    q
  }

  def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
}

class LabelModelFitSpec extends AnyFunSuite {

  test("covered sentences get higher posterior than uncovered ones") {
    val fit = LabelModel.fit(Vector(Array(0, 1, 2), Array(1, 2, 3)), 10)
    val covered = Seq(0, 1, 2, 3).map(fit(_))
    val uncovered = Seq(5, 6, 7).map(fit(_))
    assert(covered.min > uncovered.max)
  }

  test("multiply-covered sentences get the highest posterior") {
    val fit = LabelModel.fit(Vector(Array(0, 1), Array(1, 2), Array(1, 3)), 12)
    assert(fit(1) >= fit(0))
    assert(fit(1) >= fit(2))
  }

  test("posteriors are valid probabilities") {
    val fit = LabelModel.fit(Vector(Array(0, 1, 2), Array(4, 5)), 8)
    assert(fit.forall(p => p >= 0.0 && p <= 1.0))
  }

  test("a rule disjoint from all others is downweighted relative to corroborated rules") {
    // rules 1..3 heavily overlap; rule 4 fires alone on different sentences
    val fit = LabelModel.fit(Vector(
      Array(0, 1, 2, 3), Array(0, 1, 2, 4), Array(1, 2, 3, 4),
      Array(10, 11, 12, 13)), 20)
    val corroborated = Seq(1, 2).map(fit(_)).min
    val lone = Seq(10, 11).map(fit(_)).max
    assert(corroborated >= lone - 1e-9)
  }

  test("single labeling function is accepted") {
    val fit = LabelModel.fit(Vector(Array(2, 3)), 5)
    assert(fit(2) > fit(0))
  }

  test("empty rule set is rejected") {
    intercept[IllegalArgumentException](LabelModel.fit(Vector.empty, 4))
  }

  test("posteriors are bit-equal to the list-based fit on handmade coverages") {
    // At prior 0.5 the log prior is 0, so a sentence's sum depends on the
    // order of its rules only when three or more fire; the last case,
    // at prior 0.3, differs in the ascending order.
    for ((covs, n) <- Seq(
      Vector(Array(0, 1, 2), Array(1, 2, 3)) -> 10,
      Vector(Array(0, 1, 2, 3), Array(0, 1, 2, 4), Array(1, 2, 3, 4), Array(10, 11, 12, 13)) -> 20,
      Vector(Array.empty[Int], Array(4), Array(0, 4, 5), Array(4, 5)) -> 6,
      Vector(Array(2, 3)) -> 5,
      Vector(Array(2, 4, 5, 6, 8, 11), Array(1, 4, 7, 8, 10, 11), Array(3, 5, 9),
             Array(2, 3, 5, 8)) -> 12);
         prior <- Seq(0.5, 0.3)) {
      assert(ReferenceLabelModel.bits(LabelModel.fit(covs, n, prior = prior)) ===
             ReferenceLabelModel.bits(ReferenceLabelModel.posterior(covs, n, prior = prior)))
    }
  }

  test("EM is deterministic") {
    val covs = Vector(Array(0, 1, 2), Array(2, 3))
    val a = LabelModel.fit(covs, 6)
    val b = LabelModel.fit(covs, 6)
    assert(a.toSeq === b.toSeq)
  }
}

class LabelModelEndToEndSpec extends SparkSpec {

  test("denoise keeps the bulk of Darwin's positives and does not hurt precision much") {
    val prep = TestCorpora.tweetsSmall(spark)
    val oracle = new ExactOracle(prep.gt)
    val res = new Darwin(prep, oracle).run("G:craving", 50, Strategy.HybridSearch())
    val denoised = LabelModel.denoise(prep, res.rules.map(prep.index.ids))
    assert(denoised.cardinality() > 0)
    val before = prep.precisionOf(res.positives)
    val after  = prep.precisionOf(denoised)
    assert(after >= before - 0.1, s"denoise precision $after vs $before")
  }

  test("posteriors are bit-equal to the list-based fit on each small corpus's rules") {
    val corpora = Seq(
      TestCorpora.tweetsSmall(spark) -> Datasets.tweets,
      TestCorpora.directionsSmall(spark) -> Datasets.directions,
      TestCorpora.musiciansSmall(spark) -> Datasets.musicians,
      TestCorpora.causeEffectSmall(spark) -> Datasets.causeEffect,
      TestCorpora.professionsSmall(spark) -> Datasets.professions)
    for ((prep, spec) <- corpora) {
      val res  = new Darwin(prep, new ExactOracle(prep.gt)).run(spec.seedRule, 100, Strategy.HybridSearch())
      val covs = res.rules.map(prep.index.ids)
      assert(covs.length > 1, s"${spec.name}: ${res.rules}")
      for (prior <- Seq(0.5, 0.3))
        assert(ReferenceLabelModel.bits(LabelModel.fit(covs, prep.n, prior = prior)) ===
               ReferenceLabelModel.bits(ReferenceLabelModel.posterior(covs, prep.n, prior = prior)),
               s"${spec.name} prior=$prior")
    }
  }
}
