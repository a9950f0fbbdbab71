package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bn.{NetworkGenerator, TestNets}
import repro.counter.CounterLayout
import repro.eval.Networks

class EpsilonAllocationSpec extends AnyFunSuite {
  private val eps = 0.1
  private val net = TestNets.random20

  test("every allocation rejects an eps that is not positive and finite, naming it") {
    for (bad <- Seq(0.0, -0.1, Double.NaN, Double.PositiveInfinity)) {
      val made: Seq[() => EpsilonAllocation] = Seq(() => EpsilonAllocation.Baseline(bad, net.n),
        () => EpsilonAllocation.Uniform(bad, net.n), () => EpsilonAllocation.NonUniform(bad, net),
        () => EpsilonAllocation.NaiveBayes(bad, net.card))
      for (make <- made) {
        val e = intercept[IllegalArgumentException](make())
        assert(e.getMessage.contains(s"eps = $bad"), e.getMessage)
      }
    }
  }

  test("baseline sets every error to eps/(3n)") {
    val a = EpsilonAllocation.Baseline(eps, 20)
    assert(math.abs(a.nu(3) - eps / 60.0) < 1e-15)
    assert(a.nu(0) == a.mu(19))
  }

  test("uniform sets every error to eps/(16 sqrt n)") {
    val a = EpsilonAllocation.Uniform(eps, 25)
    assert(math.abs(a.nu(7) - eps / 80.0) < 1e-15)
    assert(a.nu(0) == a.mu(24))
  }

  test("uniform is looser than baseline once n > (16/3)^2 ≈ 28.4") {
    val small = 20
    val big = 37
    assert(EpsilonAllocation.Uniform(eps, small).nu(0) < EpsilonAllocation.Baseline(eps, small).nu(0))
    assert(EpsilonAllocation.Uniform(eps, big).nu(0) > EpsilonAllocation.Baseline(eps, big).nu(0))
  }

  test("nonuniform child errors satisfy the variance budget with equality: Σν² = ε²/256") {
    val a = EpsilonAllocation.NonUniform(eps, net)
    val s = EpsilonAllocation.varianceBudget((0 until net.n).map(a.nu))
    assert(math.abs(s - eps * eps / 256.0) < 1e-12, s"sum=$s")
  }

  test("nonuniform parent errors satisfy the variance budget with equality: Σμ² = ε²/256") {
    val a = EpsilonAllocation.NonUniform(eps, net)
    val s = EpsilonAllocation.varianceBudget((0 until net.n).map(a.mu))
    assert(math.abs(s - eps * eps / 256.0) < 1e-12, s"sum=$s")
  }

  test("nonuniform gives looser error to higher-cardinality variables") {
    val a = EpsilonAllocation.NonUniform(eps, Array(2, 20), Array(1, 1))
    assert(a.nu(1) > a.nu(0))
  }

  test("nonuniform equals uniform when all JᵢKᵢ are equal") {
    // all cards 2, no parents → JK = 2 for every variable
    val cards = Array.fill(16)(2)
    val parents = Array.fill(16)(1)
    val nu = EpsilonAllocation.NonUniform(eps, cards, parents)
    val un = EpsilonAllocation.Uniform(eps, 16)
    (0 until 16).foreach(i => assert(math.abs(nu.nu(i) - un.nu(i)) < 1e-15))
  }

  test("nonuniform is the cost optimum among budget-feasible allocations") {
    // Communication cost model: Σ JᵢKᵢ/νᵢ subject to Σνᵢ² = ε²/256 (Eq. 5).
    val a = EpsilonAllocation.NonUniform(eps, net)
    val jk = (0 until net.n).map(i => net.card(i).toDouble * net.parentCard(i))
    val opt = (0 until net.n).map(i => jk(i) / a.nu(i)).sum
    // Perturb: move budget between two coordinates, renormalize, cost must not drop.
    for (shift <- Seq(0.9, 1.1)) {
      val nus = (0 until net.n).map(i => if (i == 0) a.nu(i) * shift else a.nu(i)).toArray
      val scale = math.sqrt(eps * eps / 256.0 / EpsilonAllocation.varianceBudget(nus.toSeq))
      val feasible = nus.map(_ * scale)
      val cost = (0 until net.n).map(i => jk(i) / feasible(i)).sum
      assert(cost >= opt - 1e-9, s"perturbed cost $cost < optimal $opt")
    }
  }

  test("gamma matches Theorem 2's closed form on a hand example") {
    // two variables: J=(2,3), K=(1,2) → a = (2)^{2/3} + (6)^{2/3}; b = 1 + 2^{2/3}
    val g = EpsilonAllocation.gamma(Array(2, 3), Array(1, 2))
    val a = math.pow(2, 2.0 / 3) + math.pow(6, 2.0 / 3)
    val b = 1 + math.pow(2, 2.0 / 3)
    assert(math.abs(g - (math.pow(a, 1.5) + math.pow(b, 1.5))) < 1e-12)
  }

  test("tree-network gamma (Lemma 10) scales like n^1.5 J^2 for uniform cards") {
    val j = 4.0
    def gammaTree(n: Int): Double =
      EpsilonAllocation.gamma(Array.fill(n)(j.toInt), Array.fill(n)(j.toInt))
    // gamma(n) = (n (J²)^{2/3})^{3/2} + (n J^{2/3})^{3/2} = n^{1.5}(J² + J)
    assert(math.abs(gammaTree(16) - math.pow(16, 1.5) * (j * j + j)) < 1e-6)
    assert(math.abs(gammaTree(64) / gammaTree(16) - 8.0) < 1e-9)
  }

  test("Section 4.5 comparison: nonuniform beats uniform's bound on a skewed tree") {
    // n-1 binary leaves + one J-ary leaf, all K = 2 (tree, X1 a leaf).
    val n = 64
    val bigJ = 1024
    val cards = Array.fill(n)(2); cards(n - 1) = bigJ
    val parents = Array.fill(n)(2); parents(0) = 1
    val gammaNonUniform = EpsilonAllocation.gamma(cards, parents)
    // UNIFORM's Theorem-1 shape with J = max Jᵢ: n^{3/2} J^{d+1} = n^{3/2} J²
    val gammaUniform = math.pow(n, 1.5) * bigJ.toDouble * bigJ
    assert(gammaNonUniform < gammaUniform / 100.0,
      s"nonuniform=$gammaNonUniform uniform=$gammaUniform")
  }

  test("epsArray covers every counter with a positive error") {
    val layout = CounterLayout.standard(net)
    for (alloc <- Seq(EpsilonAllocation.Baseline(eps, net.n),
                      EpsilonAllocation.Uniform(eps, net.n),
                      EpsilonAllocation.NonUniform(eps, net))) {
      val arr = alloc.epsArray(layout)
      assert(arr.length == layout.numCounters)
      assert(arr.forall(_ > 0.0), s"${alloc.name} left a counter without a budget")
    }
  }

  test("epsArray assigns nu to child blocks and mu to parent blocks") {
    val layout = CounterLayout.standard(net)
    val alloc = EpsilonAllocation.NonUniform(eps, net)
    val arr = alloc.epsArray(layout)
    for (i <- 0 until net.n) {
      assert(arr(layout.childCounter(i, 0, 0)) == alloc.nu(i))
      assert(arr(layout.parentCounter(i, 0)) == alloc.mu(i))
    }
  }

  test("naive-bayes allocation: Equation 9 for features, eps/(3n) for shared") {
    val nb = NetworkGenerator.naiveBayes("nb", 5, 3, Array(2, 4, 2, 3), seed = 31L)
    val alloc = EpsilonAllocation.NaiveBayes(eps, nb.card)
    val denom = math.sqrt(Seq(2, 4, 2, 3).map(j => math.pow(j, 2.0 / 3)).sum)
    assert(math.abs(alloc.nu(2) - eps / 16.0 * math.pow(4, 1.0 / 3) / denom) < 1e-15)
    assert(math.abs(alloc.nu(0) - eps / 15.0) < 1e-15)
    assert(math.abs(alloc.mu(3) - eps / 15.0) < 1e-15)
  }

  test("naive-bayes epsArray over the shared layout keeps the shared block tight") {
    val nb = NetworkGenerator.naiveBayes("nb", 5, 3, Array(2, 4, 2, 3), seed = 31L)
    val layout = CounterLayout.naiveBayes(nb)
    val arr = EpsilonAllocation.NaiveBayes(eps, nb.card).epsArray(layout)
    // shared block entries end up with eps/(3n) regardless of write order
    for (u <- 0 until nb.card(0))
      assert(math.abs(arr(layout.parentCounter(1, u)) - eps / 15.0) < 1e-15)
  }

  test("allocations on the paper networks are finite and ordered sensibly") {
    for (net <- Seq(Networks.alarm, Networks.newAlarm)) {
      val nu = EpsilonAllocation.NonUniform(eps, net)
      (0 until net.n).foreach { i =>
        assert(nu.nu(i) > 0 && nu.nu(i) < 1)
        assert(nu.mu(i) > 0 && nu.mu(i) < 1)
      }
    }
  }

  test("modelRatio is gamma / (sqrt(n)·(ΣJK + ΣK)): 1 for equal families, below 1 on NEW-ALARM") {
    assert(math.abs(EpsilonAllocation.modelRatio(Array(3, 3, 3), Array(2, 2, 2)) - 1.0) < 1e-12)
    val net = Networks.newAlarm
    val jk = (0 until net.n).map(i => net.card(i).toDouble * net.parentCard(i))
    val ks = net.parentCard.map(_.toDouble)
    val uniform = 16 * math.sqrt(net.n.toDouble) * (jk.sum + ks.sum)
    val nonuniform = 16 * (math.pow(jk.map(math.pow(_, 2.0 / 3)).sum, 1.5) +
      math.pow(ks.map(math.pow(_, 2.0 / 3)).sum, 1.5))
    val ratio = EpsilonAllocation.modelRatio(net.card, net.parentCard)
    assert(math.abs(ratio - nonuniform / uniform) < 1e-12)
    assert(ratio < 0.7)
  }
}
