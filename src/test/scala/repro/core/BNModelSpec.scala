package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bn.TestNets
import repro.counter.{CounterLayout, ExactCounterBank}
import repro.stream.SequentialDriver
import repro.bn.ForwardSampler

class BNModelSpec extends AnyFunSuite {
  private val net = TestNets.chain
  private val layout = CounterLayout.standard(net)

  /** Model from hand-set counter values. */
  private def modelOf(values: Map[Int, Double]): BNModel =
    new BNModel(net, layout, c => values.getOrElse(c, 0.0))

  test("theta is the ratio of child to parent counter") {
    val m = modelOf(Map(
      layout.childCounter(1, 2, 0) -> 30.0,
      layout.parentCounter(1, 0) -> 100.0,
    ))
    assert(math.abs(m.theta(1, 2, 0) - 0.3) < 1e-12)
  }

  test("theta falls back to uniform when the parent count is zero") {
    val m = modelOf(Map.empty)
    assert(math.abs(m.theta(1, 0, 1) - 1.0 / 3) < 1e-12)
    assert(math.abs(m.theta(0, 1, 0) - 0.5) < 1e-12)
  }

  test("theta clamps negative numerators to zero") {
    val m = modelOf(Map(
      layout.childCounter(0, 0, 0) -> -2.0,
      layout.parentCounter(0, 0) -> 10.0,
    ))
    assert(m.theta(0, 0, 0) == 0.0)
  }

  test("smoothedTheta interpolates toward uniform and never hits 0 or 1") {
    val m = modelOf(Map(
      layout.childCounter(0, 1, 0) -> 10.0,
      layout.parentCounter(0, 0) -> 10.0,
    ))
    val s = m.smoothedTheta(0, 1, 0)
    assert(s < 1.0 && s > 0.9)
    assert(m.smoothedTheta(0, 0, 0) > 0.0)
  }

  test("jointProb multiplies family ratios (Algorithm 3)") {
    val m = modelOf(Map(
      layout.childCounter(0, 0, 0) -> 30.0, layout.parentCounter(0, 0) -> 100.0,
      layout.childCounter(1, 1, 0) -> 25.0, layout.parentCounter(1, 0) -> 50.0,
      layout.childCounter(2, 0, 1) -> 8.0, layout.parentCounter(2, 1) -> 10.0,
    ))
    assert(math.abs(m.jointProb(Array(0, 1, 0)) - 0.3 * 0.5 * 0.8) < 1e-12)
  }

  test("exact-count model converges to the ground truth CPDs") {
    val m = 40000
    val bank = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, 4, 77L))
    val model = new BNModel(net, layout, bank.estimate)
    for (i <- 0 until net.n; u <- 0 until net.parentCard(i); v <- 0 until net.card(i)) {
      assert(math.abs(model.theta(i, v, u) - net.truth(i, v, u)) < 0.03,
        s"theta($i,$v,$u)=${model.theta(i, v, u)} truth=${net.truth(i, v, u)}")
    }
  }

  test("predict recovers the class on a near-deterministic copier network") {
    val cop = TestNets.copier
    val lay = CounterLayout.standard(cop)
    val bank = new ExactCounterBank(lay.numCounters)
    SequentialDriver.run(lay, bank, ForwardSampler.localEvents(cop, 20000, 4, 78L))
    val model = new BNModel(cop, lay, bank.estimate)
    // evidence: both features = 1 → class must be 1; both = 0 → class 0
    assert(model.predict(Array(0, 1, 1), target = 0) == 1)
    assert(model.predict(Array(1, 0, 0), target = 0) == 0)
  }

  test("predict on a feature uses the class evidence") {
    val cop = TestNets.copier
    val lay = CounterLayout.standard(cop)
    val bank = new ExactCounterBank(lay.numCounters)
    SequentialDriver.run(lay, bank, ForwardSampler.localEvents(cop, 20000, 4, 79L))
    val model = new BNModel(cop, lay, bank.estimate)
    assert(model.predict(Array(1, 0, 1), target = 2) == 1)
    assert(model.predict(Array(0, 0, 1), target = 1) == 0)
  }

  test("predict classification error tracks the Bayes rate on copier data") {
    val cop = TestNets.copier
    val lay = CounterLayout.standard(cop)
    val bank = new ExactCounterBank(lay.numCounters)
    SequentialDriver.run(lay, bank, ForwardSampler.localEvents(cop, 30000, 4, 80L))
    val model = new BNModel(cop, lay, bank.estimate)
    val tests = (0 until 2000).map(t => cop.sample(81L, t.toLong))
    val err = tests.count(x => model.predict(x, 0) != x(0)).toDouble / tests.size
    // Bayes error for predicting the class from two 95% copies ≈ 0.05*0.95*2*0.5… ≲ 0.1
    assert(err < 0.12, s"err=$err")
  }
}
