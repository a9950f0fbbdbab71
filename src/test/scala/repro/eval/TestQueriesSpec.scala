package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.bn.{BayesianNetwork, ForwardSampler, TestNets}
import repro.core.BNModel
import repro.counter.{CounterLayout, ExactCounterBank}
import repro.stream.SequentialDriver
import repro.util.Rng

class TestQueriesSpec extends AnyFunSuite {
  private val net = TestNets.chain

  test("generates the requested number of queries") {
    assert(TestQueries.condQueries(net, 250, 0.01, 1L).size == 250)
  }

  test("every query's ground truth probability respects minProb") {
    val qs = TestQueries.condQueries(net, 300, 0.15, 2L)
    qs.foreach(q => assert(q.truth >= 0.15))
  }

  test("query truth matches the network CPT") {
    val qs = TestQueries.condQueries(net, 100, 0.01, 3L)
    qs.foreach(q => assert(q.truth == net.truth(q.i, q.v, q.u)))
  }

  test("queries cover multiple variables and configurations") {
    val qs = TestQueries.condQueries(TestNets.random20, 400, 0.01, 4L)
    assert(qs.map(_.i).distinct.size > 10)
  }

  test("query generation is deterministic in the seed") {
    assert(TestQueries.condQueries(net, 50, 0.01, 5L) == TestQueries.condQueries(net, 50, 0.01, 5L))
    assert(TestQueries.condQueries(net, 50, 0.01, 5L) != TestQueries.condQueries(net, 50, 0.01, 6L))
  }

  test("queries equal those drawn from full forward samples") {
    def reference(net: BayesianNetwork, count: Int, seed: Long): IndexedSeq[CondQuery] =
      Iterator.from(0).map { id =>
        val x = net.sample(seed ^ 0x7e57aL, id.toLong)
        val i = Rng.uniformInt(net.n, seed, 0x7e57bL, id.toLong)
        val u = net.parentCode(i, x)
        CondQuery(i, x(i), u, net.truth(i, x(i), u))
      }.filter(_.truth >= 0.01).take(count).toIndexedSeq
    for ((net, count) <- Seq(TestNets.chain -> 300, TestNets.collider -> 300, TestNets.random20 -> 300,
                             Networks.munin -> 200))
      assert(TestQueries.condQueries(net, count, 0.01, 8L) == reference(net, count, 8L), net.name)
  }

  test("classification tests drawn a block at a time equal those drawn event by event") {
    for ((net, count) <- Seq(TestNets.chain -> 5, TestNets.random20 -> 600, Networks.alarm -> 513)) {
      val perEvent = IndexedSeq.tabulate(count) { t =>
        (net.sample(17L ^ 0xc1a55L, t.toLong).toSeq, Rng.uniformInt(net.n, 17L, 0xc1a56L, t.toLong))
      }
      assert(TestQueries.clsTests(net, count, 17L).map(t => (t.x.toSeq, t.target)) == perEvent, net.name)
    }
  }

  test("classification tests target every variable eventually") {
    val ts = TestQueries.clsTests(net, 200, 7L)
    assert(ts.map(_.target).distinct.sorted == Seq(0, 1, 2))
    ts.foreach(t => assert(t.x.length == net.n))
  }
}

class MetricsSpec extends AnyFunSuite {
  private val net = TestNets.chain
  private val layout = CounterLayout.standard(net)

  private def exactModelOf(m: Int, seed: Long): BNModel = {
    val bank = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, 4, seed))
    new BNModel(net, layout, bank.estimate)
  }

  test("mean and median helpers") {
    assert(Metrics.mean(Seq(1.0, 2.0, 3.0)) == 2.0)
    assert(Metrics.mean(Seq.empty) == 0.0)
    assert(Metrics.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    assert(Metrics.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    intercept[IllegalArgumentException](Metrics.median(Seq.empty))
  }

  test("relErrVsTruth shrinks with more training data") {
    val qs = TestQueries.condQueries(net, 300, 0.01, 8L)
    val small = Metrics.relErrVsTruth(exactModelOf(500, 9L), qs)
    val large = Metrics.relErrVsTruth(exactModelOf(50000, 9L), qs)
    assert(large < small, s"small-m err $small, large-m err $large")
    assert(large < 0.05, s"err at 50K = $large")
  }

  test("relErrVsRef of a model against itself is zero") {
    val m = exactModelOf(2000, 10L)
    val qs = TestQueries.condQueries(net, 100, 0.01, 11L)
    assert(Metrics.relErrVsRef(m, m, qs) == 0.0)
  }

  test("relErrVsRef skips zero-reference queries rather than dividing by zero") {
    // Reference with observed parents but zero child counts: theta ≡ 0.
    val isParent = (c: Int) => (0 until net.n).exists(i =>
      c >= layout.parentOffset(i) && c < layout.parentOffset(i) + net.parentCard(i))
    val zeroRef = new BNModel(net, layout, c => if (isParent(c)) 1.0 else 0.0)
    val m = exactModelOf(2000, 12L)
    val qs = TestQueries.condQueries(net, 50, 0.01, 13L)
    val err = Metrics.relErrVsRef(m, zeroRef, qs)
    assert(err == 0.0) // every query skipped → empty mean
  }

  test("classificationError of the exact model on copier data is small") {
    val cop = TestNets.copier
    val lay = CounterLayout.standard(cop)
    val bank = new ExactCounterBank(lay.numCounters)
    SequentialDriver.run(lay, bank, ForwardSampler.localEvents(cop, 20000, 4, 14L))
    val model = new BNModel(cop, lay, bank.estimate)
    val ts = TestQueries.clsTests(cop, 1000, 15L)
    val err = Metrics.classificationError(model, ts)
    assert(err < 0.12, s"err=$err")
  }

  test("classificationError of a uniform model is chance-level") {
    val uniform = new BNModel(net, layout, _ => 0.0) // all thetas fall back to uniform
    val ts = TestQueries.clsTests(net, 2000, 16L)
    val err = Metrics.classificationError(uniform, ts)
    // predicting from uniform CPDs ties everywhere → argmax picks value 0;
    // error is 1 − P[target value is 0] averaged over targets; just sanity-bound it
    assert(err > 0.2 && err < 0.9, s"err=$err")
  }
}
