package repro.counter

import org.scalatest.funsuite.AnyFunSuite
import repro.bn.{ForwardSampler, TestNets}
import repro.core.EpsilonAllocation
import repro.stream.SequentialDriver
import repro.util.Rng

class ExactCounterBankSpec extends AnyFunSuite {

  test("counts increments per counter") {
    val bank = new ExactCounterBank(3)
    bank.increment(0, 0); bank.increment(1, 0); bank.increment(2, 2)
    assert(bank.count(0) == 2L)
    assert(bank.count(1) == 0L)
    assert(bank.count(2) == 1L)
    assert(bank.estimate(0) == 2.0)
  }

  test("one message per increment (Lemma 5 accounting)") {
    val bank = new ExactCounterBank(5)
    (0 until 123).foreach(t => bank.increment(t % 4, t % 5))
    assert(bank.messages == 123L)
  }

  test("feed counts a run like as many increments") {
    val fed = new ExactCounterBank(3)
    val single = new ExactCounterBank(3)
    val sites = Array(0, 2, 1, 1, 0)
    fed.feed(1, sites, 1, 5)
    (1 until 5).foreach(i => single.increment(sites(i), 1))
    assert((0 until 3).map(fed.count) == (0 until 3).map(single.count))
    assert(fed.count(1) == 4L)
    assert(fed.messages == single.messages)
  }
}

class CoordinatorSpec extends AnyFunSuite {

  private def coord(c: Int = 2, k: Int = 3, eps: Double = 0.5, pScale: Double = math.sqrt(6.0)) =
    new Coordinator(c, k, Array.fill(c)(eps), pScale)

  test("estimate starts at zero and messages at zero") {
    val co = coord()
    assert(co.estimate(0) == 0.0)
    assert(co.messages == 0L)
  }

  test("receive with p=1 yields the exact per-site count") {
    val co = coord()
    co.receive(0, 0, 5, 1.0)
    assert(co.estimate(0) == 5.0)
    co.receive(1, 0, 3, 1.0)
    assert(co.estimate(0) == 8.0)
    assert(co.messages == 2L)
  }

  test("receive replaces a site's previous contribution, not adds to it") {
    val co = coord()
    co.receive(0, 0, 5, 1.0)
    co.receive(0, 0, 9, 1.0)
    assert(co.estimate(0) == 9.0)
  }

  test("receive with p<1 adds the expected unreported tail 1/p − 1") {
    val co = coord()
    co.receive(0, 0, 10, 4.0) // p = 1/4 → tail 3
    assert(math.abs(co.estimate(0) - 13.0) < 1e-12)
  }

  test("counters are independent") {
    val co = coord()
    co.receive(0, 0, 7, 1.0)
    assert(co.estimate(1) == 0.0)
  }

  test("a receive of a counter with unsettled exact reports fails, naming the counter") {
    val co = coord()
    co.receiveExact(1, 4)
    val e = intercept[IllegalStateException](co.receive(0, 1, 5, 2.0))
    assert(e.getMessage.contains("counter 1"))
    assert(co.estimate(1) == 4.0 && co.messages == 4L && !co.settled(1))
  }

  test("settle writes each site's count as its term; a later receive replaces one of them") {
    val co = coord()
    co.receiveExact(1, 6)
    val counts = Array(1, 2, 3)
    co.settle(1, counts(_))
    assert(co.settled(1))
    assert(!co.settled(0))
    co.receive(2, 1, 7, 2.0) // site 2's term goes from 3 to 7 + 2 − 1
    assert(co.estimate(1) == 11.0)
    val e = intercept[IllegalArgumentException](co.settle(1, counts(_)))
    assert(e.getMessage.contains("counter 1"))
  }

  test("a receive of a counter with no report opens a zeroed slot") {
    val co = coord(c = 4)
    (0 until co.numCounters).foreach(c => co.receive(c % co.k, c, 2, 1.0))
    assert((0 until co.numCounters).forall(co.settled))
    assert((0 until co.numCounters).forall(co.estimate(_) == 2.0))
  }

  test("pFor is 1 below threshold and decays like 1/estimate above") {
    val co = coord(eps = 0.5, pScale = 2.0)
    assert(co.pFor(0) == 1.0) // est 0 → p = min(1, 2/(0.5*1)) = 1
    co.receive(0, 0, 100, 1.0)
    // p = 2 / (0.5 * 100) = 0.04
    assert(math.abs(co.pFor(0) - 0.04) < 1e-12)
  }

  test("a report count folds like that many single reports ending at the same count") {
    val single = coord()
    val folded = coord()
    Seq(single, folded).foreach { co => co.receive(0, 0, 5, 1.0); co.receive(1, 0, 3, 1.0) }
    Seq(9, 14, 20).foreach(n => single.receive(0, 0, n, 4.0))
    folded.receive(0, 0, 20, 4.0, reports = 3)
    assert(folded.estimate(0) == single.estimate(0))
    assert(folded.estimate(0) == 20.0 + 3.0 + 3.0)
    assert(folded.messages == single.messages)
    assert(folded.messages == 5L)
  }

  test("rejects non-positive error parameters") {
    intercept[IllegalArgumentException](new Coordinator(1, 2, Array(0.0), 1.0))
    Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity).foreach { bad =>
      val e = intercept[IllegalArgumentException](new Coordinator(3, 2, Array(0.5, bad, 0.5), 1.0))
      assert(e.getMessage.contains(s"eps(1) = $bad, expected a positive finite number"), s"eps $bad")
    }
  }

  test("rejects fewer than one site, naming k") {
    val e = intercept[IllegalArgumentException](new Coordinator(1, 0, Array(0.5), 1.0))
    assert(e.getMessage.contains("k = 0 sites, expected at least 1"))
  }

  test("rejects a pScale that is not positive and finite, naming it") {
    Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity).foreach { s =>
      val e = intercept[IllegalArgumentException](new Coordinator(1, 2, Array(0.5), s))
      assert(e.getMessage.contains(s"pScale = $s, expected a positive finite number"), s"pScale $s")
    }
  }

  test("theoryScale is sqrt(2k)") {
    assert(math.abs(Coordinator.theoryScale(8) - 4.0) < 1e-12)
  }
}

class SiteSpec extends AnyFunSuite {

  /** Counts one increment at site 2 of 10 counters, seed 7, its counts in `local` at `j`. */
  private def inc(local: Array[Int], j: Int, counter: Int, p: Double): Boolean =
    Site.increment(local, j, 7L, 2, 10, counter, p)

  test("the n-th increment's coin is Rng.uniform(seed, site·numCounters + counter, n) < p") {
    val local = new Array[Int](10)
    (1 to 50).foreach { n =>
      assert(inc(local, 3, 3, 0.4) == (Rng.uniform(7L, 23L, n.toLong) < 0.4), s"increment $n")
      assert(local(3) == n)
    }
    assert((1 to 5).forall(_ => inc(local, 4, 4, 1.0)), "p = 1 always reports")
  }

  test("the coin function draws the same coins at any index of any layout") {
    val perSite = new Array[Int](10) // site 2's own array, counter at its index
    val counterMajor = new Array[Int](4 * 10) // (site, counter) at counter·4 + site
    (1 to 50).foreach { n =>
      assert(inc(counterMajor, 3 * 4 + 2, 3, 0.4) == inc(perSite, 3, 3, 0.4), s"increment $n")
      assert(counterMajor(3 * 4 + 2) == perSite(3))
    }
    assert(counterMajor.sum == 50)
  }

  test("an increment past Int.MaxValue fails, naming the site and counter") {
    val local = new Array[Int](10)
    local(3) = Int.MaxValue
    val e = intercept[ArithmeticException](inc(local, 3, 3, 1.0))
    assert(e.getMessage.contains("site 2 counter 3"))
    assert(local(3) == Int.MaxValue)
  }
}

class DistCounterBankSpec extends AnyFunSuite {

  /** Drive one counter with `total` increments spread over `k` sites. */
  private def drive(bank: DistCounterBank, k: Int, total: Int, seed: Long): Unit =
    (0 until total).foreach(t => bank.increment(Rng.uniformInt(k, seed, t.toLong), 0))

  test("exact below the reporting threshold: estimate equals the true count") {
    // eps small enough that p stays 1 for counts up to 1000
    val k = 4
    val bank = DistCounterBank(1, k, Array(0.001), seed = 1L)
    drive(bank, k, 1000, 11L)
    assert(bank.estimate(0) == 1000.0)
    assert(bank.messages == 1000L)
  }

  test("local counts partition the total") {
    val k = 4
    val bank = DistCounterBank(1, k, Array(0.001), seed = 2L)
    drive(bank, k, 500, 12L)
    assert((0 until k).map(bank.localCount(_, 0)).sum == 500)
  }

  test("messages never exceed increments") {
    val k = 8
    val bank = DistCounterBank(1, k, Array(0.3), seed = 3L)
    drive(bank, k, 20000, 13L)
    assert(bank.messages <= 20000L)
  }

  test("approximate mode saves messages at large counts") {
    val k = 8
    val bank = DistCounterBank(1, k, Array(0.3), seed = 4L)
    drive(bank, k, 50000, 14L)
    assert(bank.messages < 25000L, s"messages=${bank.messages}")
  }

  test("estimator is unbiased across seeds") {
    val k = 8
    val trials = 60
    val total = 20000
    val ests = (0 until trials).map { r =>
      val bank = DistCounterBank(1, k, Array(0.3), seed = 100L + r)
      drive(bank, k, total, 15L) // same stream, independent protocol coins
      bank.estimate(0)
    }
    val mean = ests.sum / trials
    // std of the mean ≈ eps*C/sqrt(2*trials) ≈ 0.3*20000/11 ≈ 550
    assert(math.abs(mean - total) < 1500, s"mean=$mean")
  }

  test("estimator variance respects the Lemma 4 bound") {
    val k = 8
    val trials = 80
    val total = 20000
    val eps = 0.3
    val ests = (0 until trials).map { r =>
      val bank = DistCounterBank(1, k, Array(eps), seed = 500L + r)
      drive(bank, k, total, 16L)
      bank.estimate(0)
    }
    val mean = ests.sum / trials
    val v = ests.map(e => (e - mean) * (e - mean)).sum / trials
    val bound = (eps * total) * (eps * total)
    assert(v <= bound * 1.5, s"var=$v bound=$bound") // 1.5 slack for sampling noise
  }

  test("runs are deterministic for a fixed seed") {
    val k = 4
    def go(seed: Long): (Double, Long) = {
      val bank = DistCounterBank(1, k, Array(0.2), seed)
      drive(bank, k, 30000, 17L)
      (bank.estimate(0), bank.messages)
    }
    assert(go(42L) == go(42L))
    assert(go(42L) != go(43L))
  }

  test("communication grows logarithmically once past the threshold") {
    val k = 4
    val eps = 0.5
    def messagesFor(total: Int, seed: Long): Long = {
      val bank = DistCounterBank(1, k, Array(eps), seed)
      drive(bank, k, total, 18L)
      bank.messages
    }
    val m1 = messagesFor(20000, 5L)
    val m2 = messagesFor(200000, 5L)
    // 10x the stream should cost far less than 10x the messages
    assert(m2 < m1 * 5, s"m1=$m1 m2=$m2")
  }

  test("messages and estimates stay those recorded before the counter-grouped pass") {
    // Recorded with the site-major bank fed event by event; any change to
    // the coins, their keys or the fold moves them.
    val net = TestNets.random20
    val layout = CounterLayout.standard(net)
    def pass(alloc: EpsilonAllocation): (Long, Int) = {
      val bank = new DistCounterBank(layout.numCounters, 30, alloc.epsArray(layout), 7L, 0.05)
      val s = SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, 3000, 30, 7L)).last
      (s.messages, s.estimates.map(java.lang.Double.doubleToLongBits).toSeq.hashCode)
    }
    assert(pass(EpsilonAllocation.Uniform(0.1, net.n)) == ((30747L, -1276394207)))
    assert(pass(EpsilonAllocation.NonUniform(0.1, net)) == ((32125L, 2004789090)))
  }

  /** Error parameters of two counters at `pScale`, counter 1's leaving the
    * exact regime at about `limit` increments.
    */
  private def boundaryEps(pScale: Double, limit: Int): Array[Double] = Array(0.3, pScale / (limit - 0.5))

  private def boundaryBank(k: Int, pScale: Double, limit: Int, seed: Long): DistCounterBank =
    new DistCounterBank(2, k, boundaryEps(pScale, limit), seed, pScale)

  /** The protocol written out one increment at a time, as the bank ran it
    * before it had an exact regime: every site starts at p = 1, and every
    * report goes through `Coordinator.receive` and is acknowledged.
    */
  private final class Reference(k: Int, eps: Array[Double], seed: Long, pScale: Double) {
    val coordinator = new Coordinator(eps.length, k, eps, pScale)
    val local = new Array[Int](k * eps.length)
    private val p = Array.fill(k * eps.length)(1.0)

    def increment(site: Int, counter: Int): Unit = {
      val j = counter * k + site
      if (Site.increment(local, j, seed, site, eps.length, counter, p(j))) {
        coordinator.receive(site, counter, local(j), 1.0 / p(j))
        p(j) = coordinator.pFor(counter)
      }
    }
  }

  /** Messages, counter 1's estimate bits and local counts, and whether it is exact. */
  private def state(bank: DistCounterBank, k: Int): (Long, Long, Seq[Int], Boolean) =
    (bank.messages, java.lang.Double.doubleToLongBits(bank.estimate(1)),
      (0 until k).map(bank.localCount(_, 1)), bank.inExactRegime(1))

  private def state(ref: Reference, k: Int): (Long, Long, Seq[Int], Boolean) =
    (ref.coordinator.messages, java.lang.Double.doubleToLongBits(ref.coordinator.estimate(1)),
      (0 until k).map(s => ref.local(k + s)), ref.coordinator.pFor(1) == 1.0)

  test("feeding runs split across the regime boundary equals incrementing one at a time, bit for bit") {
    val k = 5
    val total = 600
    val sites = Array.tabulate(total)(t => Rng.uniformInt(k, 21L, t.toLong))
    for (pScale <- Seq(0.05, Coordinator.theoryScale(k))) {
      val ref = new Reference(k, boundaryEps(pScale, 60), 9L, pScale)
      val single = boundaryBank(k, pScale, 60, 9L)
      val limit = single.coordinator.exactLimit(1).toInt
      assert(limit >= 55 && limit <= 65, s"pScale $pScale: limit $limit")
      val expected = sites.indices.map { t =>
        ref.increment(sites(t), 1)
        single.increment(sites(t), 1)
        assert(state(single, k) == state(ref, k), s"pScale $pScale increment $t")
        state(ref, k)
      }
      assert(!expected.last._4, s"pScale $pScale: counter 1 never left the exact regime")
      assert(expected.last._1 < total, s"pScale $pScale: every increment reported")
      val fixedCuts = Seq(1, 7, limit - 2, limit - 1, limit, limit + 1, 130)
      val randomCuts = (0 until 20).map(r => (0 until 6).map(c => Rng.uniformInt(total, 31L, r.toLong, c.toLong)))
      for (cuts <- fixedCuts +: randomCuts) {
        val fed = boundaryBank(k, pScale, 60, 9L)
        val bounds = (0 +: cuts :+ total).distinct.sorted
        bounds.zip(bounds.tail).foreach { case (from, until) =>
          fed.feed(1, sites, from, until)
          assert(state(fed, k) == expected(until - 1), s"pScale $pScale cuts $cuts after $until")
        }
        assert(fed.estimate(0) == 0.0)
      }
    }
  }

  test("after a pass the counters treated as exact are those with p = 1") {
    val net = TestNets.random20
    val layout = CounterLayout.standard(net)
    val bank = new DistCounterBank(layout.numCounters, 30,
      EpsilonAllocation.Uniform(0.1, net.n).epsArray(layout), 7L, 0.05)
    SequentialDriver.runAll(layout, Seq(bank), ForwardSampler.localEvents(net, 3000, 30, 7L))
    val (exact, sampled) = (0 until layout.numCounters).partition(bank.inExactRegime)
    assert(exact.nonEmpty && sampled.nonEmpty, s"${exact.size} exact, ${sampled.size} sampled")
    exact.foreach(c => assert(bank.coordinator.pFor(c) == 1.0, s"counter $c"))
    sampled.foreach(c => assert(bank.coordinator.pFor(c) < 1.0, s"counter $c"))
    // Only the sampled counters hold site terms.
    exact.foreach(c => assert(!bank.coordinator.settled(c), s"counter $c"))
    sampled.foreach(c => assert(bank.coordinator.settled(c), s"counter $c"))
  }

  test("an increment past Int.MaxValue fails, naming the site and counter, and counts nothing") {
    val k = 4
    for (exact <- Seq(true, false)) {
      val bank = boundaryBank(k, 1.0, 3, 5L)
      if (!exact) (0 until 3).foreach(t => bank.increment(t % k, 1))
      assert(bank.inExactRegime(1) == exact)
      bank.local(1 * k + 2) = Int.MaxValue
      val before = state(bank, k)
      val e = intercept[ArithmeticException](bank.increment(2, 1))
      assert(e.getMessage.contains("site 2 counter 1"))
      assert(state(bank, k) == before, s"exact $exact")
      // In a run, the increments before the failing one stay counted.
      val e2 = intercept[ArithmeticException](bank.feed(1, Array(3, 0, 2, 1), 1, 4))
      assert(e2.getMessage.contains("site 2 counter 1"))
      assert(bank.localCount(0, 1) == before._3(0) + 1)
      assert(bank.localCount(2, 1) == Int.MaxValue)
      assert(bank.localCount(1, 1) == before._3(1))
      if (exact) {
        assert(bank.messages == before._1 + 1)
        assert(bank.estimate(1) == java.lang.Double.longBitsToDouble(before._2) + 1.0)
      }
    }
  }

  test("a site outside [0, k) is rejected, naming the site, in both regimes") {
    val k = 4
    for (exact <- Seq(true, false); site <- Seq(-1, k)) {
      val bank = boundaryBank(k, 1.0, 3, 5L)
      if (!exact) (0 until 3).foreach(t => bank.increment(t % k, 1))
      assert(bank.inExactRegime(1) == exact)
      val before = state(bank, k)
      val e = intercept[IllegalArgumentException](bank.increment(site, 1))
      assert(e.getMessage.contains(s"site $site outside [0, $k)"), s"exact $exact")
      val e2 = intercept[IllegalArgumentException](bank.feed(1, Array(site), 0, 1))
      assert(e2.getMessage.contains(s"site $site outside [0, $k)"), s"exact $exact")
      assert(state(bank, k) == before, s"exact $exact site $site")
    }
  }

  test("per-counter independence: a busy counter does not affect an idle one") {
    val k = 4
    val bank = DistCounterBank(2, k, Array(0.3, 0.3), seed = 6L)
    drive(bank, k, 10000, 19L)
    assert(bank.estimate(1) == 0.0)
  }
}
