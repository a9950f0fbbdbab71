package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.bn.{BayesianNetwork, Event, ForwardSampler, NetworkGenerator, TestNets}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{CounterBank, CounterLayout, DistCounterBank, ExactCounterBank}
import repro.eval.Networks

class SequentialDriverSpec extends AnyFunSuite {
  private val net = TestNets.chain
  private val layout = CounterLayout.standard(net)
  private val k = 5

  test("exact bank: total communication is 2·n·m messages (Lemma 5)") {
    val m = 4000
    val bank = new ExactCounterBank(layout.numCounters)
    val snaps = SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, k, 1L))
    assert(snaps.last.messages == 2L * net.n * m)
  }

  test("exact bank: per-variable parent counters each total m") {
    val m = 2500
    val bank = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, k, 2L))
    for (i <- 0 until net.n) {
      val tot = (0 until net.parentCard(i)).map(u => bank.count(layout.parentCounter(i, u))).sum
      assert(tot == m.toLong, s"variable $i parent totals $tot")
    }
  }

  test("snapshots are produced at every checkpoint plus the stream end") {
    val bank = new ExactCounterBank(layout.numCounters)
    val snaps = SequentialDriver.run(layout, bank,
      ForwardSampler.localEvents(net, 1000, k, 3L), checkpoints = Seq(100L, 500L))
    assert(snaps.map(_.m) == Seq(100L, 500L, 1000L))
  }

  test("a checkpoint at the exact stream end is not duplicated") {
    val bank = new ExactCounterBank(layout.numCounters)
    val snaps = SequentialDriver.run(layout, bank,
      ForwardSampler.localEvents(net, 300, k, 4L), checkpoints = Seq(300L))
    assert(snaps.map(_.m) == Seq(300L))
  }

  test("snapshot messages and counts are monotone in m") {
    val bank = new ExactCounterBank(layout.numCounters)
    val snaps = SequentialDriver.run(layout, bank,
      ForwardSampler.localEvents(net, 2000, k, 5L), checkpoints = Seq(500L, 1000L, 1500L))
    val msgs = snaps.map(_.messages)
    assert(msgs == msgs.sorted)
    val rootOnes = snaps.map(_.estimates(layout.childCounter(0, 1, 0)))
    assert(rootOnes == rootOnes.sorted)
  }

  test("snapshot estimates are frozen copies, not live views") {
    val bank = new ExactCounterBank(layout.numCounters)
    val snaps = SequentialDriver.run(layout, bank,
      ForwardSampler.localEvents(net, 1000, k, 6L), checkpoints = Seq(500L))
    val atHalf = snaps.head.estimates.sum
    // driving the bank further must not mutate the earlier snapshot
    bank.increment(0, 0)
    assert(snaps.head.estimates.sum == atHalf)
  }

  test("approximate banks send no more messages than the exact bank") {
    val m = 30000
    val exact = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, exact, ForwardSampler.localEvents(net, m, k, 7L))
    for (alloc <- Seq(EpsilonAllocation.Baseline(0.5, net.n),
                      EpsilonAllocation.Uniform(0.5, net.n),
                      EpsilonAllocation.NonUniform(0.5, net))) {
      val bank = DistCounterBank(layout.numCounters, k, alloc.epsArray(layout), 8L)
      val snaps = SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, k, 7L))
      assert(snaps.last.messages <= exact.messages, alloc.name)
    }
  }

  test("looser epsilon saves communication") {
    val m = 50000
    def msgs(eps: Double): Long = {
      val alloc = EpsilonAllocation.Uniform(eps, net.n)
      val bank = DistCounterBank(layout.numCounters, k, alloc.epsArray(layout), 9L)
      SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, k, 10L)).last.messages
    }
    assert(msgs(0.8) < msgs(0.1), s"eps=0.8 → ${msgs(0.8)}, eps=0.1 → ${msgs(0.1)}")
  }

  test("UNIFORM maintains an (eps, delta)-approximation of the MLE joint (Definition 3)") {
    val m = 30000
    val eps = 0.4
    val exact = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, exact, ForwardSampler.localEvents(net, m, k, 11L))
    val mle = new BNModel(net, layout, exact.estimate)
    val assignments = for (a <- 0 until 2; b <- 0 until 3; c <- 0 until 2)
      yield Array(a, b, c)
    var within = 0
    var totalChecks = 0
    for (seed <- 0 until 15) {
      val alloc = EpsilonAllocation.Uniform(eps, net.n)
      val bank = DistCounterBank(layout.numCounters, k, alloc.epsArray(layout), 1000L + seed)
      val snap = SequentialDriver.run(layout, bank,
        ForwardSampler.localEvents(net, m, k, 11L)).last
      val model = snap.model(net, layout)
      for (x <- assignments) {
        val ratio = model.jointProb(x) / mle.jointProb(x)
        totalChecks += 1
        if (ratio >= math.exp(-eps) && ratio <= math.exp(eps)) within += 1
      }
    }
    // Theorem 1 guarantees each check holds with probability ≥ 3/4; observed
    // rates should be comfortably higher because the analysis is loose.
    assert(within.toDouble / totalChecks > 0.8, s"only $within/$totalChecks within e^±eps")
  }

  test("NONUNIFORM maintains the approximation too (Theorem 2)") {
    val m = 30000
    val eps = 0.4
    val exact = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, exact, ForwardSampler.localEvents(net, m, k, 12L))
    val mle = new BNModel(net, layout, exact.estimate)
    val assignments = for (a <- 0 until 2; b <- 0 until 3; c <- 0 until 2)
      yield Array(a, b, c)
    var within = 0
    var total = 0
    for (seed <- 0 until 15) {
      val alloc = EpsilonAllocation.NonUniform(eps, net)
      val bank = DistCounterBank(layout.numCounters, k, alloc.epsArray(layout), 2000L + seed)
      val model = SequentialDriver.run(layout, bank,
        ForwardSampler.localEvents(net, m, k, 12L)).last.model(net, layout)
      for (x <- assignments) {
        val ratio = model.jointProb(x) / mle.jointProb(x)
        total += 1
        if (ratio >= math.exp(-eps) && ratio <= math.exp(eps)) within += 1
      }
    }
    assert(within.toDouble / total > 0.8, s"only $within/$total within e^±eps")
  }

  test("BASELINE is at least as accurate per counter as UNIFORM (tighter eps)") {
    val n = net.n
    val base = EpsilonAllocation.Baseline(0.4, n)
    val unif = EpsilonAllocation.Uniform(0.4, n)
    // for n = 3: eps/(3n) = eps/9 < eps/(16·√3) = eps/27.7 is FALSE — baseline is looser here;
    // the crossover n ≈ 28.4 is covered in EpsilonAllocationSpec. Just sanity-order them.
    assert(base.nu(0) > unif.nu(0))
  }

  private def rejected(events: Event*): String = {
    val bank = DistCounterBank(layout.numCounters, k, Array.fill(layout.numCounters)(0.1), 13L)
    val e = intercept[IllegalArgumentException](SequentialDriver.run(layout, bank, events.iterator))
    assert(bank.messages == 0L, "no increment of a rejected event reaches the coordinator")
    e.getMessage
  }

  test("rejects an event routed to a site outside [0, k), naming the site") {
    assert(rejected(Event(0L, k, Array(0, 1, 1))).contains(s"site $k outside [0, $k)"))
    assert(rejected(Event(0L, -1, Array(0, 1, 1))).contains(s"site -1 outside [0, $k)"))
  }

  test("rejects an assignment of the wrong length") {
    assert(rejected(Event(0L, 0, Array(0, 1))).contains("assignment has 2 values, expected 3"))
  }

  test("rejects a value outside its variable's domain") {
    assert(rejected(Event(0L, 0, Array(0, 3, 1))).contains("x(1) = 3 outside [0, 3)"))
  }

  test("through the iterator, a bad event is rejected with its value named before any bank counts it") {
    val good = ForwardSampler.localEvents(net, 40, k, 25L).toSeq
    def rejectedByAll(bad: Event): String = {
      val bs = Seq(new ExactCounterBank(layout.numCounters),
        DistCounterBank(layout.numCounters, k, Array.fill(layout.numCounters)(0.1), 26L))
      val e = intercept[IllegalArgumentException](SequentialDriver.runAll(layout, bs, (good :+ bad).iterator))
      bs.foreach(b => assert(b.messages == 0L, s"${b.getClass.getSimpleName} counted the chunk of ${e.getMessage}"))
      e.getMessage
    }
    assert(rejectedByAll(Event(40L, 0, Array(0, 1))).contains("assignment has 2 values, expected 3"))
    assert(rejectedByAll(Event(40L, 0, Array(0, 1, 1, 0))).contains("assignment has 4 values, expected 3"))
    assert(rejectedByAll(Event(40L, 0, Array(0, 3, 1))).contains("x(1) = 3 outside [0, 3)"))
    assert(rejectedByAll(Event(40L, 0, Array(-1, 1, 1))).contains("x(0) = -1 outside [0, 2)"))
    assert(rejectedByAll(Event(40L, k, Array(0, 1, 1))).contains(s"site $k outside [0, $k)"))
    assert(rejectedByAll(Event(40L, -1, Array(0, 1, 1))).contains(s"site -1 outside [0, $k)"))
  }

  /** The driver loop of a single bank, written out event by event. */
  private def reference(layout: CounterLayout, bank: CounterBank, events: Iterator[Event],
                        checkpoints: Seq[Long]): Seq[Snapshot] = {
    val out = Seq.newBuilder[Snapshot]
    var m = 0L
    def snap(): Unit = out += Snapshot(m, bank.messages, Array.tabulate(layout.numCounters)(bank.estimate))
    for (e <- events) {
      layout.foreachUpdate(e.x)(c => bank.increment(e.site, c))
      m += 1
      if (checkpoints.contains(m)) snap()
    }
    if (checkpoints.isEmpty || checkpoints.max < m) snap()
    out.result()
  }

  private def bits(snaps: Seq[Snapshot]): Seq[(Long, Long, Seq[Long])] =
    snaps.map(s => (s.m, s.messages, s.estimates.toSeq.map(java.lang.Double.doubleToLongBits)))

  /** Three allocations × three protocol seeds at pScale 0.05, plus an exact bank. */
  private def banks(layout: CounterLayout, allocs: Seq[EpsilonAllocation]): Seq[CounterBank] =
    new ExactCounterBank(layout.numCounters) +: (for (a <- allocs; r <- 1 to 3) yield
      new DistCounterBank(layout.numCounters, k, a.epsArray(layout), 100L + r, 0.05))

  private def sameAsSeparateRuns(net: BayesianNetwork, layout: CounterLayout,
                                 allocs: Seq[EpsilonAllocation], m: Long, checkpoints: Seq[Long]): Unit = {
    val events = ForwardSampler.localEvents(net, m, k, 21L).toArray
    val together = SequentialDriver.runAll(layout, banks(layout, allocs), events.iterator, checkpoints)
    val alone = banks(layout, allocs).map(b => reference(layout, b, events.iterator, checkpoints))
    val single = banks(layout, allocs).map(b => SequentialDriver.run(layout, b, events.iterator, checkpoints))
    assert(together.size == 10)
    together.indices.foreach { b =>
      assert(bits(together(b)) == bits(alone(b)), s"bank $b differs from its own pass")
      assert(bits(single(b)) == bits(alone(b)), s"bank $b alone through the driver")
    }
    assert(together.map(_.last.messages).distinct.size > 2, "the banks really differ")
  }

  test("one pass over many banks equals a separate pass per bank, bit for bit (standard layout)") {
    val net = TestNets.random20
    sameAsSeparateRuns(net, CounterLayout.standard(net),
      Seq(EpsilonAllocation.Baseline(0.3, net.n), EpsilonAllocation.Uniform(0.3, net.n),
        EpsilonAllocation.NonUniform(0.3, net)),
      m = 3000, checkpoints = Seq(100L, 256L, 1000L, 2999L))
  }

  test("one pass over many banks equals a separate pass per bank, bit for bit (Naive-Bayes layout)") {
    val net = NetworkGenerator.naiveBayes("nb", 6, 3, Array(2, 5, 3, 4, 2), seed = 41L)
    sameAsSeparateRuns(net, CounterLayout.naiveBayes(net),
      Seq(EpsilonAllocation.NaiveBayes(0.3, net.card), EpsilonAllocation.NaiveBayes(0.6, net.card),
        EpsilonAllocation.Uniform(0.3, net.n)),
      m = 1337, checkpoints = Seq(7L, 700L))
  }

  test("grouping by counter keeps each counter's increments in stream order while its p changes") {
    // Two binary variables at k = 3: every counter takes hundreds of
    // increments per chunk. At pScale 1 and ε′ ≤ 0.3 a counter turns
    // probabilistic once its estimate passes 10/3–10, inside the first
    // chunk, and its p changes at every report after that.
    val pair = new BayesianNetwork("pair", Array(2, 2), Array(Array.empty[Int], Array(0)),
      Array(Array(Array(0.4, 0.6)), Array(Array(0.7, 0.3), Array(0.2, 0.8))))
    val nb = NetworkGenerator.naiveBayes("nb-pair", 2, 2, Array(2), seed = 43L)
    val chunk = SequentialDriver.chunkEvents.toLong
    // Inside the first chunk, at the end of a whole chunk, and a stream end mid-chunk.
    val checkpoints = Seq(100L, 100L + chunk)
    val m = 100L + 3 * chunk + 77
    for (layout <- Seq(CounterLayout.standard(pair), CounterLayout.naiveBayes(nb))) {
      val events = ForwardSampler.localEvents(layout.net, m, 3, 44L).toArray
      def banks: Seq[DistCounterBank] = (1 to 3).map { r =>
        new DistCounterBank(layout.numCounters, 3, Array.fill(layout.numCounters)(0.1 * r), 200L + r, 1.0)
      }
      val together = SequentialDriver.runAll(layout, banks, events.iterator, checkpoints)
      val alone = banks.map(b => reference(layout, b, events.iterator, checkpoints))
      together.indices.foreach { b =>
        assert(together(b).map(_.m) == Seq(100L, 100L + chunk, m))
        assert(bits(together(b)) == bits(alone(b)), s"bank $b of ${layout.net.name}")
        assert(together(b).head.messages < layout.updatesPerEvent * 100L * 3 / 4,
          s"bank $b of ${layout.net.name} turned probabilistic inside the first chunk")
      }
    }
  }

  test("a stream shorter than a chunk, an empty stream and checkpoints past the end") {
    def ms(m: Long, cps: Seq[Long]): Seq[Seq[Long]] =
      SequentialDriver.runAll(layout, Seq.fill(2)(new ExactCounterBank(layout.numCounters)),
        ForwardSampler.localEvents(net, m, k, 22L), cps).map(_.map(_.m))
    assert(ms(10, Nil) == Seq(Seq(10L), Seq(10L)))
    assert(ms(0, Nil) == Seq(Seq(0L), Seq(0L)))
    assert(ms(0, Seq(0L)) == Seq(Seq(0L), Seq(0L)))
    assert(ms(600, Seq(5L, 300L, 300L, 900L)) == Seq.fill(2)(Seq(5L, 300L, 600L)))
  }

  test("a failure in a later chunk of one of several banks surfaces as the bank raised it") {
    val good = ForwardSampler.localEvents(net, 700, k, 23L).toSeq
    def run(bad: Event): Throwable = intercept[IllegalArgumentException] {
      SequentialDriver.runAll(layout,
        Seq(new ExactCounterBank(layout.numCounters)) ++ Seq.fill(5)(
          DistCounterBank(layout.numCounters, k, Array.fill(layout.numCounters)(0.1), 24L)),
        (good :+ bad).iterator ++ good.iterator)
    }
    assert(run(Event(700L, k, Array(0, 1, 1))).getMessage.contains(s"site $k outside [0, $k)"))
    assert(run(Event(700L, 0, Array(0, 3, 1))).getMessage.contains("x(1) = 3 outside [0, 3)"))
  }

  /** The pass over the sampled source against the same pass over the
    * events of `localEvents`, and against each bank's event-by-event
    * reference over events sampled one at a time.
    */
  private def sourceSameAsIterator(layout: CounterLayout, allocs: Seq[EpsilonAllocation], m: Long,
                                   checkpoints: Seq[Long]): Unit = {
    val net = layout.net
    def banks: Seq[CounterBank] = new ExactCounterBank(layout.numCounters) +:
      allocs.map(a => new DistCounterBank(layout.numCounters, k, a.epsArray(layout), 27L, 0.05))
    val fromSource = SequentialDriver.runAll(layout, banks, ForwardSampler.source(net, m, k, 28L), checkpoints)
    val fromIterator = SequentialDriver.runAll(layout, banks, ForwardSampler.localEvents(net, m, k, 28L), checkpoints)
    val alone = banks.map(b => reference(layout, b,
      (0L until m).iterator.map(id => ForwardSampler.sampleEvent(net, k, 28L, id)), checkpoints))
    assert(fromSource.size == 4)
    fromSource.indices.foreach { b =>
      assert(fromSource(b).map(_.m) == (checkpoints.filter(_ < m) :+ m), s"bank $b")
      assert(bits(fromSource(b)) == bits(fromIterator(b)), s"bank $b: source against iterator")
      assert(bits(fromSource(b)) == bits(alone(b)), s"bank $b: source against its own pass")
    }
  }

  test("the pass over the sampled source equals the pass over its events, bit for bit (ALARM)") {
    val net = Networks.alarm
    val layout = CounterLayout.standard(net)
    val allocs = Seq(EpsilonAllocation.Baseline(0.1, net.n), EpsilonAllocation.Uniform(0.1, net.n),
      EpsilonAllocation.NonUniform(0.1, net))
    sourceSameAsIterator(layout, allocs, 2777L, Seq(100L, 256L, 1000L, 2777L, 5000L))
    sourceSameAsIterator(layout, allocs, 50L, Seq(7L))
  }

  test("the pass over the sampled source equals the pass over its events, bit for bit (Naive-Bayes layout)") {
    val net = NetworkGenerator.naiveBayes("nb", 6, 3, Array(2, 5, 3, 4, 2), seed = 41L)
    val layout = CounterLayout.naiveBayes(net)
    val allocs = Seq(EpsilonAllocation.NaiveBayes(0.1, net.card), EpsilonAllocation.NaiveBayes(0.3, net.card),
      EpsilonAllocation.Uniform(0.1, net.n))
    sourceSameAsIterator(layout, allocs, 2777L, Seq(100L, 256L, 1000L, 2777L, 5000L))
    sourceSameAsIterator(layout, allocs, 50L, Seq(7L))
  }
}
