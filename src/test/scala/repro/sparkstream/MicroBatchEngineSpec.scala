package repro.sparkstream

import scala.collection.mutable
import org.apache.spark.JobExecutionStatus
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated}
import org.apache.spark.sql.Dataset
import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.concurrent.Eventually.eventually
import org.scalatest.concurrent.PatienceConfiguration.Timeout
import org.scalatest.time.{Seconds, Span}
import repro.SparkSpec
import repro.bn.{Event, ForwardSampler, NetworkGenerator, TestNets}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{CounterLayout, DistCounterBank, ExactCounterBank}
import repro.stream.SequentialDriver

class MicroBatchEngineSpec extends SparkSpec {
  private val net = TestNets.chain
  private val layout = CounterLayout.standard(net)
  private val k = 4

  /** A whole bounded stream in `numBatches` arrival-order slices, one
    * `processBatch` each. Every slice filters the whole of `events`.
    */
  private def run(engine: MicroBatchEngine, events: Dataset[Event], m: Long, numBatches: Int): Unit = {
    val per = math.max(1L, (m + numBatches - 1) / numBatches)
    var lo = 0L
    while (lo < m) {
      val hi = math.min(m, lo + per)
      engine.processBatch(spark, events.filter(e => e.id >= lo && e.id < hi))
      lo = hi
    }
  }

  /** Allocation so tight that p stays 1 — the engine degenerates to exact. */
  private def exactish: EpsilonAllocation = EpsilonAllocation.Baseline(1e-6, net.n)

  test("exact-mode micro-batching reproduces exact counts and 2nm messages") {
    val m = 2000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 1L)
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 2L)
    run(engine, events, m, numBatches = 5)

    val ref = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, ref, ForwardSampler.localEvents(net, m, k, seed = 1L))

    assert(engine.messages == 2L * net.n * m)
    assert(engine.eventsProcessed == m)
    (0 until layout.numCounters).foreach { c =>
      assert(engine.coordinator.estimate(c) == ref.count(c).toDouble, s"counter $c")
    }
  }

  test("state carries across batches: one batch equals many batches in exact mode") {
    val m = 1500L
    val events = ForwardSampler.events(spark, net, m, k, seed = 3L)
    val one = MicroBatchEngine(net, layout, exactish, k, seed = 4L)
    run(one, events, m, numBatches = 1)
    val many = MicroBatchEngine(net, layout, exactish, k, seed = 4L)
    run(many, events, m, numBatches = 7)
    (0 until layout.numCounters).foreach { c =>
      assert(one.coordinator.estimate(c) == many.coordinator.estimate(c), s"counter $c")
    }
  }

  test("approximate mode saves communication") {
    val m = 20000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 5L)
    val engine = MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(0.8, net.n), k, seed = 6L)
    run(engine, events, m, numBatches = 10)
    assert(engine.messages < 2L * net.n * m / 2, s"messages=${engine.messages}")
  }

  test("approximate mode stays close to the exact MLE") {
    val m = 20000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 7L)
    val engine = MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(0.4, net.n), k, seed = 8L)
    run(engine, events, m, numBatches = 10)

    val ref = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, ref, ForwardSampler.localEvents(net, m, k, seed = 7L))
    val mle = new BNModel(net, layout, ref.estimate)

    val assignments = for (a <- 0 until 2; b <- 0 until 3; c <- 0 until 2)
      yield Array(a, b, c)
    val within = assignments.count { x =>
      val ratio = engine.model.jointProb(x) / mle.jointProb(x)
      ratio >= math.exp(-0.4) && ratio <= math.exp(0.4)
    }
    assert(within >= assignments.size * 3 / 4, s"$within/${assignments.size} within bounds")
  }

  test("per-batch message counts are reported and sum to the total") {
    val m = 3000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 9L)
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 10L)
    val per = math.max(1L, m / 4)
    var acc = 0L
    var lo = 0L
    while (lo < m) {
      val hi = math.min(m, lo + per)
      acc += engine.processBatch(spark, events.filter(e => e.id >= lo && e.id < hi))
      lo = hi
    }
    assert(acc == engine.messages)
  }

  test("empty batches are harmless") {
    val events = ForwardSampler.events(spark, net, 10L, k, seed = 11L)
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 12L)
    val msgs = engine.processBatch(spark, events.filter(_.id > 100L))
    assert(msgs == 0L)
    assert(engine.eventsProcessed == 0L)
  }

  private def estimates(e: MicroBatchEngine): Seq[Double] =
    (0 until layout.numCounters).map(e.coordinator.estimate)

  test("with one site and one-event batches the engine replays the sequential bank bit for bit") {
    // pScale = ε′ makes p = 1/estimate: probabilistic once a counter's
    // estimate passes 1, and at est = 0 pFor is exactly the bank's initial
    // p = 1. With one site, the bank's piggybacked p always equals
    // the p the coordinator would publish at the next batch start.
    val alloc = EpsilonAllocation.Baseline(0.9, net.n)
    val pScale = alloc.nu(0)
    val events = ForwardSampler.localEvents(net, 50L, 1, seed = 13L).toSeq
    val bank = new DistCounterBank(layout.numCounters, 1, alloc.epsArray(layout), 14L, pScale)
    val engine = new MicroBatchEngine(net, layout, alloc, 1, 14L, pScale)
    events.foreach { e =>
      layout.foreachUpdate(e.x)(bank.increment(e.site, _))
      engine.processBatch(spark, batchOf(e))
      assert(engine.messages == bank.messages, s"event ${e.id}")
    }
    assert(engine.messages < layout.updatesPerEvent * 50L / 2, "counters became probabilistic")
    (0 until layout.numCounters).foreach { c =>
      assert(engine.coordinator.estimate(c) == bank.estimate(c), s"counter $c")
    }
  }

  test("with six sites and probabilistic counters, messages and estimates stay those recorded") {
    // Recorded at commit 21c1134, with each site task counting on a copy of
    // a carried `Site` object; any change to the coins, their keys, the
    // p published per batch or the fold moves them.
    val net = TestNets.random20
    val layout = CounterLayout.standard(net)
    val events = ForwardSampler.events(spark, net, 3000L, 6, seed = 31L)
    def pass(alloc: EpsilonAllocation): (Long, Int) = {
      val e = new MicroBatchEngine(net, layout, alloc, 6, 32L, 0.05)
      (0L until 3000L by 750L).foreach { lo =>
        e.processBatch(spark, events.filter(ev => ev.id >= lo && ev.id < lo + 750L))
      }
      val bits = (0 until layout.numCounters).map(c => java.lang.Double.doubleToLongBits(e.coordinator.estimate(c)))
      (e.messages, bits.hashCode)
    }
    assert(pass(EpsilonAllocation.Uniform(0.3, net.n)) == ((36351L, -752364219)))
    assert(pass(EpsilonAllocation.NonUniform(0.3, net)) == ((36441L, 1581929970)))
  }

  test("after a pass only the counters whose p dropped below 1 hold site terms") {
    val net = TestNets.random20
    val layout = CounterLayout.standard(net)
    val events = ForwardSampler.events(spark, net, 3000L, 30, seed = 7L)
    val e = new MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(0.1, net.n), 30, 7L, 0.05)
    (0L until 3000L by 1000L).foreach { lo =>
      e.processBatch(spark, events.filter(ev => ev.id >= lo && ev.id < lo + 1000L))
    }
    val co = e.coordinator
    (0 until layout.numCounters).foreach { c =>
      assert(co.settled(c) == (co.pFor(c) < 1.0), s"counter $c")
    }
    assert((0 until layout.numCounters).exists(co.settled))
  }

  test("a batch's view holds exactly the counters with p below 1 at batch start, with their p and local counts") {
    val net = TestNets.random20
    val layout = CounterLayout.standard(net)
    val events = ForwardSampler.events(spark, net, 3000L, 30, seed = 7L)
    def check(e: MicroBatchEngine): MicroBatchEngine.View = {
      val p = e.published()
      val v = e.view(p)
      val sampled = (0 until layout.numCounters).filter(c => e.coordinator.pFor(c) < 1.0)
      assert(v.counters.toSeq == sampled)
      assert(v.p.toSeq == sampled.map(p))
      (0 until e.k).foreach { s =>
        sampled.indices.foreach(i => assert(v.local(s * sampled.size + i) == e.sites(s)(sampled(i)), s"site $s"))
      }
      v
    }
    val exact = new MicroBatchEngine(net, layout, EpsilonAllocation.Baseline(1e-6, net.n), 30, 7L, 0.05)
    val sampling = new MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(0.1, net.n), 30, 7L, 0.05)
    (0L until 3000L by 1000L).foreach { lo =>
      val batch = events.filter(ev => ev.id >= lo && ev.id < lo + 1000L)
      assert(check(exact).counters.isEmpty)
      check(sampling)
      exact.processBatch(spark, batch)
      sampling.processBatch(spark, batch)
    }
    assert(check(exact).counters.isEmpty)
    assert(check(sampling).counters.nonEmpty)
  }

  test("a batch and the same batch repartitioned give identical messages and estimates") {
    val m = 3000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 15L)
    def go(shape: Dataset[Event] => Dataset[Event]): MicroBatchEngine = {
      val e = MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(0.8, net.n), k, seed = 16L)
      (0L until m by 1000L).foreach { lo =>
        e.processBatch(spark, shape(events.filter(ev => ev.id >= lo && ev.id < lo + 1000L)))
      }
      e
    }
    val plain = go(identity)
    val shuffled = go(_.repartition(5))
    assert(plain.messages < layout.updatesPerEvent * m / 2, "counters became probabilistic")
    assert(shuffled.messages == plain.messages)
    assert(estimates(shuffled) == estimates(plain))
  }

  test("Naive-Bayes layout over concurrent site tasks matches exact counts") {
    val nbNet = NetworkGenerator.naiveBayes("nbtest", 6, classCard = 3,
      featureCards = Array(2, 3, 4, 2, 3), seed = 17L)
    val nb = CounterLayout.naiveBayes(nbNet)
    val m = 4000L
    val engine = MicroBatchEngine(nbNet, nb, EpsilonAllocation.Baseline(1e-6, nbNet.n), k, seed = 18L)
    run(engine, ForwardSampler.events(spark, nbNet, m, k, seed = 19L), m, numBatches = 2)
    val ref = new ExactCounterBank(nb.numCounters)
    SequentialDriver.run(nb, ref, ForwardSampler.localEvents(nbNet, m, k, seed = 19L))
    assert(engine.messages == nb.updatesPerEvent.toLong * m)
    (0 until nb.numCounters).foreach { c =>
      assert(engine.coordinator.estimate(c) == ref.count(c).toDouble, s"counter $c")
    }
  }

  test("a batch's site work runs in min(k, defaultParallelism) tasks that adaptive execution keeps apart") {
    assert(spark.conf.get("spark.sql.adaptive.coalescePartitions.enabled") == "true")
    val sc = spark.sparkContext
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 23L)
    val batch = batchOf((0 until 40).map(i => Event(i.toLong, i % k, Array(0, 1, 1))): _*)
    val group = "micro-batch-site-tasks"
    sc.setJobGroup(group, "one micro-batch")
    try engine.processBatch(spark, batch) finally sc.clearJobGroup()
    // The status store is filled from the listener bus, so it may lag the job.
    val siteTasks = eventually(Timeout(Span(30, Seconds))) {
      val job = sc.statusTracker.getJobInfo(sc.statusTracker.getJobIdsForGroup(group).max).get
      assert(job.status == JobExecutionStatus.SUCCEEDED)
      sc.statusTracker.getStageInfo(job.stageIds.max).get.numTasks // the job's final stage
    }
    assert(siteTasks == math.min(k, sc.defaultParallelism))
  }

  test("a batch runs as one Spark job of two stages: one shuffle-map stage and one result stage") {
    val sc = spark.sparkContext
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 25L)
    val batch = batchOf((0 until 40).map(i => Event(i.toLong, i % k, Array(0, 1, 1))): _*)
    val group = "micro-batch-job-shape"
    sc.setJobGroup(group, "one micro-batch")
    try engine.processBatch(spark, batch) finally sc.clearJobGroup()
    // A job has one result stage, its last; every other stage is a shuffle-map
    // stage. The status store lags the job, so every check waits for it.
    eventually(Timeout(Span(30, Seconds))) {
      val jobs = sc.statusTracker.getJobIdsForGroup(group)
      assert(jobs.length == 1, s"jobs ${jobs.mkString(", ")}")
      val job = sc.statusTracker.getJobInfo(jobs.head).get
      assert(job.status == JobExecutionStatus.SUCCEEDED)
      val stages = job.stageIds.sorted.map(id => sc.statusTracker.getStageInfo(id).get)
      assert(stages.length == 2, s"stages ${job.stageIds.mkString(", ")}")
      assert(stages.last.numTasks == math.min(k, sc.defaultParallelism))
    }
  }

  test("a batch rejected in its site tasks leaves no block of its view stored") {
    val sc = spark.sparkContext
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 26L)
    engine.processBatch(spark, batchOf(Event(0L, 0, Array(0, 1, 1)))) // broadcasts the layout
    val blocks = new BroadcastBlocks
    sc.addSparkListener(blocks)
    try {
      intercept[Exception](engine.processBatch(spark, batchOf(Event(1L, 0, Array(0, 3, 1)))))
      // The view is the batch's first broadcast; the others hold its stages' tasks.
      eventually(Timeout(Span(30, Seconds))) {
        val (put, removed) = blocks.snapshot
        assert(put.nonEmpty && removed.contains(put.min), s"put $put, removed $removed")
      }
    } finally sc.removeSparkListener(blocks)
  }

  private def batchOf(events: Event*): Dataset[Event] = {
    val session = spark
    import session.implicits._
    session.createDataset(events)
  }

  test("rejects a batch with a site outside [0, k), naming the site, before any state changes") {
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 20L)
    val bad = batchOf(Event(0L, 1, Array(0, 1, 1)), Event(1L, k, Array(1, 2, 0)))
    val e = intercept[IllegalArgumentException](engine.processBatch(spark, bad))
    assert(e.getMessage.contains(s"site $k outside [0, $k)"))
    assert(engine.messages == 0L && engine.eventsProcessed == 0L)
    assert(engine.processBatch(spark, batchOf(Event(0L, 1, Array(0, 1, 1)))) == layout.updatesPerEvent)
  }

  test("rejects a batch that would push an exact counter's local count past Int.MaxValue, before any state changes") {
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 24L)
    val x = Array(0, 1, 1)
    engine.processBatch(spark, batchOf(Event(0L, 0, x), Event(1L, 1, x)))
    val (msgs, events, est) = (engine.messages, engine.eventsProcessed, estimates(engine))
    var c = -1
    layout.foreachUpdate(x)(u => if (c < 0) c = u)
    engine.sites(2)(c) = Int.MaxValue - 1
    val bad = batchOf(Event(2L, 0, x), Event(3L, 2, x), Event(4L, 2, x), Event(5L, 3, x))
    val e = intercept[ArithmeticException](engine.processBatch(spark, bad))
    assert(e.getMessage == s"site 2 counter $c: local count overflows Int.MaxValue")
    assert(engine.messages == msgs && engine.eventsProcessed == events && estimates(engine) == est)
    assert(engine.sites(2)(c) == Int.MaxValue - 1 && engine.sites(0)(c) == 1)
  }

  /** Messages of an exception and of its causes: a site task's failure
    * reaches the driver wrapped in Spark's own exception.
    */
  private def messages(t: Throwable): String =
    Iterator.iterate(t)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString("\n")

  test("rejects an event whose assignment has the wrong length") {
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 21L)
    val e = intercept[Exception](engine.processBatch(spark, batchOf(Event(0L, 0, Array(0, 1)))))
    assert(messages(e).contains("assignment has 2 values, expected 3"))
  }

  test("rejects an event with a value outside its variable's domain") {
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 22L)
    val e = intercept[Exception](engine.processBatch(spark, batchOf(Event(0L, 0, Array(0, 3, 1)))))
    assert(messages(e).contains("x(1) = 3 outside [0, 3)"))
  }
}

/** The ids of the broadcasts whose blocks were put, and of those whose
  * blocks were removed, while it listened.
  */
private final class BroadcastBlocks extends SparkListener {
  private val put = mutable.Set.empty[Long]
  private val removed = mutable.Set.empty[Long]

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    info.blockId match {
      case b: BroadcastBlockId => (if (info.storageLevel.isValid) put else removed) += b.broadcastId
      case _ =>
    }
  }

  def snapshot: (Set[Long], Set[Long]) = synchronized((put.toSet, removed.toSet))
}
