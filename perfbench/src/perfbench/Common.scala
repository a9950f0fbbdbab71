package perfbench

import java.io.File
import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.bn.{BayesianNetwork, Event, NetworkGenerator}
import repro.counter.{Coordinator, CounterBank, CounterLayout, ExactCounterBank}
import repro.stream.Snapshot

/** One algorithm's result in one iteration. `key` holds the bits that a
  * replay at the same seed must reproduce exactly (messages, then the
  * coordinator estimates or the evaluated figures).
  */
final case class AlgoOutcome(algo: String, messages: Long, clsErr: Double, errVsMle: Double,
                             key: () => Array[Long])

/** What one iteration produced.
  *
  * @param events stream events ingested, summed over protocol passes
  * @param checks named correctness checks of this iteration
  * @param state  engine state, kept reachable until the heap is read
  */
final case class Outcome(events: Long, algos: Seq[AlgoOutcome], checks: Seq[(String, Boolean)],
                         state: AnyRef) {
  def apply(algo: String): AlgoOutcome = algos.find(_.algo == algo).get
}

/** A benchmark workload: inputs built from the seed, one untraced timed
  * iteration through the program's public entry points, and a traced
  * replay of exactly the same work layer by layer.
  */
trait Workload {
  /** One-time process set-up (the Spark session), before the repeated set-up. */
  def open(): Unit = ()

  /** Builds every input from the seed; returns layer seconds spent in it. */
  def setup(): Map[String, Double]

  def run(): Outcome

  /** Replays `run()` with spans recorded into `trace`; returns the outcome
    * and the layer metrics it measured.
    */
  def replay(trace: Trace): (Outcome, Map[String, Double])

  /** Whether the network built in set-up equals the program's `Networks` one. */
  def networkMatches: Boolean

  def close(): Unit = ()
}

object Bench {
  val k = 30
  val eps = 0.1
  val nTests = 4000
  val algos = Seq("baseline", "uniform", "nonuniform")

  /** Protocol seed of a workload seed; the first run of `Tables.runDataset`. */
  def protocolSeed(seed: Long): Long = seed + 7919L

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** The evaluation network, regenerated on every call so that set-up
    * pays for generation each time; `Networks` in the program holds the
    * same parameters and `sameNetwork` checks that they still agree.
    */
  def munin(): BayesianNetwork =
    NetworkGenerator.calibrated("munin", 1041, 1397, 80592L, maxCard = 12, maxParents = 3, seed = 104L)

  def sameNetwork(a: BayesianNetwork, b: BayesianNetwork): Boolean =
    a.card.sameElements(b.card) &&
      a.parents.indices.forall(i => a.parents(i).sameElements(b.parents(i))) &&
      a.cpt.indices.forall(i => a.cpt(i).indices.forall(u => a.cpt(i)(u).sameElements(b.cpt(i)(u))))

  /** Directory for everything the benchmark writes: the checkout's build dir. */
  def workDir: File = {
    val d = new File(sys.props.getOrElse("perfbench.work", ".bench_build/perfbench/work"))
    d.mkdirs()
    d
  }

  def sparkSession(): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val local = new File(workDir, "spark").getAbsolutePath
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", local)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
      // Bounded status history keeps the retained heap independent of run length.
      .config("spark.ui.retainedJobs", 10)
      .config("spark.ui.retainedStages", 10)
      .config("spark.ui.retainedTasks", 1000)
      .config("spark.sql.ui.retainedExecutions", 10)
      .getOrCreate()
  }

  /** Heap in use after full collections, in MB. The pauses let Spark's
    * context cleaner drop the shuffle and broadcast state that the first
    * collection found unreachable, so the reading does not depend on
    * how many jobs ran before it.
    */
  def liveHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    var i = 0
    while (i < 3) { System.gc(); Thread.sleep(200); i += 1 }
    System.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def bits(messages: Long, xs: Array[Double]): Array[Long] =
    messages +: xs.map(java.lang.Double.doubleToLongBits)

  def finite(x: Double): Boolean = !x.isNaN && !x.isInfinite

  /** Checks common to every sequential or micro-batch protocol result. */
  def messageChecks(layout: CounterLayout, m: Long, exactMessages: Option[Long],
                    approx: Seq[AlgoOutcome]): Seq[(String, Boolean)] = {
    val full = layout.updatesPerEvent.toLong * m
    exactMessages.map(e => "exactmle messages = updatesPerEvent * m" -> (e == full)).toSeq ++
      approx.map(a => s"${a.algo} messages <= updatesPerEvent * m" -> (a.messages <= full)) ++
      approx.map(a => s"${a.algo} err_vs_mle finite" -> finite(a.errVsMle)) ++
      approx.map(a => s"${a.algo} cls_err finite" -> finite(a.clsErr))
  }

  /** Replays `SequentialDriver.run(layout, bank, events)` without
    * checkpoints, in chunks, with spans around sampling (`events` is the
    * lazy sampler), counter ids, the bank's increments and the final snapshot. The
    * increments reach the bank in the same order as in `SequentialDriver`. When
    * `reference` is given it receives the same increments inside a
    * reference span (the exact-count floor).
    */
  def tracedPass(trace: Trace, layout: CounterLayout, bank: CounterBank, algo: String,
                 events: Iterator[Event], reference: Option[ExactCounterBank] = None): Snapshot = {
    val chunk = 32
    val ids = new Array[Int](chunk * layout.updatesPerEvent)
    val sites = new Array[Int](ids.length)
    val batch = new Array[Event](chunk)
    var m = 0L
    var more = true
    while (more) {
      val got = trace.span("bn.sample") {
        var n = 0
        while (n < chunk && events.hasNext) { batch(n) = events.next(); n += 1 }
        n
      }
      more = got == chunk
      val n = trace.span("counter.ids") {
        var n = 0
        var e = 0
        while (e < got) {
          val ev = batch(e)
          layout.foreachUpdate(ev.x) { c => ids(n) = c; sites(n) = ev.site; n += 1 }
          e += 1
        }
        n
      }
      trace.span(s"counter.protocol.$algo") {
        var i = 0
        while (i < n) { bank.increment(sites(i), ids(i)); i += 1 }
      }
      reference.foreach { ref =>
        trace.span("counter.protocol.exactmle", reference = true) {
          var i = 0
          while (i < n) { ref.increment(sites(i), ids(i)); i += 1 }
        }
      }
      m += got
    }
    trace.span("stream.snapshot") {
      Snapshot(m, bank.messages, Array.tabulate(layout.numCounters)(bank.estimate))
    }
  }

  /** Counter regime at the end of a pass, read through `Coordinator.pFor`
    * and `estimate` against exact counts: shares of the counters that saw
    * at least one increment by reporting probability, the share of all
    * increments that fell on counters probabilistic at the end, and the
    * observed error |estimate − exact| / (ε′·exact).
    */
  def regime(algo: String, coord: Coordinator, exact: Int => Long): Map[String, Double] = {
    val buckets = new Array[Long](4)
    var touched = 0L
    var increments = 0L
    var probIncrements = 0L
    var errMax = 0.0
    var errSum = 0.0
    var c = 0
    while (c < coord.numCounters) {
      val ex = exact(c)
      if (ex > 0) {
        val p = coord.pFor(c)
        val b = if (p >= 1.0) 0 else if (p >= 0.1) 1 else if (p >= 0.01) 2 else 3
        buckets(b) += 1
        touched += 1
        increments += ex
        if (b > 0) probIncrements += ex
        val r = math.abs(coord.estimate(c) - ex) / (coord.eps(c) * ex)
        errMax = math.max(errMax, r)
        errSum += r
      }
      c += 1
    }
    val t = math.max(1L, touched).toDouble
    Map(
      s"counter.regime.$algo.exact" -> buckets(0) / t,
      s"counter.regime.$algo.p_e-1" -> buckets(1) / t,
      s"counter.regime.$algo.p_e-2" -> buckets(2) / t,
      s"counter.regime.$algo.p_lt_e-2" -> buckets(3) / t,
      s"counter.prob_increment_share.$algo" -> probIncrements / math.max(1L, increments).toDouble,
      s"counter.err_ratio.$algo.max" -> errMax,
      s"counter.err_ratio.$algo.mean" -> errSum / t,
    )
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The `p` quantile, interpolating linearly between order statistics. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of nothing")
    val s = xs.sorted
    val pos = p * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}
