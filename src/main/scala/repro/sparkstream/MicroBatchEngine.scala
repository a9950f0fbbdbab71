package repro.sparkstream

import java.util.Arrays
import org.apache.spark.{HashPartitioner, SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.ShuffledRDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bn.{BayesianNetwork, Event, EventSource}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{Coordinator, CounterLayout, Site}

/** What one site task returns for one micro-batch: the number of events it
  * counted and, per counter it touched, its number of increments. The
  * first `reported.length` counters are the sampled ones, those in the
  * batch's `View`; each of them also carries the last reported count and
  * the number of reports, which is 0 when it sent none. Every increment of
  * the other counters, whose p is 1, is a report.
  */
final case class SiteRow(site: Int, events: Long, counters: Array[Int], increments: Array[Int],
                         reported: Array[Int], reports: Array[Int])

/** Spark micro-batch realization of the continuous monitoring protocol.
  *
  * The driver holds each site's local counts, one array per site. Each
  * batch it broadcasts one `View`: the counters whose published p is below
  * 1, their p, and each site's local count of each. A counter at p = 1
  * reports every increment and draws no coin, so its site task needs none
  * of its state. The counter layout is broadcast once per engine and
  * `SparkContext`.
  *
  * A batch is one Spark job with one shuffle. Its events are keyed by
  * site and hash-partitioned into min(k, defaultParallelism) tasks of a
  * `ShuffledRDD`, which adaptive query execution cannot coalesce; each task
  * groups its events by site, runs one site task per site, and hands its
  * rows to `SparkContext.runJob`. The functions passed to Spark are named
  * classes, not lambdas, and the job is built without `keyBy`, `values` or
  * `collect`: for each lambda, Spark's `ClosureCleaner` reads and parses
  * the class file of the class that declares it, a few milliseconds a
  * call. A site task reads its events into one variable-major
  * block (`EventSource`), takes their ids from `CounterLayout.blockUpdates`
  * as the sequential pass does, and counts the increments of each counter.
  * For a sampled counter it then runs `Site.increment` that many times from
  * the site's local count in the view, with the p published at the start
  * of the batch, so its coins are the ones the sequential bank draws.
  * Within a batch p is fixed, so a site's reports depend only on its local
  * counts, not on the order of its increments, and each report replaces
  * the last one in the coordinator's estimate. A site task therefore
  * returns one `SiteRow`.
  *
  * The driver, playing the coordinator, first checks every row: its site is
  * in [0, k) and no local count would pass `Int.MaxValue`. Only then does
  * it fold the rows in site order, adding each row's increments to its
  * site's local counts. Every increment of a counter at p = 1 is a report,
  * which the driver folds through `Coordinator.receiveExact`, keeping no
  * site term; a sampled counter's last report goes through
  * `Coordinator.receive` with the number of reports it stands for.
  * Communication cost is the sum of those report counts. A counter whose p
  * drops below 1 in the fold leaves the exact regime there, and the driver
  * then `settle`s its site terms from the sites' arrays, which hold exactly
  * the counts last reported.
  *
  * Compared with the sequential driver, the only semantic difference is
  * that reporting probabilities refresh at batch boundaries instead of on
  * each acknowledgement — a standard latency/communication tradeoff that
  * preserves unbiasedness of the per-site estimator.
  */
final class MicroBatchEngine(
    val net: BayesianNetwork,
    val layout: CounterLayout,
    allocation: EpsilonAllocation,
    val k: Int,
    seed: Long,
    pScale: Double,
) {

  val coordinator = new Coordinator(layout.numCounters, k, allocation.epsArray(layout), pScale)
  private[sparkstream] val sites = Array.fill(k)(new Array[Int](layout.numCounters))
  private var processed = 0L
  private var layoutContext: SparkContext = _
  private var layoutBroadcast: Broadcast[CounterLayout] = _

  def messages: Long = coordinator.messages
  def eventsProcessed: Long = processed
  def model: BNModel = new BNModel(net, layout, coordinator.estimate)

  /** Process one micro-batch of events. Returns messages emitted by it.
    * A batch with an event routed to a site outside [0, k), or one that
    * would push a local count past `Int.MaxValue`, is rejected whole,
    * before any state changes.
    */
  def processBatch(spark: SparkSession, batch: Dataset[Event]): Long = {
    val sc = spark.sparkContext
    val before = coordinator.messages
    val p = published()
    val bcView = sc.broadcast(view(p))
    val rows =
      try {
        val bySite = new ShuffledRDD[Int, Event, Event](batch.rdd.mapPartitions(new MicroBatchEngine.KeyBySite),
          new HashPartitioner(math.min(k, sc.defaultParallelism)))
        sc.runJob(bySite, new MicroBatchEngine.SiteTasks(layoutOn(sc), bcView, k, seed)).flatten.sortBy(_.site)
      } finally bcView.destroy()

    rows.foreach { r =>
      require(r.site >= 0 && r.site < k, s"site ${r.site} outside [0, $k)")
      val local = sites(r.site)
      var i = 0
      while (i < r.counters.length) {
        val c = r.counters(i)
        if (local(c).toLong + r.increments(i) > Int.MaxValue) Site.overflow(r.site, c)
        i += 1
      }
    }
    rows.foreach { r =>
      val local = sites(r.site)
      var i = 0
      while (i < r.counters.length) {
        val c = r.counters(i)
        local(c) += r.increments(i)
        if (i >= r.reports.length) coordinator.receiveExact(c, r.increments(i))
        else if (r.reports(i) > 0) coordinator.receive(r.site, c, r.reported(i), 1.0 / p(c), r.reports(i))
        i += 1
      }
      processed += r.events
    }
    settleLeavers(p)
    coordinator.messages - before
  }

  /** The reporting probability of each counter, published for a batch. */
  private[sparkstream] def published(): Array[Double] = {
    val p = new Array[Double](layout.numCounters)
    var c = 0
    while (c < p.length) { p(c) = coordinator.pFor(c); c += 1 }
    p
  }

  /** The view of a batch published with `p`. */
  private[sparkstream] def view(p: Array[Double]): MicroBatchEngine.View = {
    var n = 0
    var c = 0
    while (c < p.length) { if (p(c) < 1.0) n += 1; c += 1 }
    val counters = new Array[Int](n)
    val sampledP = new Array[Double](n)
    var i = 0
    c = 0
    while (i < n) {
      if (p(c) < 1.0) { counters(i) = c; sampledP(i) = p(c); i += 1 }
      c += 1
    }
    val local = new Array[Int](k * n)
    var site = 0
    while (site < k) {
      i = 0
      while (i < n) { local(site * n + i) = sites(site)(counters(i)); i += 1 }
      site += 1
    }
    MicroBatchEngine.View(counters, sampledP, local)
  }

  /** The layout's broadcast on `sc`, made on the first batch there. */
  private def layoutOn(sc: SparkContext): Broadcast[CounterLayout] = {
    if (layoutContext ne sc) {
      layoutBroadcast = sc.broadcast(layout)
      layoutContext = sc
    }
    layoutBroadcast
  }

  /** Settles each counter that left the exact regime in the batch published
    * with `p`, from its sites' counts, all reported at p = 1.
    */
  private def settleLeavers(p: Array[Double]): Unit = {
    var c = 0
    while (c < p.length) {
      val counter = c
      if (p(c) >= 1.0 && coordinator.pFor(c) < 1.0) coordinator.settle(counter, site => sites(site)(counter))
      c += 1
    }
  }
}

object MicroBatchEngine {
  def apply(net: BayesianNetwork, layout: CounterLayout, allocation: EpsilonAllocation,
            k: Int, seed: Long): MicroBatchEngine =
    new MicroBatchEngine(net, layout, allocation, k, seed, Coordinator.theoryScale(k))

  /** What a batch's site tasks need of the driver's state: the counters
    * whose published p is below 1, ascending, their p, and each site's
    * local count of each, site s's count of `counters(i)` at
    * s·counters.length + i.
    */
  final case class View(counters: Array[Int], p: Array[Double], local: Array[Int])

  /** Keys each event by its site, for the shuffle. A named class, not a
    * lambda: Spark's `ClosureCleaner` returns at once for it, where it
    * would read and parse the class file of the lambda's enclosing class.
    */
  private final class KeyBySite extends (Iterator[Event] => Iterator[(Int, Event)]) with Serializable {
    def apply(events: Iterator[Event]): Iterator[(Int, Event)] = events.map(e => (e.site, e))
  }

  /** The site tasks of one shuffle partition: groups its events by site and
    * runs one site task per site. A site outside [0, k) gets an empty row,
    * which the driver rejects. A named class, as `KeyBySite` is.
    */
  private final class SiteTasks(layout: Broadcast[CounterLayout], view: Broadcast[View], k: Int, seed: Long)
      extends ((TaskContext, Iterator[(Int, Event)]) => Array[SiteRow]) with Serializable {
    def apply(context: TaskContext, pairs: Iterator[(Int, Event)]): Array[SiteRow] =
      pairs.map(_._2).toArray.groupBy(_.site).iterator.map { case (site, group) =>
        if (site < 0 || site >= k) SiteRow(site, 0L, Array.empty, Array.empty, Array.empty, Array.empty)
        else siteTask(layout.value, site, k, seed, view.value, group)
      }.toArray
  }

  /** One site's batch: counts each touched counter's increments and runs a
    * sampled counter's coins from its local count in `view`. The row lists
    * the touched counters sampled first, each part in ascending order.
    */
  private def siteTask(layout: CounterLayout, site: Int, k: Int, seed: Long, view: View,
                       group: Array[Event]): SiteRow = {
    val count = group.length
    val block = new Array[Int](layout.net.n * count)
    EventSource(group.iterator, layout.net.n, k).read(count, block, new Array[Int](count))
    val ids = new Array[Int](count * layout.updatesPerEvent)
    layout.blockUpdates(block, count, ids)
    val increments = new Array[Int](layout.numCounters)
    var touched = 0
    var i = 0
    while (i < ids.length) {
      val c = ids(i)
      if (increments(c) == 0) touched += 1
      increments(c) += 1
      i += 1
    }
    val counters = new Array[Int](touched)
    val counts = new Array[Int](touched)
    val n = view.counters.length
    val reported = new Array[Int](math.min(n, touched))
    val reports = new Array[Int](reported.length)
    val local = new Array[Int](1)
    var sampled = 0
    i = 0
    while (i < n) {
      val c = view.counters(i)
      if (increments(c) > 0) {
        local(0) = view.local(site * n + i)
        var left = increments(c)
        while (left > 0) {
          if (Site.increment(local, 0, seed, site, layout.numCounters, c, view.p(i))) {
            reported(sampled) = local(0)
            reports(sampled) += 1
          }
          left -= 1
        }
        counters(sampled) = c
        counts(sampled) = increments(c)
        increments(c) = 0 // counted, so the scan below skips it
        sampled += 1
      }
      i += 1
    }
    var next = sampled
    var c = 0
    while (next < touched) {
      if (increments(c) > 0) {
        counters(next) = c
        counts(next) = increments(c)
        next += 1
      }
      c += 1
    }
    SiteRow(site, count, counters, counts, Arrays.copyOf(reported, sampled), Arrays.copyOf(reports, sampled))
  }
}
