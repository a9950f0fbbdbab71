package repro.stream

import java.util.concurrent.{ExecutionException, ExecutorService, Executors, Future}

import repro.bn.{BayesianNetwork, Event, EventSource}
import repro.core.BNModel
import repro.counter.{CounterBank, CounterLayout}

/** State of the monitored model after `m` observations.
  *
  * @param m         number of observations processed so far
  * @param messages  cumulative site → coordinator messages
  * @param estimates frozen copy of the coordinator's counter estimates
  */
final case class Snapshot(m: Long, messages: Long, estimates: Array[Double]) {
  def model(net: BayesianNetwork, layout: CounterLayout): BNModel =
    BNModel.fromArray(net, layout, estimates)
}

/** Event-by-event continuous-monitoring driver: the one loop that runs
  * counter banks over a stream.
  *
  * This is exactly the experimental setup of Section 6: k sites and one
  * coordinator; each event arrives at its site, which runs Algorithm 2
  * (increment the two counters of every family); each bank decides which
  * increments turn into messages. Checkpoints snapshot the coordinator
  * state so accuracy-vs-m curves come from a single pass.
  *
  * Several banks (one per allocation and run) share one pass. The
  * caller's thread reads the stream in chunks of up to `chunkEvents`
  * events, each into one variable-major block of n × `chunkEvents` values
  * (`EventSource.read`; the sampled source fills it with one
  * `BayesianNetwork.sampleBlock` call and builds no `Event`), computes the
  * chunk's counter ids once, variable by variable
  * (`CounterLayout.blockUpdates`), and groups its increments by counter
  * with a stable counting sort. Every bank then consumes the chunk as its
  * own task on a small daemon pool, counter by counter in ascending order,
  * while the next chunk is being read: one `CounterBank.feed` call per
  * counter the chunk touches, with that counter's run of increments. A
  * bank whose state is counter-major (`DistCounterBank`) so walks its
  * memory in order, and checks a counter's regime once per run. Chunks end
  * at checkpoints, and a bank starts a chunk only after every bank has
  * finished the previous one.
  *
  * HYZ counters are independent: only counter c's own increments touch
  * its state. Every counter belongs to one variable, so its ids lie in one
  * row of the variable-major ids, in event order, and the sort keeps them
  * in stream order. Each bank therefore sees every counter's increments in
  * exactly the order of an event-by-event pass of its own, and its
  * messages (a sum over counters) and estimates are the same bit for bit.
  */
object SequentialDriver {

  private[stream] val chunkEvents = 256

  private lazy val pool: ExecutorService =
    Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors(), { (r: Runnable) =>
      val t = new Thread(r, "sequential-driver")
      t.setDaemon(true)
      t
    })

  /** The increments of up to `chunkEvents` events, grouped by counter: the
    * sites of counter c's increments, in stream order, are `sites` from
    * `start(c)` until `start(c + 1)`.
    */
  private final class Chunk(numCounters: Int, upe: Int) {
    val start = new Array[Int](numCounters + 1)
    val sites = new Array[Int](chunkEvents * upe)
    var end = 0L
    var snapshot = false
  }

  /** Process `events` in arrival order; snapshot after each checkpoint
    * (event counts) the stream reaches, and always at the end of the
    * stream, so the last snapshot is the final state.
    */
  def run(layout: CounterLayout, bank: CounterBank, events: Iterator[Event],
          checkpoints: Seq[Long] = Seq.empty): Seq[Snapshot] =
    runAll(layout, Seq(bank), events, checkpoints).head

  /** `runAll` over the events of an iterator, each read into the pass's
    * block as it enters: one that does not hold `layout.net.n` values, or
    * is routed to a site outside [0, k) of a bank, is rejected before any
    * bank counts it.
    */
  def runAll(layout: CounterLayout, banks: Seq[CounterBank], events: Iterator[Event],
             checkpoints: Seq[Long] = Seq.empty): Seq[Seq[Snapshot]] =
    runAll(layout, banks, EventSource(events, layout.net.n, banks.foldLeft(Int.MaxValue)(_ min _.k)),
      checkpoints)

  /** `run` for every bank over the same single pass of `events`; returns
    * each bank's snapshots, in the order of `banks`. An exception of a
    * bank or of the input is rethrown as it was raised, once no bank is
    * running any more.
    */
  def runAll(layout: CounterLayout, banks: Seq[CounterBank], events: EventSource,
             checkpoints: Seq[Long]): Seq[Seq[Snapshot]] = {
    val upe = layout.updatesPerEvent
    val numCounters = layout.numCounters
    val cps = checkpoints.filter(_ > 0).distinct.sorted.iterator.buffered
    val bs = banks.toIndexedSeq
    val out = bs.map(_ => Seq.newBuilder[Snapshot])

    // The caller's thread reads a chunk into these before grouping it.
    val block = new Array[Int](layout.net.n * chunkEvents)
    val eventSites = new Array[Int](chunkEvents)
    val ids = new Array[Int](chunkEvents * upe)
    val next = new Array[Int](numCounters)

    def fill(c: Chunk, from: Long): Unit = {
      val limit = if (cps.hasNext) math.min(chunkEvents.toLong, cps.head - from).toInt else chunkEvents
      val n = events.read(limit, block, eventSites)
      layout.blockUpdates(block, n, ids)
      group(c, n)
      c.end = from + n
      val atCheckpoint = cps.hasNext && cps.head == c.end
      if (atCheckpoint) cps.next()
      c.snapshot = atCheckpoint || !events.hasNext
    }

    /** Stable counting sort of the `n` events' increments by counter. Each
      * counter's ids lie in one row of `ids`, in event order, so scattering
      * the rows one after another keeps every counter's increments in
      * stream order.
      */
    def group(c: Chunk, n: Int): Unit = {
      val start = c.start
      val size = n * upe
      java.util.Arrays.fill(start, 0)
      var i = 0
      while (i < size) { start(ids(i) + 1) += 1; i += 1 }
      var counter = 0
      while (counter < numCounters) { start(counter + 1) += start(counter); counter += 1 }
      System.arraycopy(start, 0, next, 0, numCounters)
      i = 0
      while (i < size) {
        val stop = i + n
        var e = 0
        while (i < stop) {
          val id = ids(i)
          c.sites(next(id)) = eventSites(e)
          next(id) += 1
          e += 1
          i += 1
        }
      }
    }

    def feed(b: Int, c: Chunk): Unit = {
      val bank = bs(b)
      var counter = 0
      while (counter < numCounters) {
        val from = c.start(counter)
        val until = c.start(counter + 1)
        if (from < until) bank.feed(counter, c.sites, from, until)
        counter += 1
      }
      if (c.snapshot)
        out(b) += Snapshot(c.end, bank.messages, Array.tabulate(numCounters)(bank.estimate))
    }

    val chunks = Array(new Chunk(numCounters, upe), new Chunk(numCounters, upe))
    var pending = Seq.empty[Future[_]]
    var m = 0L
    var cur = 0
    var more = true
    try {
      while (more) {
        val c = chunks(cur)
        fill(c, m)
        m = c.end
        more = events.hasNext
        await(pending)
        pending = bs.indices.map(b => pool.submit((() => feed(b, c)): Runnable))
        cur = 1 - cur
      }
      await(pending)
    } catch {
      case t: Throwable =>
        // A failure of the chunk before comes first in stream order.
        val earlier = try { await(pending); None } catch { case e: Throwable => Some(e) }
        throw earlier.filter(_ ne t).getOrElse(t)
    }
    out.map(_.result())
  }

  /** Waits for every task, then rethrows the first failure (in task order)
    * as the task raised it.
    */
  private[repro] def await(tasks: Seq[Future[_]]): Unit = {
    var failure: Throwable = null
    tasks.foreach { f =>
      try f.get()
      catch { case e: ExecutionException => if (failure == null) failure = e.getCause }
    }
    if (failure != null) throw failure
  }
}
