package repro.stream

import java.util.concurrent.{ExecutionException, ExecutorService, Executors, Future}

import repro.bn.{BayesianNetwork, Event}
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
  * Several banks (one per allocation and run) share one pass: the caller's
  * thread pulls each event once and computes its counter ids once, in
  * chunks of up to `chunkEvents` events, and groups each chunk's
  * increments by counter with a stable counting sort. Every bank then
  * consumes the chunk as its own task on a small daemon pool, counter by
  * counter in ascending order, while the next chunk is being read: one
  * `CounterBank.feed` call per counter the chunk touches, with that
  * counter's run of increments. A bank whose state is counter-major
  * (`DistCounterBank`) so walks its memory in order, and checks a
  * counter's regime once per run. Chunks end at checkpoints, and a bank
  * starts a chunk only after every bank has finished the previous one.
  *
  * HYZ counters are independent: only counter c's own increments touch
  * its state, and the sort keeps them in stream order. Each bank therefore
  * sees every counter's increments in exactly the order of an event-by-event
  * pass of its own, and its messages (a sum over counters) and estimates
  * are the same bit for bit.
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

  /** `run` for every bank over the same single pass of `events`; returns
    * each bank's snapshots, in the order of `banks`. An exception of a
    * bank or of the input is rethrown as it was raised, once no bank is
    * running any more.
    */
  def runAll(layout: CounterLayout, banks: Seq[CounterBank], events: Iterator[Event],
             checkpoints: Seq[Long] = Seq.empty): Seq[Seq[Snapshot]] = {
    val upe = layout.updatesPerEvent
    val numCounters = layout.numCounters
    val cps = checkpoints.filter(_ > 0).distinct.sorted.iterator.buffered
    val bs = banks.toIndexedSeq
    val out = bs.map(_ => Seq.newBuilder[Snapshot])

    // The caller's thread reads a chunk into these before grouping it.
    val eventSites = new Array[Int](chunkEvents)
    val ids = new Array[Int](chunkEvents * upe)
    val next = new Array[Int](numCounters)

    def fill(c: Chunk, from: Long): Unit = {
      val limit = if (cps.hasNext) math.min(chunkEvents.toLong, cps.head - from).toInt else chunkEvents
      var n = 0
      var j = 0
      while (n < limit && events.hasNext) {
        val e = events.next()
        eventSites(n) = e.site
        layout.foreachUpdate(e.x) { id => ids(j) = id; j += 1 }
        n += 1
      }
      group(c, n, j)
      c.end = from + n
      val atCheckpoint = cps.hasNext && cps.head == c.end
      if (atCheckpoint) cps.next()
      c.snapshot = atCheckpoint || !events.hasNext
    }

    /** Stable counting sort of the `n` events' `size` increments by counter. */
    def group(c: Chunk, n: Int, size: Int): Unit = {
      val start = c.start
      java.util.Arrays.fill(start, 0)
      var i = 0
      while (i < size) { start(ids(i) + 1) += 1; i += 1 }
      var counter = 0
      while (counter < numCounters) { start(counter + 1) += start(counter); counter += 1 }
      System.arraycopy(start, 0, next, 0, numCounters)
      var e = 0
      i = 0
      while (e < n) {
        val site = eventSites(e)
        val stop = i + upe
        while (i < stop) {
          val id = ids(i)
          c.sites(next(id)) = site
          next(id) += 1
          i += 1
        }
        e += 1
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
