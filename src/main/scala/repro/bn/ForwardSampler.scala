package repro.bn

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.util.Rng

/** One training observation in the distributed stream.
  *
  * @param id   global arrival index (0-based); defines stream order
  * @param site the site that receives the event (uniform random, as in the paper)
  * @param x    full assignment of all n variables
  */
final case class Event(id: Long, site: Int, x: Array[Int])

/** A stream of events read in arrival order, a variable-major block at a
  * time: the input of a `SequentialDriver` pass and of a site task.
  */
trait EventSource {

  /** Whether another event follows. */
  def hasNext: Boolean

  /** Reads the next events, at most `count` and fewer only at the end of
    * the stream, and returns how many it read, r: variable i of the e-th is
    * written to `x(i·r + e)` and its site to `sites(e)`.
    */
  def read(count: Int, x: Array[Int], sites: Array[Int]): Int
}

object EventSource {

  /** The events of `events`, each checked where it enters: it must hold
    * `n` values and be routed to a site in [0, k). Their values are
    * checked against the domains where counter ids are computed
    * (`CounterLayout.blockUpdates`).
    */
  def apply(events: Iterator[Event], n: Int, k: Int): EventSource = new EventSource {
    override def hasNext: Boolean = events.hasNext

    override def read(count: Int, x: Array[Int], sites: Array[Int]): Int = {
      val xs = new Array[Array[Int]](count)
      var r = 0
      while (r < count && events.hasNext) {
        val e = events.next()
        require(e.x.length == n, s"assignment has ${e.x.length} values, expected $n")
        require(e.site >= 0 && e.site < k, s"site ${e.site} outside [0, $k)")
        xs(r) = e.x
        sites(r) = e.site
        r += 1
      }
      var i = 0
      while (i < n) {
        var e = 0
        while (e < r) { x(i * r + e) = xs(e)(i); e += 1 }
        i += 1
      }
      r
    }
  }
}

/** Distributed ancestral sampling of training events on Spark.
  *
  * Each event is deterministic in (seed, id) via the counter-based RNG, so
  * a Spark-generated stream and a driver-side regeneration are identical —
  * the DuckDB oracle and the sequential simulator see the same data.
  * Driver-side generation samples blocks of `blockEvents` events with
  * `BayesianNetwork.sampleBlock`.
  */
object ForwardSampler {

  private[repro] val blockEvents = 256

  /** Dataset of `m` events sampled from `net`, routed to `k` sites. */
  def events(spark: SparkSession, net: BayesianNetwork, m: Long, k: Int,
             seed: Long): Dataset[Event] = {
    import spark.implicits._
    require(k >= 1, s"need at least one site, got $k")
    spark.range(m).mapPartitions { ids =>
      ids.map { id => sampleEvent(net, k, seed, id) }
    }
  }

  /** The single-event sampler shared by Spark and driver-side generation. */
  def sampleEvent(net: BayesianNetwork, k: Int, seed: Long, id: Long): Event =
    Event(id, site(k, seed, id), net.sample(seed, id))

  private def site(k: Int, seed: Long, id: Long): Int = Rng.uniformInt(k, seed, 0x517eL, id)

  /** Driver-side generation of the full stream in arrival order: the
    * events of `source`, read a block of `blockEvents` at a time.
    */
  def localEvents(net: BayesianNetwork, m: Long, k: Int, seed: Long): Iterator[Event] = {
    val src = source(net, m, k, seed)
    val x = new Array[Int](net.n * blockEvents)
    val sites = new Array[Int](blockEvents)
    Iterator.iterate(0L)(_ + blockEvents).takeWhile(_ => src.hasNext).flatMap { from =>
      val r = src.read(blockEvents, x, sites)
      Iterator.tabulate(r) { e =>
        val xe = new Array[Int](net.n)
        var i = 0
        while (i < net.n) { xe(i) = x(i * r + e); i += 1 }
        Event(from + e, sites(e), xe)
      }
    }
  }

  /** The sampled stream of m events routed to k sites: each `read` samples
    * its block with one `sampleBlock` call and draws the block's sites, so
    * a pass over it builds no `Event`.
    */
  def source(net: BayesianNetwork, m: Long, k: Int, seed: Long): EventSource = {
    require(m >= 0, s"m = $m events, expected at least 0")
    require(k >= 1, s"need at least one site, got $k")
    new EventSource {
      private var next = 0L

      override def hasNext: Boolean = next < m

      override def read(count: Int, x: Array[Int], sites: Array[Int]): Int = {
        val r = math.min(count.toLong, m - next).toInt
        net.sampleBlock(seed, next, r, net.n, x)
        var e = 0
        while (e < r) { sites(e) = site(k, seed, next + e); e += 1 }
        next += r
        r
      }
    }
  }
}
