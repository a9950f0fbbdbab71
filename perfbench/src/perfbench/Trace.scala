package perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory span log of one traced replay.
  *
  * Spans are recorded by the benchmark around its calls into the program's
  * public functions; nothing inside the program is instrumented. A span
  * marked `reference` times work the untraced run does not do (exact
  * reference counts, regime readings); it is excluded from the on-clock
  * wall time that the tracing overhead and the span coverage are taken
  * against.
  */
final class Trace {
  import Trace.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open = -1
  private val started = System.nanoTime()
  private var stopped = -1L

  def span[A](name: String, reference: Boolean = false)(body: => A): A = {
    val id = spans.length
    spans += Span(name, open, System.nanoTime(), -1L, reference)
    val parent = open
    open = id
    try body
    finally {
      spans(id) = spans(id).copy(end = System.nanoTime())
      open = parent
    }
  }

  /** Total seconds of every span with this name. */
  def seconds(name: String): Double =
    spans.iterator.filter(_.name == name).map(_.nanos).sum / 1e9

  /** Seconds of each span with this name, in order. */
  def each(name: String): Seq[Double] = spans.iterator.filter(_.name == name).map(_.nanos / 1e9).toSeq

  /** Seconds of top-level reference work. */
  def referenceSeconds: Double =
    spans.iterator.filter(s => s.parent < 0 && s.reference).map(_.nanos).sum / 1e9

  /** Seconds covered by top-level spans that replay untraced work. */
  def coveredSeconds: Double =
    spans.iterator.filter(s => s.parent < 0 && !s.reference).map(_.nanos).sum / 1e9

  /** Ends the traced run; later spans are not expected. */
  def stop(): Unit = stopped = System.nanoTime()

  /** Wall seconds from the start of the trace to `stop()`, minus reference work. */
  def onClockSeconds: Double = (stopped - started) / 1e9 - referenceSeconds

  /** One JSON object per span (name, parent index, start and end in ns). */
  def jsonLines: Iterator[String] = spans.iterator.map { s =>
    s"""{"name":"${s.name}","parent":${s.parent},"start_ns":${s.start - started},""" +
      s""""end_ns":${s.end - started},"reference":${s.reference}}"""
  }
}

object Trace {
  private final case class Span(name: String, parent: Int, start: Long, end: Long, reference: Boolean) {
    def nanos: Long = end - start
  }
}
