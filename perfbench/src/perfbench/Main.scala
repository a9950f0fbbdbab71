package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer

/** Benchmark entry point.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Builds the workload's inputs from the seed (three times; set-up time is
  * the median), runs two untimed warm-up iterations, then repeats untraced
  * iterations for `--seconds`; `run_s` is the median of their times. With
  * `--trace 1` it spends half of `--seconds` on untraced iterations and
  * half on traced replays, and reports the per-layer metrics instead.
  * Every iteration is checked; the last line of standard output is the
  * JSON result.
  */
object Main {
  val workloads: Map[String, Long => Workload] = Map(
    "grid-munin-calibrated" -> (s => new GridWorkload(s)),
    "microbatch-munin-calibrated" -> (s => new MicroBatchWorkload(s)),
  )

  def main(args: Array[String]): Unit = {
    val toMain = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(name: String): String = opts.getOrElse(name, sys.error(s"missing --$name"))
    val name = opt("workload")
    val seed = opt("seed").toLong
    val workload = workloads.getOrElse(name, sys.error(s"unknown workload $name"))(seed)
    val code =
      try {
        println(new Runner(name, seed, workload, opt("seconds").toDouble, opt("trace") == "1", toMain).run())
        0
      } catch {
        case e: Throwable => e.printStackTrace(); 1
      } finally workload.close()
    sys.exit(code)
  }
}

final class Runner(name: String, seed: Long, w: Workload, seconds: Double, traced: Boolean, toMain: Double) {
  private var attempted = 0
  private var failed = 0
  private var reference: Map[String, Array[Long]] = Map.empty

  private def say(line: String): Unit = println(s"[perfbench] $line")

  /** Counts one checked iteration; the first sets the bits every later one must reproduce. */
  private def record(o: Outcome, extra: Seq[(String, Boolean)] = Nil): Unit = {
    val keys = o.algos.map(a => a.algo -> a.key()).toMap
    if (reference.isEmpty) reference = keys
    val same = reference.keySet == keys.keySet &&
      keys.forall { case (a, k) => java.util.Arrays.equals(k, reference(a)) }
    val bad = (o.checks ++ extra :+ ("same messages and estimates as the first iteration at this seed" -> same))
      .filterNot(_._2).map(_._1)
    attempted += 1
    if (bad.nonEmpty) {
      failed += 1
      say(s"FAILED: ${bad.mkString("; ")}")
    }
  }

  /** Repeats `body` for `span` seconds (at least once). */
  private def window[A](span: Double)(body: => A): Seq[A] = {
    val out = ArrayBuffer.empty[A]
    val t0 = System.nanoTime()
    while (out.isEmpty || (System.nanoTime() - t0) / 1e9 < span) out += body
    out.toSeq
  }

  def run(): String = {
    val (_, openS) = Bench.seconds(w.open())
    val reps = (1 to 3).map(_ => Bench.seconds(w.setup()))
    val setupS = toMain + openS + Stats.median(reps.map(_._2))
    val setupLayers = reps.head._1.keys.map(k => k -> Stats.median(reps.map(_._1(k)))).toMap
    val setupHeap = Bench.liveHeapMb()

    record(w.run(), Seq("set-up network equals the program's Networks entry" -> w.networkMatches))
    record(w.run())
    // A traced run splits its measuring time between untraced and traced iterations.
    val span = if (traced) seconds / 2 else seconds
    // Only the last iteration's outcome stays reachable, so the heap read
    // after the window holds one iteration's engine state.
    var last: Outcome = null
    val untraced = window(span) {
      last = null
      val (o, s) = Bench.seconds(w.run())
      record(o)
      last = o
      s
    }
    val retained = Bench.liveHeapMb()
    java.lang.ref.Reference.reachabilityFence(last)
    val runS = Stats.median(untraced)

    say(f"$name seed=$seed setup_s=$setupS%.3f run_s=$runS%.4f " +
      f"retained_mb=$retained%.1f")
    say(s"  set-up seconds ${reps.map(r => f"${r._2}%.3f").mkString(" ")}; iteration seconds " +
      untraced.map(s => f"$s%.3f").mkString(" "))
    say("  timed in set-up, outside run_s: " +
      setupLayers.toSeq.sorted.map { case (k, v) => f"$k=$v%.4g" }.mkString(" "))
    last.algos.foreach { a =>
      say(f"  ${a.algo}%-10s messages=${a.messages}%d cls_err=${a.clsErr}%.4f err_vs_mle=${a.errVsMle}%.6f")
    }

    val metrics: Seq[(String, Double, String)] =
      if (!traced) Seq(
        ("setup_s", setupS, "s"),
        ("run_s", runS, "s"),
        ("events_per_s", last.events / runS, "1/s"),
        ("retained_mb", retained, "MB"),
        ("messages.uniform", last("uniform").messages.toDouble, "count"),
        ("cls_err.uniform", last("uniform").clsErr, "ratio"),
      )
      else {
        last = null
        val replays = window(span) {
          val trace = new Trace
          val (o, layers) = w.replay(trace)
          trace.stop()
          record(o)
          (layers, trace)
        }
        Layers.writeSpans(replays.last._2, name, seed)
        val keys = replays.head._1.keySet
        val layers = setupLayers ++ keys.map(k => k -> Stats.median(replays.map(_._1(k))))
        val onClock = Stats.median(replays.map(_._2.onClockSeconds))
        val derived = Map(
          "counter.state_mb" -> (retained - setupHeap),
          "trace.overhead_s" -> (onClock - runS),
          "trace.span_share" -> Stats.median(replays.map(r => r._2.coveredSeconds / r._2.onClockSeconds)),
        )
        val all = layers ++ derived
        all.toSeq.sortBy(_._1).foreach { case (k, v) => say(f"  $k%-40s $v%.6g") }
        Layers.names.map(n => (n, all.getOrElse(n, 0.0), Layers.unit(n)))
      }

    val bad = metrics.filterNot(m => Bench.finite(m._2))
    if (bad.nonEmpty) {
      failed += 1
      say(s"FAILED: non-finite ${bad.map(_._1).mkString(", ")}")
    }
    val body = metrics.map { case (n, v, u) =>
      val value =
        if (!Bench.finite(v)) "0"
        else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
        else v.toString
      s""""$n": {"value": $value, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}
