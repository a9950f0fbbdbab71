package perfbench

import java.io.{File, PrintWriter}

import repro.counter.CounterLayout

/** The per-layer metrics of a traced run, named after the program's
  * modules. Every traced run prints every name; a layer that a workload
  * does not exercise reads 0 (for example `sparkstream.*` on the grid
  * workload, or `counter.messages.baseline` on the micro-batch workload,
  * which runs UNIFORM only).
  */
object Layers {
  private val algosAndExact = "exactmle" +: Bench.algos

  val names: Seq[String] =
    Seq("bn.sample_s", "bn.events", "bn.resample_factor", "counter.ids_s", "counter.increments") ++
      algosAndExact.map(a => s"counter.protocol_s.$a") ++
      algosAndExact.map(a => s"counter.messages.$a") ++
      Bench.algos.map(a => s"counter.report_ratio.$a") ++
      Bench.algos.flatMap(a => Seq("exact", "p_e-1", "p_e-2", "p_lt_e-2").map(b => s"counter.regime.$a.$b")) ++
      Bench.algos.map(a => s"counter.prob_increment_share.$a") ++
      Bench.algos.flatMap(a => Seq(s"counter.err_ratio.$a.max", s"counter.err_ratio.$a.mean")) ++
      Seq("counter.state_mb", "stream.snapshot_s",
        "sparkstream.batch_s.median", "sparkstream.batch_s.max", "sparkstream.job_s",
        "sparkstream.driver_s", "sparkstream.result_bytes", "sparkstream.shuffle_bytes",
        "sparkstream.broadcast_bytes", "sparkstream.task_skew", "sparkstream.site_tasks", "sparkstream.gc_s",
        "sparkstream.messages_per_batch", "core.mle_s", "core.mle_shuffle_bytes",
        "eval.cls_s", "eval.relerr_s", "eval.queries_s") ++
      Bench.algos.map(a => s"eval.err_vs_mle.$a") ++
      algosAndExact.map(a => s"eval.cls_err.$a") ++
      Seq("trace.overhead_s", "trace.span_share")

  def unit(name: String): String =
    if (name.endsWith("_s") || name.contains("_s.")) "s"
    else if (name.endsWith("_bytes")) "B"
    else if (name.endsWith("_mb")) "MB"
    else if (name.startsWith("counter.messages") || name == "bn.events" ||
      name == "counter.increments" || name == "sparkstream.messages_per_batch" ||
      name == "sparkstream.site_tasks") "count"
    else "ratio"

  /** Message, accuracy and increment figures of one outcome. `increments`
    * is the number of counter increments one approximate pass performs.
    */
  def outcome(out: Outcome, increments: Long): Map[String, Double] =
    out.algos.flatMap { a =>
      Seq(s"counter.messages.${a.algo}" -> a.messages.toDouble, s"eval.cls_err.${a.algo}" -> a.clsErr) ++
        (if (a.algo == "exactmle") Nil
        else Seq(s"counter.report_ratio.${a.algo}" -> a.messages.toDouble / increments,
          s"eval.err_vs_mle.${a.algo}" -> a.errVsMle))
    }.toMap

  /** Spans of a sequential replay (`Bench.tracedPass` plus evaluation). */
  def sequential(trace: Trace, out: Outcome, layout: CounterLayout, m: Long, passes: Int): Map[String, Double] =
    outcome(out, layout.updatesPerEvent.toLong * m) ++
      algosAndExact.map(a => s"counter.protocol_s.$a" -> trace.seconds(s"counter.protocol.$a")) ++
      Map(
        "counter.ids_s" -> trace.seconds("counter.ids"),
        "counter.increments" -> (layout.updatesPerEvent.toLong * m * passes).toDouble,
        "stream.snapshot_s" -> trace.seconds("stream.snapshot"),
        "eval.cls_s" -> trace.seconds("eval.cls"),
        "eval.relerr_s" -> trace.seconds("eval.relerr"),
      )

  def writeSpans(trace: Trace, workload: String, seed: Long): Unit = {
    val out = new PrintWriter(new File(Bench.workDir, s"spans-$workload-seed$seed.jsonl"))
    try trace.jsonLines.foreach(out.println) finally out.close()
  }
}
