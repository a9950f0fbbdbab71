package repro.jobs

import repro.bn.BayesianNetwork
import repro.eval.{Networks, Tables}

/** Communication cost vs number of training points (Figure 9's shape):
  * one pass over the largest m feeds every algorithm's bank, with message
  * counts captured at checkpoints (`Tables.messageCounts`). EXACTMLE grows
  * linearly (2·n·m); the approximate algorithms grow logarithmically once
  * counters pass their reporting thresholds.
  */
object CommSweep {

  /** Stream lengths of the sweep unless `REPRO_SWEEP_MS` lists others. */
  val defaultMs: Seq[Long] = Seq(10000L, 50000L, 250000L, 1000000L, 4000000L)

  def ms: Seq[Long] = JobSession.knob("REPRO_SWEEP_MS", "comma-separated integers")(
    _.split(",").map(_.trim.toLong).toSeq).getOrElse(defaultMs)

  /** The sweep's table: one row per algorithm of `counts` (as returned by
    * `Tables.messageCounts` over `ms`), one column per m.
    */
  def render(net: BayesianNetwork, ms: Seq[Long], k: Int, eps: Double,
             counts: Map[String, Seq[Long]]): String =
    Tables.render(
      s"Communication cost vs training points (${net.name}, k=$k, eps=$eps) — Figure 9 shape",
      Seq("algorithm") ++ ms.map(m => s"m=$m"),
      Tables.algoNames.map(a => a +: counts(a).map(_.toString)))

  def main(args: Array[String]): Unit = {
    val net = Networks.alarm
    val counts = Tables.messageCounts(net, ms, JobSession.k, JobSession.eps, JobSession.seed, JobSession.pScale)
    println(render(net, ms, JobSession.k, JobSession.eps, counts))
  }
}
