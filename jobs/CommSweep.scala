package repro.jobs

import repro.bn.{BayesianNetwork, ForwardSampler}
import repro.counter.{CounterLayout, DistCounterBank}
import repro.eval.{Networks, Tables}
import repro.stream.SequentialDriver

/** Communication cost vs number of training points (Figure 9's shape):
  * one pass over the largest m feeds every algorithm's bank, with message
  * counts captured at checkpoints. EXACTMLE grows linearly (2·n·m); the
  * approximate algorithms grow logarithmically once counters pass their
  * reporting thresholds.
  */
object CommSweep {

  /** Stream lengths of the sweep unless `REPRO_SWEEP_MS` lists others. */
  val defaultMs: Seq[Long] = Seq(10000L, 50000L, 250000L, 1000000L, 4000000L)

  def ms: Seq[Long] = sys.env.get("REPRO_SWEEP_MS")
    .map(_.split(",").map(_.trim.toLong).toSeq).getOrElse(defaultMs)

  def sweep(net: BayesianNetwork, ms: Seq[Long], k: Int, eps: Double,
            seed: Long, pScale: Option[Double] = None): Seq[Seq[String]] = {
    val layout = CounterLayout.standard(net)
    val scale = pScale.getOrElse(repro.counter.Coordinator.theoryScale(k))
    val exactRow = Seq("exactmle") ++ ms.map(m => (layout.updatesPerEvent * m).toString)
    val allocs = Tables.allocations(eps, net)
    val banks = allocs.map(a => new DistCounterBank(layout.numCounters, k, a.epsArray(layout), seed, scale))
    val snaps = SequentialDriver.runAll(layout, banks,
      ForwardSampler.localEvents(net, ms.max, k, seed), checkpoints = ms)
    val approxRows = allocs.zip(snaps).map { case (alloc, s) =>
      Seq(alloc.name) ++ ms.map(m => s.find(_.m == m).get.messages.toString)
    }
    exactRow +: approxRows
  }

  def render(net: BayesianNetwork, ms: Seq[Long], k: Int, eps: Double, seed: Long,
             pScale: Option[Double]): String =
    Tables.render(
      s"Communication cost vs training points (${net.name}, k=$k, eps=$eps) — Figure 9 shape",
      Seq("algorithm") ++ ms.map(m => s"m=$m"),
      sweep(net, ms, k, eps, seed, pScale))

  def main(args: Array[String]): Unit = {
    println(render(Networks.alarm, ms, JobSession.k, JobSession.eps, JobSession.seed, JobSession.pScale))
  }
}
