package repro.eval

import java.util.concurrent.FutureTask

import scala.util.Try

import org.apache.spark.sql.SparkSession
import repro.bn.{BayesianNetwork, ForwardSampler}
import repro.core.EpsilonAllocation
import repro.counter.{Coordinator, CounterLayout, DistCounterBank, ExactCounterBank}
import repro.stream.{SequentialDriver, Snapshot}

/** One algorithm's outcome on one dataset (one table cell group). */
final case class AlgoResult(
    algo: String,
    messages: Long,
    clsErr: Double,
    errVsTruth: Double,
    errVsMle: Double,
)

/** All four algorithms on one dataset — one row of Tables 2 and 3. */
final case class DatasetResult(dataset: String, m: Long, k: Int, eps: Double,
                               results: Seq[AlgoResult]) {
  def apply(algo: String): AlgoResult = results.find(_.algo == algo)
    .getOrElse(throw new NoSuchElementException(s"no result for $algo"))
}

/** Harness reproducing the paper's experimental grid (Section 6): for a
  * network, stream m forward-sampled observations to k uniformly chosen
  * sites, maintain the model with each algorithm, then evaluate 1000
  * conditional-probability test events and 1000 classification tests.
  *
  * Every algorithm is a group of counter banks fed by one
  * `SequentialDriver.runAll` pass over one stream. EXACTMLE is the protocol
  * that forwards every counter update (Lemma 5): one `ExactCounterBank`,
  * whose snapshots hold the exact value of every counter and whose messages
  * are counted like those of any other bank. Each approximate algorithm is
  * one `DistCounterBank` per protocol seed; its metrics are medians over
  * `runs` seeds, as in the paper (median of five runs), and the median of
  * EXACTMLE's one run is that run. The banks of a call are all live at
  * once (on MUNIN at k = 30, about 17 MB each while few counters leave
  * the exact regime, 0.9 MB for the exact one), and the stream is sampled
  * once, a chunk at a time straight into the pass's variable-major block
  * (`ForwardSampler.source`), with no `Event` in between. The conditional
  * test events and the classification tests (sampled a block at a time
  * too) each run on a thread of their own beside that pass; then each
  * algorithm is evaluated on a thread of its own. The first failure, in
  * the order test events, classification tests, pass, evaluation, is
  * rethrown as it was raised. No Spark job
  * runs; `SuffStats` remains the Spark reference for the exact counts. The
  * deprecated overload that takes a `SparkSession` exists only for the
  * frozen benchmark (`perfbench`), which compiles against it.
  */
object Tables {

  val algoNames = Seq("exactmle", "baseline", "uniform", "nonuniform")

  def allocations(eps: Double, net: BayesianNetwork): Seq[EpsilonAllocation] = Seq(
    EpsilonAllocation.Baseline(eps, net.n),
    EpsilonAllocation.Uniform(eps, net.n),
    EpsilonAllocation.NonUniform(eps, net),
  )

  /** @param pScale reporting-probability scale of the distributed counters;
    *               None = the variance-honoring √(2k) (Lemma 4). Smaller
    *               values trade per-counter accuracy for communication —
    *               used to calibrate against the paper's implementation
    *               constants (see EXPERIMENTS.md).
    */
  def runDataset(net: BayesianNetwork, m: Long, k: Int, eps: Double, seed: Long, nTests: Int,
                 runs: Int, pScale: Option[Double] = None): DatasetResult = {
    require(m >= 1, s"m = $m, expected at least 1")
    require(runs >= 1, s"runs = $runs, expected at least 1")
    require(nTests >= 1, s"nTests = $nTests, expected at least 1")
    val allocs = allocations(eps, net) // rejects a bad eps before any thread starts
    val layout = CounterLayout.standard(net)
    val queriesTask = beside("tables-queries")(TestQueries.condQueries(net, nTests, minProb = 0.01, seed = seed))
    val testsTask = beside("tables-tests")(TestQueries.clsTests(net, nTests, seed))
    val snaps = Try(pass(layout, Seq(m), k, allocs, seed, (1 to runs).map(seed + 7919L * _), pScale))
    SequentialDriver.await(Seq(queriesTask, testsTask))
    val finals = snaps.get.map(_.map(_.last))
    val queries = queriesTask.get()
    val tests = testsTask.get()
    val exactModel = finals.head.head.model(net, layout)

    val evaluated = algoNames.zip(finals).map { case (algo, runSnaps) =>
      beside(s"tables-eval-$algo") {
        val perRun = runSnaps.map { snap =>
          val model = snap.model(net, layout)
          (snap.messages, Metrics.classificationError(model, tests),
            Metrics.relErrVsTruth(model, queries), Metrics.relErrVsRef(model, exactModel, queries))
        }
        AlgoResult(
          algo,
          messages = Metrics.median(perRun.map(_._1.toDouble)).round,
          clsErr = Metrics.median(perRun.map(_._2)),
          errVsTruth = Metrics.median(perRun.map(_._3)),
          errVsMle = Metrics.median(perRun.map(_._4)),
        )
      }
    }
    SequentialDriver.await(evaluated)
    DatasetResult(net.name, m, k, eps, evaluated.map(_.get()))
  }

  @deprecated("the session is unused; call runDataset(net, m, k, eps, seed, nTests, runs, pScale)", "")
  def runDataset(spark: SparkSession, net: BayesianNetwork, m: Long, k: Int, eps: Double, seed: Long,
                 nTests: Int, runs: Int, pScale: Option[Double]): DatasetResult =
    runDataset(net, m, k, eps, seed, nTests, runs, pScale)

  /** Starts `work` on a daemon thread of its own. */
  private def beside[A](name: String)(work: => A): FutureTask[A] = {
    val task = new FutureTask[A](() => work)
    val thread = new Thread(task, name)
    thread.setDaemon(true)
    thread.start()
    task
  }

  /** Communication only, no model evaluation: each algorithm's site →
    * coordinator messages after each of the first `ms` events of one
    * stream, at protocol seed `seed`, in the order of `ms`. One pass feeds
    * every algorithm's bank; Table 3's calibrated companion, Figure 9 and
    * Figure 11(b) read it. `pScale` as in `runDataset`.
    */
  def messageCounts(net: BayesianNetwork, ms: Seq[Long], k: Int, eps: Double, seed: Long,
                    pScale: Option[Double]): Map[String, Seq[Long]] = {
    require(ms.nonEmpty, "ms is empty, expected at least one checkpoint")
    ms.foreach(m => require(m > 0, s"checkpoint m = $m in ms, expected m > 0"))
    val snaps = pass(CounterLayout.standard(net), ms, k, allocations(eps, net), seed, Seq(seed), pScale)
    algoNames.zip(snaps.map(_.head)).map { case (algo, s) =>
      algo -> ms.map(m => s.find(_.m == m).get.messages)
    }.toMap
  }

  /** One `SequentialDriver.runAll` over the first `ms.max` events of the
    * stream at `seed`, snapshotting at `ms`. Its banks are EXACTMLE's, then
    * one per (allocation, protocol seed); returns each algorithm's banks'
    * snapshots, in `algoNames` order.
    */
  private def pass(layout: CounterLayout, ms: Seq[Long], k: Int, allocs: Seq[EpsilonAllocation],
                   seed: Long, protocolSeeds: Seq[Long], pScale: Option[Double]): Seq[Seq[Seq[Snapshot]]] = {
    val scale = pScale.getOrElse(Coordinator.theoryScale(k))
    val banks = new ExactCounterBank(layout.numCounters) +:
      (for (a <- allocs; s <- protocolSeeds)
        yield new DistCounterBank(layout.numCounters, k, a.epsArray(layout), s, scale))
    val snaps = SequentialDriver.runAll(layout, banks, ForwardSampler.source(layout.net, ms.max, k, seed), ms)
    Seq(snaps.head) +: snaps.tail.grouped(protocolSeeds.size).toSeq
  }

  /** Fixed-width table printer: header row + one line per dataset. */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (cell, w) => cell.padTo(w, ' ') }.mkString("  ")
    (s"== $title ==" +: line(header) +: rows.map(line)).mkString("\n")
  }
}
