package repro.eval

import java.util.concurrent.FutureTask

import scala.util.Try

import org.apache.spark.sql.SparkSession
import repro.bn.{BayesianNetwork, ForwardSampler}
import repro.core.EpsilonAllocation
import repro.counter.{Coordinator, CounterLayout, DistCounterBank, ExactCounterBank}
import repro.stream.SequentialDriver

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
  * EXACTMLE is the protocol that forwards every counter update (Lemma 5):
  * one `ExactCounterBank` whose final snapshot is the exact value of every
  * counter, and whose messages, `updatesPerEvent · m`, are counted. The
  * approximate algorithms run the monitoring protocol per-event; their
  * metrics are medians over `runs` independent protocol seeds, as in the
  * paper (median of five runs). The exact bank and every
  * (allocation × run) bank are fed by one `SequentialDriver.runAll` pass
  * over one stream, concurrently, so the banks of a call are all live at
  * once (about 72 MB each on MUNIN at k = 30, 0.9 MB for the exact one),
  * and the stream is sampled once. The conditional test events and the
  * classification tests each run on a thread of their own beside that
  * pass. Then each allocation's snapshots are evaluated on a thread of
  * their own while the caller evaluates EXACTMLE. The first failure, in
  * the order test events, classification tests, pass, evaluation, is
  * rethrown as it was raised. No Spark job runs: `runDataset` keeps its
  * `SparkSession` parameter only so that its callers keep their signature,
  * and `SuffStats` remains the Spark reference for the exact counts.
  */
object Tables {

  val algoNames = Seq("exactmle", "baseline", "uniform", "nonuniform")

  def allocations(eps: Double, net: BayesianNetwork): Seq[EpsilonAllocation] = Seq(
    EpsilonAllocation.Baseline(eps, net.n),
    EpsilonAllocation.Uniform(eps, net.n),
    EpsilonAllocation.NonUniform(eps, net),
  )

  /** @param spark  unused (see the class doc)
    * @param pScale reporting-probability scale of the distributed counters;
    *               None = the variance-honoring √(2k) (Lemma 4). Smaller
    *               values trade per-counter accuracy for communication —
    *               used to calibrate against the paper's implementation
    *               constants (see EXPERIMENTS.md).
    */
  def runDataset(spark: SparkSession, net: BayesianNetwork, m: Long, k: Int,
                 eps: Double, seed: Long, nTests: Int, runs: Int,
                 pScale: Option[Double] = None): DatasetResult = {
    require(runs >= 1, s"runs = $runs, expected at least 1")
    require(nTests >= 1, s"nTests = $nTests, expected at least 1")
    val scale = pScale.getOrElse(Coordinator.theoryScale(k))
    val layout = CounterLayout.standard(net)
    val allocs = allocations(eps, net)
    val banks = new ExactCounterBank(layout.numCounters) +: (for (alloc <- allocs; r <- 0 until runs) yield
      new DistCounterBank(layout.numCounters, k, alloc.epsArray(layout), seed + 7919L * (r + 1), scale))

    val queriesTask = beside("tables-queries")(TestQueries.condQueries(net, nTests, minProb = 0.01, seed = seed))
    val testsTask = beside("tables-tests")(TestQueries.clsTests(net, nTests, seed))
    val pass = Try(SequentialDriver.runAll(layout, banks, ForwardSampler.localEvents(net, m, k, seed)))
    SequentialDriver.await(Seq(queriesTask, testsTask))
    val finals = pass.get.map(_.last)
    val queries = queriesTask.get()
    val tests = testsTask.get()
    val exactModel = finals.head.model(net, layout)

    val approxTasks = allocs.zip(finals.tail.grouped(runs).toSeq).map { case (alloc, snaps) =>
      beside(s"tables-eval-${alloc.name}") {
        val perRun = snaps.map { snap =>
          val model = snap.model(net, layout)
          (snap.messages, Metrics.classificationError(model, tests),
            Metrics.relErrVsTruth(model, queries), Metrics.relErrVsRef(model, exactModel, queries))
        }
        AlgoResult(
          alloc.name,
          messages = Metrics.median(perRun.map(_._1.toDouble)).round,
          clsErr = Metrics.median(perRun.map(_._2)),
          errVsTruth = Metrics.median(perRun.map(_._3)),
          errVsMle = Metrics.median(perRun.map(_._4)),
        )
      }
    }
    // EXACTMLE is evaluated on the caller's thread, as a task too, so that
    // `await` raises the evaluation failures in algorithm order.
    val exactTask = new FutureTask[AlgoResult](() => AlgoResult(
      "exactmle",
      messages = finals.head.messages,
      clsErr = Metrics.classificationError(exactModel, tests),
      errVsTruth = Metrics.relErrVsTruth(exactModel, queries),
      errVsMle = 0.0,
    ))
    exactTask.run()
    val evaluated = exactTask +: approxTasks
    SequentialDriver.await(evaluated)

    DatasetResult(net.name, m, k, eps, evaluated.map(_.get()))
  }

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
    * stream, at protocol seed `seed`, in the order of `ms`. EXACTMLE is its
    * analytic `updatesPerEvent · m`. One pass feeds every allocation's bank;
    * Table 3's calibrated companion, Figure 9 and Figure 11(b) read it.
    * `pScale` as in `runDataset`.
    */
  def messageCounts(net: BayesianNetwork, ms: Seq[Long], k: Int, eps: Double, seed: Long,
                    pScale: Option[Double]): Map[String, Seq[Long]] = {
    require(ms.nonEmpty, "ms is empty, expected at least one checkpoint")
    ms.foreach(m => require(m > 0, s"checkpoint m = $m in ms, expected m > 0"))
    val scale = pScale.getOrElse(Coordinator.theoryScale(k))
    val layout = CounterLayout.standard(net)
    val allocs = allocations(eps, net)
    val banks = allocs.map(a => new DistCounterBank(layout.numCounters, k, a.epsArray(layout), seed, scale))
    val snaps = SequentialDriver.runAll(layout, banks, ForwardSampler.localEvents(net, ms.max, k, seed), ms)
    val approx = allocs.zip(snaps).map { case (a, s) => a.name -> ms.map(m => s.find(_.m == m).get.messages) }
    (("exactmle" -> ms.map(layout.updatesPerEvent.toLong * _)) +: approx).toMap
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
