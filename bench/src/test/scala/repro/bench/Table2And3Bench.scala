package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{DatasetResult, Networks, Tables}
import repro.jobs.{JobSession, Table2And3}

/** Paper Tables 2 and 3: Bayesian classification error rate and
  * communication cost (messages) to learn the classifier at 50K training
  * instances, four datasets × four algorithms.
  *
  * The experiment scale comes from `JobSession`, whose defaults reproduce
  * the paper's setting (m = 50K, k = 30, ε = 0.1, 1000 tests; medians over
  * REPRO_RUNS runs). Both tables read one grid, computed once by the first
  * test that needs it.
  *
  * EXACTMLE must match the paper's Table 3 *exactly* (it is 2·n·m by
  * construction). For the approximate algorithms we assert the paper's
  * orderings; the magnitudes under the variance-honoring counter are
  * discussed in EXPERIMENTS.md.
  */
class Table2And3Bench extends AnyFunSuite {

  private lazy val grid: Seq[DatasetResult] = Table2And3.runAll()

  test("Table 2: classification error rate (paper vs ours)") {
    println(Table2And3.renderTable2(grid))
    for (r <- grid) {
      val exactErr = r("exactmle").clsErr
      // Sanity: rates are valid and the approximate algorithms track the
      // exact MLE closely, as in the paper (columns differ by ≲ 0.02 there).
      r.results.foreach(a => assert(a.clsErr >= 0.0 && a.clsErr <= 1.0, s"${r.dataset}/${a.algo}"))
      for (a <- Seq("baseline", "uniform", "nonuniform")) {
        assert(math.abs(r(a).clsErr - exactErr) < 0.05,
          s"${r.dataset}/$a clsErr ${r(a).clsErr} vs exact $exactErr")
      }
    }
  }

  test("Table 3: communication cost (paper vs ours)") {
    println(Table2And3.renderTable3(grid))
    println(Table2And3.renderErrors(grid))
    for (r <- grid) {
      if (JobSession.m == 50000L) {
        assert(r("exactmle").messages == Table2And3.paperComm(r.dataset).head,
          s"${r.dataset} exactmle should equal the paper's 2·n·m")
      }
      val exact = r("exactmle").messages
      for (a <- Seq("baseline", "uniform", "nonuniform"))
        assert(r(a).messages <= exact, s"${r.dataset}/$a")
      // UNIFORM and NONUNIFORM are within noise of each other on these
      // homogeneous-cardinality networks (in the paper too: 323710 vs
      // 322639 on ALARM); the decisive heterogeneous case is NewAlarmBench.
      assert(r("nonuniform").messages <= (r("uniform").messages * 1.10).toLong,
        s"${r.dataset}: nonuniform ${r("nonuniform").messages} vs uniform ${r("uniform").messages}")
    }
  }

  test("Table 3 companion: calibrated counter profile (pScale=0.05)") {
    // Same grid, counters in the probabilistic regime the paper's
    // implementation operates in (communication only; see EXPERIMENTS.md).
    val counts = Networks.all.map { net =>
      net.name -> Tables.messageCounts(net, Seq(JobSession.m), JobSession.k, JobSession.eps,
        JobSession.seed, pScale = Some(0.05)).map { case (a, c) => a -> c.head }
    }.toMap
    println(Table2And3.paperVsOurs("Table 3 (calibrated profile): communication cost (messages)",
      Table2And3.paperComm(_).map(_.toString),
      Networks.all.map(net => net.name -> ((a: String) => counts(net.name)(a).toString))))
    // The ALARM-family magnitudes should land in the paper's regime:
    // approximate algorithms an order of magnitude below EXACTMLE. Only the
    // paper's stream length reaches it: on a short stream most counters
    // are still exact, and every increment is a message.
    val alarmOurs = counts("alarm")
    if (JobSession.m == 50000L) {
      assert(alarmOurs("uniform") < alarmOurs("exactmle") / 5,
        s"uniform ${alarmOurs("uniform")} vs exact ${alarmOurs("exactmle")}")
    }

    // Accuracy price of the calibrated profile (ALARM, one run): the
    // counters trade the Lemma 4 variance bound for communication, so the
    // error vs the exact MLE grows — report it next to the savings.
    val acc = Tables.runDataset(Networks.alarm,
      JobSession.m, JobSession.k, JobSession.eps, JobSession.seed,
      nTests = 500, runs = 1, pScale = Some(0.05))
    println(Tables.render(
      "Calibrated-profile accuracy on ALARM (mean relative error of test events)",
      Seq("algorithm", "vs-truth", "vs-mle", "cls-err"),
      Tables.algoNames.map(a =>
        Seq(a, f"${acc(a).errVsTruth}%.4f", f"${acc(a).errVsMle}%.4f", f"${acc(a).clsErr}%.3f"))))
  }
}
