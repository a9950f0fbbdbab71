package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.eval.{Networks, Tables}
import repro.jobs.{JobSession, Table2And3}

/** Paper Table 3: communication cost (messages) to learn the classifier.
  *
  * EXACTMLE must match the paper *exactly* (it is 2·n·m by construction).
  * For the approximate algorithms we assert the paper's orderings; the
  * magnitudes under the variance-honoring counter are discussed in
  * EXPERIMENTS.md.
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: communication cost (paper vs ours)") {
    val grid = BenchConfig.grid
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
    val rows = Networks.all.flatMap { net =>
      Seq(
        Seq(net.name, "paper") ++ Table2And3.paperComm(net.name).map(_.toString),
        Seq(net.name, "ours") ++ Tables.algoNames.map(a => counts(net.name)(a).toString),
      )
    }
    println(Tables.render(
      "Table 3 (calibrated profile): communication cost (messages)",
      Seq("dataset", "source") ++ Tables.algoNames, rows))
    // The ALARM-family magnitudes should land in the paper's regime:
    // approximate algorithms an order of magnitude below EXACTMLE.
    val alarmOurs = counts("alarm")
    assert(alarmOurs("uniform") < alarmOurs("exactmle") / 5,
      s"uniform ${alarmOurs("uniform")} vs exact ${alarmOurs("exactmle")}")

    // Accuracy price of the calibrated profile (ALARM, one run): the
    // counters trade the Lemma 4 variance bound for communication, so the
    // error vs the exact MLE grows — report it next to the savings.
    val acc = Tables.runDataset(SparkSpec.shared, Networks.alarm,
      JobSession.m, JobSession.k, JobSession.eps, JobSession.seed,
      nTests = 500, runs = 1, pScale = Some(0.05))
    println(Tables.render(
      "Calibrated-profile accuracy on ALARM (mean relative error of test events)",
      Seq("algorithm", "vs-truth", "vs-mle", "cls-err"),
      Tables.algoNames.map(a =>
        Seq(a, f"${acc(a).errVsTruth}%.4f", f"${acc(a).errVsMle}%.4f", f"${acc(a).clsErr}%.3f"))))
  }
}
