package repro.jobs

import repro.eval.{DatasetResult, Networks, Tables}

/** Entrypoint for Tables 2 and 3: runs the grid (all datasets × all four
  * algorithms at m = 50K, k = 30, ε = 0.1) once on the sequential
  * simulator, with no Spark, and prints Table 2, Table 3 and the
  * supplementary errors from it, each next to the paper's reference numbers.
  */
object Table2And3 {

  /** Paper Table 2: classification error rate at 50K training instances. */
  val paperClsErr: Map[String, Seq[Double]] = Map(
    "alarm" -> Seq(0.056, 0.055, 0.053, 0.066),
    "hepar2" -> Seq(0.191, 0.187, 0.198, 0.212),
    "link" -> Seq(0.109, 0.110, 0.111, 0.110),
    "munin" -> Seq(0.091, 0.091, 0.093, 0.091),
  )

  /** Paper Table 3: communication cost (messages) to learn the classifier. */
  val paperComm: Map[String, Seq[Long]] = Map(
    "alarm" -> Seq(3700000L, 406721L, 323710L, 322639L),
    "hepar2" -> Seq(7000000L, 1079385L, 758631L, 754429L),
    "link" -> Seq(72400000L, 29781937L, 8223133L, 8062889L),
    "munin" -> Seq(104100000L, 34388688L, 11317844L, 11261617L),
  )

  def runAll(): Seq[DatasetResult] =
    Networks.all.map { net =>
      val t0 = System.nanoTime()
      val r = Tables.runDataset(net, JobSession.m, JobSession.k, JobSession.eps,
        JobSession.seed, JobSession.nTests, JobSession.runs, JobSession.pScale)
      Console.err.println(f"[tables] ${net.name} done in ${(System.nanoTime() - t0) / 1e9}%.1f s")
      r
    }

  private val header =
    Seq("dataset", "source") ++ Tables.algoNames

  def renderTable2(results: Seq[DatasetResult]): String = {
    val rows = results.flatMap { r =>
      Seq(
        Seq(r.dataset, "paper") ++ paperClsErr(r.dataset).map(v => f"$v%.3f"),
        Seq(r.dataset, "ours") ++ Tables.algoNames.map(a => f"${r(a).clsErr}%.3f"),
      )
    }
    Tables.render("Table 2: Bayesian classification error rate (50K training instances)",
      header, rows)
  }

  def renderTable3(results: Seq[DatasetResult]): String = {
    val rows = results.flatMap { r =>
      Seq(
        Seq(r.dataset, "paper") ++ paperComm(r.dataset).map(_.toString),
        Seq(r.dataset, "ours") ++ Tables.algoNames.map(a => r(a).messages.toString),
      )
    }
    Tables.render("Table 3: communication cost (messages) to learn a Bayesian classifier",
      header, rows)
  }

  /** Supplementary accuracy table (Figures 5 and 8 flavor): mean relative
    * error of the 1000 conditional test events vs ground truth and vs the
    * exact MLE.
    */
  def renderErrors(results: Seq[DatasetResult]): String = {
    val rows = results.flatMap { r =>
      Seq(
        Seq(r.dataset, "relerr-vs-truth") ++ Tables.algoNames.map(a => f"${r(a).errVsTruth}%.4f"),
        Seq(r.dataset, "relerr-vs-mle") ++ Tables.algoNames.map(a => f"${r(a).errVsMle}%.4f"),
      )
    }
    Tables.render("Supplementary: mean relative error of test-event probabilities",
      Seq("dataset", "metric") ++ Tables.algoNames, rows)
  }

  def main(args: Array[String]): Unit = {
    val rs = runAll()
    println(renderTable2(rs))
    println(renderTable3(rs))
    println(renderErrors(rs))
  }
}
