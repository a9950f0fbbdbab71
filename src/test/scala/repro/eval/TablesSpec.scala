package repro.eval

import repro.SparkSpec
import repro.bn.{BayesianNetwork, ForwardSampler, TestNets}
import repro.core.BNModel
import repro.counter.{Coordinator, CounterLayout, DistCounterBank, ExactCounterBank}
import repro.stream.SequentialDriver

class TablesSpec extends SparkSpec {

  // One shared small run: chain network, modest stream.
  private lazy val result: DatasetResult =
    Tables.runDataset(spark, TestNets.random20, m = 8000, k = 5, eps = 0.5,
      seed = 21L, nTests = 200, runs = 2)

  test("runDataset returns all four algorithms in order") {
    assert(result.results.map(_.algo) == Tables.algoNames)
  }

  test("exactmle communication is exactly 2·n·m") {
    assert(result("exactmle").messages == 2L * TestNets.random20.n * 8000)
  }

  test("exactmle error vs the MLE is zero by definition") {
    assert(result("exactmle").errVsMle == 0.0)
  }

  test("exactmle metrics equal those of the sequential exact counter bank bit for bit") {
    val net = TestNets.random20
    val layout = CounterLayout.standard(net)
    val bank = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, 8000, 5, seed = 21L))
    val model = new BNModel(net, layout, bank.estimate)
    val clsErr = Metrics.classificationError(model, TestQueries.clsTests(net, 200, 21L))
    val errVsTruth = Metrics.relErrVsTruth(model, TestQueries.condQueries(net, 200, minProb = 0.01, seed = 21L))
    assert(result("exactmle").clsErr == clsErr)
    assert(result("exactmle").errVsTruth == errVsTruth)
  }

  test("runDataset on ALARM stays what was recorded: messages and metric bits of every algorithm") {
    val row = Tables.runDataset(spark, Networks.alarm, m = 5000, k = 30, eps = 0.1, seed = 13L,
      nTests = 500, runs = 2, Some(0.05))
    def bits(d: Double) = java.lang.Double.doubleToLongBits(d)
    val got = row.results.map(a => (a.algo, a.messages, bits(a.clsErr), bits(a.errVsTruth), bits(a.errVsMle)))
    assert(got == Seq(
      ("exactmle", 370000L, 4594139994279152452L, 4580915604135401513L, 0L),
      ("baseline", 103947L, 4594139994279152452L, 4588000903608816874L, 4587064143757045436L),
      ("uniform", 97888L, 4594212051873190380L, 4588990951888472522L, 4588047381564576933L),
      ("nonuniform", 99921L, 4594176023076171416L, 4588557750515237922L, 4587710350569385748L)))
  }

  test("a failure of the work beside the pass reaches the caller as raised") {
    // Every conditional probability is 1/128 < 0.01, so test-query generation gives up.
    val flat = new BayesianNetwork("flat", Array(128), Array(Array.empty[Int]),
      Array(Array(Array.fill(128)(1.0 / 128))))
    val e = intercept[IllegalArgumentException] {
      Tables.runDataset(spark, flat, m = 100, k = 2, eps = 0.5, seed = 3L, nTests = 1, runs = 1)
    }
    assert(e.getMessage.contains("query generation not converging"), e.getMessage)
  }

  test("approximate algorithms never cost more than exactmle") {
    for (a <- Seq("baseline", "uniform", "nonuniform"))
      assert(result(a).messages <= result("exactmle").messages, a)
  }

  test("all classification errors are valid rates") {
    result.results.foreach(r => assert(r.clsErr >= 0.0 && r.clsErr <= 1.0, r.algo))
  }

  test("approximate accuracy vs ground truth is in the same regime as exact") {
    val exactErr = result("exactmle").errVsTruth
    for (a <- Seq("baseline", "uniform", "nonuniform")) {
      assert(result(a).errVsTruth < math.max(5 * exactErr, 0.5),
        s"$a err ${result(a).errVsTruth} vs exact $exactErr")
    }
  }

  test("approximate error vs MLE is bounded by the budget regime") {
    for (a <- Seq("baseline", "uniform", "nonuniform"))
      assert(result(a).errVsMle < 0.5, s"$a errVsMle=${result(a).errVsMle}")
  }

  test("apply throws on unknown algorithm names") {
    intercept[NoSuchElementException](result("nope"))
  }

  // Communication only: a stream of 3000 events read at three lengths, out of order.
  private val msNet = TestNets.random20
  private val msLayout = CounterLayout.standard(msNet)
  private val ms = Seq(1000L, 250L, 3000L)
  private lazy val counts = Tables.messageCounts(msNet, ms, k = 5, eps = 0.5, seed = 31L, pScale = Some(2.0))

  test("messageCounts gives exactmle updatesPerEvent·m at every m") {
    assert(counts.keySet == Tables.algoNames.toSet)
    assert(counts("exactmle") == ms.map(msLayout.updatesPerEvent.toLong * _))
  }

  test("messageCounts counts the exactmle messages that runDataset does") {
    assert(Tables.messageCounts(TestNets.random20, Seq(8000L), 5, 0.5, 21L, None)("exactmle") ==
      Seq(result("exactmle").messages))
  }

  test("messageCounts equals a separate pass per allocation and m") {
    for (alloc <- Tables.allocations(0.5, msNet); (m, got) <- ms.zip(counts(alloc.name))) {
      val bank = new DistCounterBank(msLayout.numCounters, 5, alloc.epsArray(msLayout), 31L, 2.0)
      val want = SequentialDriver.run(msLayout, bank, ForwardSampler.localEvents(msNet, m, 5, 31L)).last.messages
      assert(got == want, s"${alloc.name} at m=$m")
    }
  }

  test("messageCounts resolves pScale None to the variance-honoring scale") {
    def at(pScale: Option[Double]) = Tables.messageCounts(TestNets.chain, Seq(400L), k = 3, eps = 0.5, seed = 32L, pScale)
    assert(at(None) == at(Some(Coordinator.theoryScale(3))))
    assert(at(None) != at(Some(1.0)))
  }

  test("messageCounts on ALARM stays what was recorded before the counter-grouped pass") {
    assert(Tables.messageCounts(Networks.alarm, Seq(5000L, 20000L), 30, 0.1, 11L, Some(0.05)) == Map(
      "exactmle" -> Seq(370000L, 1480000L),
      "baseline" -> Seq(103596L, 172346L),
      "uniform" -> Seq(97628L, 160838L),
      "nonuniform" -> Seq(99398L, 161363L)))
  }

  test("messageCounts rejects an empty ms") {
    val e = intercept[IllegalArgumentException](Tables.messageCounts(msNet, Seq.empty, 5, 0.5, 31L, None))
    assert(e.getMessage.contains("ms is empty"), e.getMessage)
  }

  test("messageCounts rejects a non-positive checkpoint, naming it") {
    val e = intercept[IllegalArgumentException](Tables.messageCounts(msNet, Seq(0L, 1000L), 5, 0.5, 31L, None))
    assert(e.getMessage.contains("checkpoint m = 0"), e.getMessage)
  }

  test("runDataset rejects fewer than one event, naming the value") {
    for (m <- Seq(0L, -1L)) {
      val e = intercept[IllegalArgumentException] {
        Tables.runDataset(spark, msNet, m = m, k = 2, eps = 0.5, seed = 3L, nTests = 1, runs = 1)
      }
      assert(e.getMessage.contains(s"m = $m"), e.getMessage)
    }
  }

  test("runDataset rejects fewer than one run, naming the value") {
    val e = intercept[IllegalArgumentException] {
      Tables.runDataset(spark, msNet, m = 100, k = 2, eps = 0.5, seed = 3L, nTests = 1, runs = 0)
    }
    assert(e.getMessage.contains("runs = 0"), e.getMessage)
  }

  test("runDataset rejects fewer than one test event, naming the value") {
    for (n <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException] {
        Tables.runDataset(spark, msNet, m = 100, k = 2, eps = 0.5, seed = 3L, nTests = n, runs = 1)
      }
      assert(e.getMessage.contains(s"nTests = $n"), e.getMessage)
    }
  }

  test("render produces an aligned table with all cells") {
    val s = Tables.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = s.split("\n")
    assert(lines.length == 4)
    assert(lines(1).startsWith("a"))
    assert(lines.drop(1).map(_.length).distinct.size <= 2) // aligned widths
  }
}
