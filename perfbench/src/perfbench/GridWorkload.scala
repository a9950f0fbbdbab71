package perfbench

import org.apache.spark.sql.SparkSession
import repro.bn.{BayesianNetwork, ForwardSampler}
import repro.core.SuffStats
import repro.counter.{CounterLayout, DistCounterBank, ExactCounterBank}
import repro.eval.{AlgoResult, ClsTest, CondQuery, DatasetResult, Metrics, Networks, TestQueries, Tables}

/** `grid-munin-calibrated`: one Tables 2/3 row, `Tables.runDataset` on
  * MUNIN with the calibrated scale pScale = 0.05. The only path through
  * the Spark exact MLE (`core`) and the model metrics (`eval`); the stream
  * is re-sampled for every (allocation × run), and most increments fall on
  * counters that are already probabilistic, so every increment flips a coin.
  */
final class GridWorkload(seed: Long) extends Workload {
  val m = 3000L
  val runs = 1
  private val pScale = 0.05

  private var spark: SparkSession = _
  private var probe: SparkProbe = _
  private var net: BayesianNetwork = _
  private var layout: CounterLayout = _
  private var epsArrays: Seq[(String, Array[Double])] = _
  private var queries: IndexedSeq[CondQuery] = _
  private var tests: IndexedSeq[ClsTest] = _

  override def open(): Unit = spark = Bench.sparkSession()

  override def setup(): Map[String, Double] = {
    net = Bench.munin()
    layout = CounterLayout.standard(net)
    epsArrays = Tables.allocations(Bench.eps, net).map(a => a.name -> a.epsArray(layout))
    val (_, queriesS) = Bench.seconds {
      queries = TestQueries.condQueries(net, Bench.nTests, minProb = 0.01, seed = seed)
      tests = TestQueries.clsTests(net, Bench.nTests, seed)
    }
    Map("eval.queries_s" -> queriesS)
  }

  override def networkMatches: Boolean = Bench.sameNetwork(net, Networks.munin)

  /** Per-run protocol seed of `Tables.runDataset`. */
  private def runSeed(r: Int): Long = seed + 7919L * (r + 1)

  private def outcome(res: DatasetResult): Outcome = {
    val algos = res.results.map { a =>
      AlgoOutcome(a.algo, a.messages, a.clsErr, a.errVsMle, () =>
        Array(a.messages) ++ Seq(a.clsErr, a.errVsTruth, a.errVsMle).map(java.lang.Double.doubleToLongBits))
    }
    val exact = res("exactmle").messages
    Outcome(3L * runs * m, algos, Bench.messageChecks(layout, m, Some(exact), algos.tail), res)
  }

  override def run(): Outcome =
    outcome(Tables.runDataset(spark, net, m, Bench.k, Bench.eps, seed, Bench.nTests, runs, Some(pScale)))

  /** `Tables.runDataset`, step by step, with the same seeds and order. */
  override def replay(trace: Trace): (Outcome, Map[String, Double]) = {
    if (probe == null) probe = new SparkProbe(spark)
    val (qs, ts) = trace.span("eval.queries") {
      (TestQueries.condQueries(net, Bench.nTests, minProb = 0.01, seed = seed),
        TestQueries.clsTests(net, Bench.nTests, seed))
    }
    val (exactModel, mle) = trace.span("core.mle") {
      probe.phase(SuffStats.exactModel(spark, net, layout, ForwardSampler.events(spark, net, m, Bench.k, seed)))
    }
    val exactCls = trace.span("eval.cls")(Metrics.classificationError(exactModel, ts))
    val exactTruth = trace.span("eval.relerr")(Metrics.relErrVsTruth(exactModel, qs))
    val exactRes = AlgoResult("exactmle", layout.updatesPerEvent.toLong * m, exactCls, exactTruth, 0.0)

    val reference = new ExactCounterBank(layout.numCounters)
    var regimes = Map.empty[String, Double]
    val approx = epsArrays.zipWithIndex.map { case ((name, eps), a) =>
      val perRun = (0 until runs).map { r =>
        val bank = new DistCounterBank(layout.numCounters, Bench.k, eps, runSeed(r), pScale)
        val snap = Bench.tracedPass(trace, layout, bank, name,
          ForwardSampler.localEvents(net, m, Bench.k, seed),
          reference = if (a == 0 && r == 0) Some(reference) else None)
        val model = snap.model(net, layout)
        val cls = trace.span("eval.cls")(Metrics.classificationError(model, ts))
        val (truth, vsMle) = trace.span("eval.relerr") {
          (Metrics.relErrVsTruth(model, qs), Metrics.relErrVsRef(model, exactModel, qs))
        }
        if (r == 0) regimes ++= trace.span("counter.regime", reference = true) {
          Bench.regime(name, bank.coordinator, reference.count)
        }
        (snap.messages, cls, truth, vsMle)
      }
      AlgoResult(name,
        messages = Metrics.median(perRun.map(_._1.toDouble)).round,
        clsErr = Metrics.median(perRun.map(_._2)),
        errVsTruth = Metrics.median(perRun.map(_._3)),
        errVsMle = Metrics.median(perRun.map(_._4)))
    }
    val out = outcome(DatasetResult(net.name, m, Bench.k, Bench.eps, exactRes +: approx))
    val sampled = 3L * runs * m
    val layers = Layers.sequential(trace, out, layout, m, passes = 3 * runs) ++ regimes ++ Map(
      "bn.sample_s" -> trace.seconds("bn.sample"),
      "bn.events" -> sampled.toDouble,
      "bn.resample_factor" -> sampled.toDouble / m,
      "core.mle_s" -> trace.seconds("core.mle"),
      "core.mle_shuffle_bytes" -> mle.shuffleBytes.toDouble,
      "eval.queries_s" -> trace.seconds("eval.queries"),
    )
    (out, layers)
  }

  override def close(): Unit = if (spark != null) spark.stop()
}
