package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bn.{BayesianNetwork, Event, ForwardSampler}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{CounterLayout, ExactCounterBank}
import repro.eval.{ClsTest, CondQuery, Metrics, Networks, TestQueries}
import repro.sparkstream.MicroBatchEngine
import repro.stream.SequentialDriver

/** `microbatch-munin-calibrated`: the Spark micro-batch engine, UNIFORM
  * with pScale = 0.05 on MUNIN. Events are sampled during set-up and fed
  * batch by batch as local Datasets (as a stream source would hand them
  * over), so the sampler stays out of the timed phase; each batch is issued
  * when the previous one has been folded. Spark transport dominates.
  */
final class MicroBatchWorkload(seed: Long) extends Workload {
  val m = 1500L
  val numBatches = 3
  private val pScale = 0.05

  private var spark: SparkSession = _
  private var probe: SparkProbe = _
  private var net: BayesianNetwork = _
  private var layout: CounterLayout = _
  private var queries: IndexedSeq[CondQuery] = _
  private var tests: IndexedSeq[ClsTest] = _
  private var exact: ExactCounterBank = _
  private var exactModel: BNModel = _
  private var batches: Seq[Dataset[Event]] = _

  override def open(): Unit = spark = Bench.sparkSession()

  override def setup(): Map[String, Double] = {
    val session = spark
    import session.implicits._
    net = Bench.munin()
    layout = CounterLayout.standard(net)
    val (_, queriesS) = Bench.seconds {
      queries = TestQueries.condQueries(net, Bench.nTests, minProb = 0.01, seed = seed)
      tests = TestQueries.clsTests(net, Bench.nTests, seed)
    }
    val (events, sampleS) = Bench.seconds(ForwardSampler.localEvents(net, m, Bench.k, seed).toArray)
    val (_, exactS) = Bench.seconds {
      exact = new ExactCounterBank(layout.numCounters)
      SequentialDriver.run(layout, exact, events.iterator)
      exactModel = new BNModel(net, layout, exact.estimate)
    }
    val per = ((m + numBatches - 1) / numBatches).toInt
    batches = events.grouped(per).map(slice => session.createDataset(slice.toSeq)).toSeq
    Map("bn.sample_s" -> sampleS, "eval.queries_s" -> queriesS, "counter.protocol_s.exactmle" -> exactS,
      "bn.events" -> m.toDouble, "bn.resample_factor" -> 1.0)
  }

  override def networkMatches: Boolean = Bench.sameNetwork(net, Networks.munin)

  private def engine() =
    new MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(Bench.eps, net.n), Bench.k,
      Bench.protocolSeed(seed), pScale)

  private def outcome(e: MicroBatchEngine, cls: Double, err: Double): Outcome = {
    val uniform = AlgoOutcome("uniform", e.messages, cls, err, () =>
      Bench.bits(e.messages, Array.tabulate(layout.numCounters)(e.coordinator.estimate)))
    val checks = ("eventsProcessed = m" -> (e.eventsProcessed == m)) +:
      Bench.messageChecks(layout, m, None, Seq(uniform))
    Outcome(m, Seq(uniform), checks, e)
  }

  override def run(): Outcome = {
    val e = engine()
    batches.foreach(b => e.processBatch(spark, b))
    val model = e.model
    outcome(e, Metrics.classificationError(model, tests), Metrics.relErrVsRef(model, exactModel, queries))
  }

  override def replay(trace: Trace): (Outcome, Map[String, Double]) = {
    if (probe == null) probe = new SparkProbe(spark)
    val e = trace.span("sparkstream.engine")(engine())
    val perBatch = batches.map { b =>
      val (msgs, phase) = probe.phase(trace.span("sparkstream.batch")(e.processBatch(spark, b)))
      (msgs, phase, trace.each("sparkstream.batch").last)
    }
    val model = e.model
    val cls = trace.span("eval.cls")(Metrics.classificationError(model, tests))
    val err = trace.span("eval.relerr")(Metrics.relErrVsRef(model, exactModel, queries))
    val out = outcome(e, cls, err)
    val regimes = trace.span("counter.regime", reference = true)(Bench.regime("uniform", e.coordinator, exact.count))

    val batchS = perBatch.map(_._3)
    val jobS = perBatch.map(_._2.jobSeconds).sum
    val phases = perBatch.map(_._2)
    val increments = layout.updatesPerEvent.toLong * m
    val layers = Layers.outcome(out, increments) ++ regimes ++ Map(
      "counter.increments" -> increments.toDouble,
      "sparkstream.batch_s.median" -> Stats.median(batchS),
      "sparkstream.batch_s.max" -> batchS.max,
      "sparkstream.job_s" -> jobS,
      "sparkstream.driver_s" -> (batchS.sum - jobS),
      "sparkstream.result_bytes" -> phases.map(_.resultBytes).sum.toDouble,
      "sparkstream.shuffle_bytes" -> phases.map(_.shuffleBytes).sum.toDouble,
      "sparkstream.broadcast_bytes" -> phases.map(_.broadcastBytes).sum.toDouble,
      "sparkstream.task_skew" -> Stats.median(phases.map(_.taskSkew)),
      "sparkstream.site_tasks" -> Stats.median(phases.map(_.siteTasks.toDouble)),
      "sparkstream.gc_s" -> phases.map(_.gcSeconds).sum,
      "sparkstream.messages_per_batch" -> Stats.median(perBatch.map(_._1.toDouble)),
      "eval.cls_s" -> trace.seconds("eval.cls"),
      "eval.relerr_s" -> trace.seconds("eval.relerr"),
    )
    (out, layers)
  }

  override def close(): Unit = if (spark != null) spark.stop()
}
