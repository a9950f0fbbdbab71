package repro.jobs

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.bn.{Event, ForwardSampler}
import repro.core.EpsilonAllocation
import repro.counter.CounterLayout
import repro.eval.{Metrics, Networks, TestQueries}
import repro.sparkstream.MicroBatchEngine

/** Structured Streaming entrypoint: maintain the Bayesian network with the
  * NONUNIFORM protocol over a live event stream.
  *
  * A MemoryStream feeds forward-sampled events in arrival-order chunks of m/20,
  * and each chunk is processed as one micro-batch before the next is
  * added; `foreachBatch` hands every micro-batch to the MicroBatchEngine,
  * whose site tasks each return one summary row of their reports to the
  * driver-side coordinator. The reporting probabilities the coordinator
  * publishes after a batch govern the next, so the counters leave p = 1 as
  * the stream grows. Prints per-batch communication and the final model
  * accuracy.
  */
object StreamingMLE {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("streaming-mle")
    import spark.implicits._
    try {
      val net = Networks.alarm
      val layout = CounterLayout.standard(net)
      val engine = MicroBatchEngine(net, layout, EpsilonAllocation.NonUniform(JobSession.eps, net),
        JobSession.k, JobSession.seed)

      implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
      val source = MemoryStream[Event]
      val query = source.toDS().writeStream
        .foreachBatch { (batch: org.apache.spark.sql.Dataset[Event], batchId: Long) =>
          val msgs = engine.processBatch(spark, batch)
          Console.err.println(s"[streaming-mle] batch=$batchId messages=$msgs total=${engine.messages}")
        }
        .start()
      // Enqueue the stream in arrival-order chunks and let each one finish
      // as its own micro-batch, so the sites learn the refreshed p between
      // batches.
      try {
        val m = JobSession.m
        ForwardSampler.localEvents(net, m, JobSession.k, JobSession.seed)
          .grouped(math.max(1L, m / 20).toInt)
          .foreach { chunk =>
            source.addData(chunk)
            query.processAllAvailable()
          }
      } finally query.stop()

      val queries = TestQueries.condQueries(net, JobSession.nTests, 0.01, JobSession.seed)
      println(s"events=${engine.eventsProcessed} messages=${engine.messages} " +
        f"relErrVsTruth=${Metrics.relErrVsTruth(engine.model, queries)}%.4f")
    } finally spark.stop()
  }
}
