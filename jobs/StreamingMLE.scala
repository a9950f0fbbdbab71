package repro.jobs

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.Trigger
import repro.bn.{Event, ForwardSampler}
import repro.core.EpsilonAllocation
import repro.counter.CounterLayout
import repro.eval.{Metrics, Networks, TestQueries}
import repro.sparkstream.MicroBatchEngine

/** Structured Streaming entrypoint: maintain the Bayesian network with the
  * NONUNIFORM protocol over a live event stream.
  *
  * A MemoryStream feeds forward-sampled events in arrival-order chunks;
  * `foreachBatch` hands every micro-batch to the MicroBatchEngine, whose
  * site tasks each return one summary row of their reports to the
  * driver-side coordinator. Prints per-batch communication and the final
  * model accuracy.
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
      // Enqueue the stream in arrival-order chunks (one block per addData);
      // AvailableNow drains everything that is queued at start.
      val m = JobSession.m
      val chunk = math.max(1L, m / 20)
      var lo = 0L
      while (lo < m) {
        val hi = math.min(m, lo + chunk)
        source.addData((lo until hi).map(id =>
          ForwardSampler.sampleEvent(net, JobSession.k, JobSession.seed, id)))
        lo = hi
      }

      val query = source.toDS().writeStream
        .trigger(Trigger.AvailableNow())
        .foreachBatch { (batch: org.apache.spark.sql.Dataset[Event], batchId: Long) =>
          val msgs = engine.processBatch(spark, batch)
          Console.err.println(s"[streaming-mle] batch=$batchId messages=$msgs total=${engine.messages}")
        }
        .start()
      query.awaitTermination()

      val queries = TestQueries.condQueries(net, JobSession.nTests, 0.01, JobSession.seed)
      println(s"events=${engine.eventsProcessed} messages=${engine.messages} " +
        f"relErrVsTruth=${Metrics.relErrVsTruth(engine.model, queries)}%.4f")
    } finally spark.stop()
  }
}
