package perfbench

import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

import scala.collection.mutable.ArrayBuffer

/** Spark transport counters read from outside the program, through a
  * listener: job start/end times, per-task result size, shuffle bytes,
  * run time and GC time, and the bytes of broadcast pieces stored.
  *
  * `phase` drains the listener bus after its body, so every event of the
  * jobs the body ran is counted in the returned `Phase`.
  */
final class SparkProbe(spark: SparkSession) extends SparkListener {
  import SparkProbe.{Phase, Task}

  private var jobStart = Map.empty[Int, Long]
  private var jobMs = 0L
  private val tasks = ArrayBuffer.empty[Task]
  private var broadcastBytes = 0L

  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStart += e.jobId -> e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.get(e.jobId).foreach(t0 => jobMs += e.time - t0)
    jobStart -= e.jobId
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) tasks += Task(m.resultSize, m.shuffleWriteMetrics.bytesWritten,
      m.executorRunTime, m.jvmGCTime, m.shuffleReadMetrics.recordsRead)
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val b = e.blockUpdatedInfo
    if (b.blockId.isBroadcast && b.storageLevel.isValid) broadcastBytes += b.memSize + b.diskSize
  }

  private def reset(): Unit = synchronized {
    jobMs = 0L; tasks.clear(); broadcastBytes = 0L
  }

  /** Runs `body` and returns its result with the Spark work it caused. */
  def phase[A](body: => A): (A, Phase) = {
    PerfbenchBus.drain(spark.sparkContext)
    reset()
    val a = body
    PerfbenchBus.drain(spark.sparkContext)
    synchronized {
      (a, Phase(jobMs / 1e3, tasks.toVector, broadcastBytes))
    }
  }
}

object SparkProbe {
  final case class Task(resultBytes: Long, shuffleBytes: Long, runMs: Long, gcMs: Long, recordsRead: Long)

  final case class Phase(jobSeconds: Double, tasks: Vector[Task], broadcastBytes: Long) {
    def resultBytes: Long = tasks.map(_.resultBytes).sum
    def shuffleBytes: Long = tasks.map(_.shuffleBytes).sum
    def gcSeconds: Double = tasks.map(_.gcMs).sum / 1e3

    /** Tasks that read shuffled input: the tasks that hold sites. */
    def siteTasks: Int = tasks.count(_.recordsRead > 0)

    /** Slowest over median run time of the tasks that read shuffled input
      * (the tasks that hold sites after the group-by-site shuffle).
      */
    def taskSkew: Double = {
      val times = tasks.filter(_.recordsRead > 0).map(_.runMs.toDouble)
      if (times.isEmpty) 0.0 else times.max / math.max(1.0, Stats.median(times))
    }
  }
}
