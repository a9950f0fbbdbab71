package repro.bench

import repro.SparkSpec
import repro.eval.DatasetResult
import repro.jobs.Table2And3

/** The shared Table 2/3 result grid of the bench suites.
  *
  * The experiment scale comes from `JobSession`, whose defaults reproduce
  * the paper's setting (m = 50K, k = 30, ε = 0.1, 1000 tests; medians over
  * REPRO_RUNS runs). The grid is computed once per JVM
  * and shared by Table2Bench and Table3Bench; `sbt "bench/test"` therefore
  * pays for the expensive runs exactly once.
  */
object BenchConfig {
  lazy val grid: Seq[DatasetResult] = Table2And3.runAll(SparkSpec.shared)
}
