"""Runs one benchmark workload and prints its JSON result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark (see build.py),
starts one JVM for the workload, relays its report, and checks that the
result names exactly the metrics BENCHMARK.json lists for the mode:
every end_to_end metric with --trace 0, every per_layer metric with
--trace 1. Exits non-zero, printing no result, if anything fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

# Spark on JDK 17 needs these opened (spark-submit adds them itself).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]
TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        classes = build.build()
    except build.BuildError as e:
        sys.exit(f"build failed: {e}")

    work = build.BUILD_DIR / "work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData", "-Xss8m",
            f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.work={work}",
            "-Dlog4j.configurationFile=perfbench/log4j2.properties"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", f"{classes}:{build.classpath(build.spark_jars())}", "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    # Spark prefers these variables to spark.local.dir; keep its scratch in the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str((work / "spark").resolve()))
    env.pop("SPARK_EXECUTOR_DIRS", None)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        sys.exit(f"workload did not finish within {TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"workload exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
        got = {n: m["unit"] for n, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        sys.exit(f"unreadable result line: {e}")
    if got != expected:
        sys.exit(f"result metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
