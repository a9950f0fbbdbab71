"""Build file of the benchmark: compiles the program's sources under
src/main/scala together with the benchmark's own sources under
perfbench/src, with the Scala compiler that ships in Spark's jar
directory, into a class directory under .bench_build/perfbench.

The class directory is keyed by a hash of every input, so a second run
with unchanged sources reuses it. Run from the root of a checkout:

    python3 perfbench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "perfbench"
PROGRAM_SOURCES = Path("src") / "main" / "scala"
BENCH_SOURCES = Path("perfbench") / "src"


class BuildError(Exception):
    pass


def spark_jars():
    """Spark's jar directory: $SPARK_HOME/jars, else the first one beside a
    bin directory on PATH that holds the Scala compiler."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else \
        [Path(d).parent for d in os.environ.get("PATH", "").split(os.pathsep) if d]
    for home in homes:
        jars = Path(home) / "jars"
        if any(jars.glob("scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark jar directory with a Scala compiler; set SPARK_HOME")


def sources():
    program = sorted(PROGRAM_SOURCES.rglob("*.scala"))
    bench = sorted(BENCH_SOURCES.rglob("*.scala"))
    if not program:
        raise BuildError(f"no program sources under {PROGRAM_SOURCES}")
    if not bench:
        raise BuildError(f"no benchmark sources under {BENCH_SOURCES}")
    return program + bench


def classpath(jars):
    return str(jars / "*")


def build():
    """Returns the class directory, compiling it first if needed."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for jar in sorted(jars.glob("scala-*.jar")):
        digest.update(jar.name.encode())
    for src in srcs:
        digest.update(str(src).encode())
        digest.update(src.read_bytes())
    out = BUILD_DIR / digest.hexdigest()[:16] / "classes"
    if (out / ".complete").exists():
        return out
    tmp = out.with_name("classes.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", classpath(jars),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(s) for s in srcs]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if done.returncode != 0:
        raise BuildError(f"scalac exited with {done.returncode}")
    (tmp / ".complete").touch()
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
