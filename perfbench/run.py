#!/usr/bin/env python3
"""Runs one workload of the BLEND benchmark and prints its result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload seekers|plans \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

The first run in a checkout compiles the program's sources together with
the benchmark's (sbt, offline; outputs under .bench_build/). Later runs
reuse the build until a source file changes. The benchmark itself runs in
one JVM with Spark local[nproc]; its last stdout line is the JSON result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
SOURCES = [ROOT / "src" / "main" / "scala", ROOT / "jobs", BENCH / "src"]
BUILD_FILES = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Spark 4 on Java 17 needs these modules opened to the unnamed module; the
# list is the one Spark's own launcher passes.
JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every input of the build, to tell when it must be redone."""
    h = hashlib.sha256()
    files = list(BUILD_FILES)
    for d in SOURCES:
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout, capture):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(env):
    stamp_file = OUT / "build.stamp"
    classpath = OUT / "sbt" / "classpath.txt"
    stamp = source_stamp()
    if classpath.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return classpath.read_text().strip()
    print("perfbench: compiling the program and the benchmark ...", file=sys.stderr)
    sbt_env = dict(env)
    sbt_env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "writeClasspath"]
    try:
        code, _ = run_child(cmd, BENCH, sbt_env, BUILD_TIMEOUT_S, capture=False)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0 or not classpath.exists():
        fail(f"build failed (sbt exit code {code})")
    stamp_file.write_text(stamp)
    return classpath.read_text().strip()


def main():
    # A terminated benchmark takes its JVM or sbt down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["seekers", "plans"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    # Self-test only: corrupts the reference outputs so ops must fail.
    ap.add_argument("--wrong-reference", choices=["0", "1"], default="0")
    args = ap.parse_args()

    missing = [str(d.relative_to(ROOT)) for d in SOURCES if not d.is_dir()]
    if missing:
        fail(f"program sources not found: {', '.join(missing)}")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")

    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ)
    # The program's own entrypoint defaults (local[*], 8 shuffle partitions)
    # are what the benchmark measures.
    env.pop("SPARK_MASTER", None)
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)

    classpath = build(env)
    # A fixed-size heap and the throughput collector: no heap resizing
    # while the loop is measured.
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", *JAVA_OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={OUT / 'spark-local'}",
           "-Dspark.driver.host=127.0.0.1",
           "-Dspark.ui.enabled=false",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--wrong-reference", args.wrong_reference,
           "--out", str(OUT)]
    try:
        code, out = run_child(cmd, ROOT, env, RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
