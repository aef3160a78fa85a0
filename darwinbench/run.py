#!/usr/bin/env python3
"""Darwin benchmark launcher.

Run from the root of a checkout of the repository:

    python3 darwinbench/run.py --workload discover-hard --seed 1 --seconds 20 --trace 0

It builds the program and the benchmark runner from source with sbt (once
per checkout; the classpath is cached under .bench_build/ and rebuilt when a
source or build file changes), then starts the runner in a JVM whose settings
are pinned here rather than taken from the environment. The runner's last
line of standard output is the JSON result.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
WORKLOADS = ("prepare-professions", "discover-hard", "label-professions")

# Driver heap, fixed with -Xms equal to -Xmx so that no run depends on the
# heap the environment would pick.
HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Inherited settings that would override the pinned Spark configuration.
DROPPED_ENV = ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "SPARK_DRIVER_MEM",
               "SPARK_CONF_DIR", "JAVA_TOOL_OPTIONS", "_JAVA_OPTIONS")


def fail(msg):
    print(f"darwinbench: {msg}", file=sys.stderr)
    return 2


def sources_stamp():
    """Digest of every file the build reads, by path, size and mtime."""
    h = hashlib.sha256()
    roots = [ROOT / "build.sbt", ROOT / "project", ROOT / "src" / "main", ROOT / "jobs",
             BENCH / "build.sbt", BENCH / "project", BENCH / "src"]
    for r in roots:
        files = [r] if r.is_file() else sorted(p for p in r.rglob("*")
                                               if p.is_file() and "target" not in p.parts)
        for p in files:
            st = p.stat()
            h.update(f"{p}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def run_killing_on_timeout(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the group and waits."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Returns the runtime classpath, building with sbt when sources changed."""
    BUILD.mkdir(exist_ok=True)
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp.txt"
    stamp = sources_stamp()
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    sbt_opts = env.get("SBT_OPTS", "").strip()
    repos = Path.home() / ".sbt" / "repositories"
    if not sbt_opts and repos.is_file():
        # The resolvers the offline dependency cache was filled from.
        sbt_opts = f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    env["SBT_OPTS"] = f"{sbt_opts} -Dsbt.global.base={BUILD / 'sbt-global'}".strip()
    out_file = BUILD / "sbt.log"
    with open(out_file, "w") as out:
        code = run_killing_on_timeout(
            ["sbt", "-Dsbt.server.autostart=false", "-Dsbt.offline=true", "--batch",
             "-Dsbt.log.noformat=true",
             "export Runtime/fullClasspath"],
            BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=out, stderr=subprocess.STDOUT)
    lines = out_file.read_text().splitlines()
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write("\n".join(lines[-30:]) + "\n")
        return None
    cp = lines[-1].strip()
    cp_file.write_text(cp)
    stamp_file.write_text(stamp)
    return cp


def main():
    # A terminated launcher still stops its child: SystemExit unwinds through
    # run_killing_on_timeout, which kills the child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        return fail("run this from the root of a checkout of the repository "
                    "(no build.sbt or src/main/scala/repro here)")
    cp = build()
    if cp is None:
        return fail("build failed")

    local_dirs = BUILD / "spark-local"
    local_dirs.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["SPARK_LOCAL_DIRS"] = str(local_dirs)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC",
           f"-Djava.io.tmpdir={local_dirs}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", cp, "darwinbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    code = run_killing_on_timeout(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code is None:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
