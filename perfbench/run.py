#!/usr/bin/env python3
"""Build and run the Raincore benchmark.

    python3 perfbench/run.py --workload <udp-small|udp-journal-1k|kv-sim> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. WAL scratch files live under
.bench_build/work and are removed after the run; traced runs leave their
spans in .bench_build/traces.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Raincore sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    args = sys.argv[1:]
    if not build():
        return 2
    if args == ["--selftest"]:
        return subprocess.call([os.path.join(BUILD, "perfbench_selftest")])
    work = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
    traces = os.path.join(ROOT, ".bench_build", "traces")
    cmd = [os.path.join(BUILD, "perfbench")] + args + [
        "--workdir", work, "--trace-dir", traces]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
