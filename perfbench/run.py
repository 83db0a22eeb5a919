#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. --workload all runs every workload in
turn, each in its own process. The build goes to .bench_build/perfbench
(CMake, Release); its output is sent to stderr so that the benchmark's
JSON record stays the last line of stdout. With --trace 1 the span trace
is written to .bench_build/perfbench/trace_<workload>_<seed>.json.
Exits with the benchmark's status: 0 when every check held, 1 on a failed
check or a failed build, 2 on bad arguments.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a "
             "full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("CMake configure failed")
    step = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def option(args, name):
    """Value of --name in args (either '--name V' or '--name=V'), or None."""
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def run_all(args):
    """--workload all: every workload of BENCHMARK.json, one process each
    (so peak memory stays per workload); fails if any of them fails."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        rest = [a for i, a in enumerate(args)
                if a != "--workload" and not a.startswith("--workload=")
                and not (i > 0 and args[i - 1] == "--workload")]
        sys.stdout.flush()
        code = subprocess.run([sys.executable, __file__, "--workload",
                               workload] + rest).returncode
        status = status or code
    sys.exit(status)


def main():
    args = sys.argv[1:]
    if option(args, "--workload") == "all":
        run_all(args)
    build()
    extra = []
    if option(args, "--trace") == "1":
        workload = option(args, "--workload") or "unknown"
        seed = option(args, "--seed") or "unknown"
        name = "".join(c if c.isalnum() or c in "_-." else "_"
                       for c in f"trace_{workload}_{seed}.json")
        extra = ["--trace-out", str(BUILD_DIR / name)]
    sys.stdout.flush()
    sys.exit(subprocess.run([str(BINARY)] + args + extra).returncode)


if __name__ == "__main__":
    main()
