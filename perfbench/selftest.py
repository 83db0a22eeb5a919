#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [--seconds S]

Run from the root of a checkout (builds through run.py). Checks that:
  - BENCHMARK.json's metric lists match the binary's declarations and
    every name matches [A-Za-z0-9_.-]+;
  - every workload emits every declared metric, end-to-end with --trace 0
    and per-layer with --trace 1, with all output checks passing;
  - simulated metrics repeat exactly across two runs of one seed, and
    tracing leaves them unchanged;
  - a second seed passes the correctness checks;
  - bad arguments exit 2 with a pointed message.
Exits non-zero on the first failed check.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SIMULATED_E2E = ("sim_ms.", "sim_rate.")


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def run(args):
    p = subprocess.run(RUN + args, capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def record(workload, seed, seconds, trace):
    code, out, err = run(["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.strip().splitlines()
    check(code == 0 and lines,
          f"{workload} seed {seed} trace {trace} exits 0 "
          f"(status {code}{'; ' + err.strip()[-300:] if code else ''})")
    rec = json.loads(lines[-1])
    check(sorted(rec) == ["attempted", "correct", "failed", "metrics"],
          f"{workload}: record has exactly the four keys")
    check(rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1,
          f"{workload} seed {seed}: correct, 0 of {rec['attempted']} failed")
    return rec


def main():
    seconds = 1
    if len(sys.argv) == 3 and sys.argv[1] == "--seconds":
        seconds = int(sys.argv[2])

    # Builds the binary as a side effect and must reject the arguments.
    code, _, err = run(["--workload", "no_such_workload", "--seed", "1"])
    check(code == 2 and "unknown workload 'no_such_workload'" in err,
          "unknown workload exits 2 naming it")
    for bad in ("12x", "-3", "", "99999999999999999999999"):
        code, _, err = run(["--workload", "infer_1node", "--seed", bad])
        check(code == 2 and "malformed --seed" in err,
              f"malformed seed '{bad}' exits 2")
    code, _, err = run(["--workload", "infer_1node"])
    check(code == 2 and "--seed is required" in err, "missing seed exits 2")
    code, _, err = run(["--workload", "infer_1node", "--seed", "1",
                        "--trace", "2"])
    check(code == 2 and "malformed --trace" in err, "bad --trace exits 2")
    code, _, err = run(["--workload", "infer_1node", "--seed", "1",
                        "--bogus", "1"])
    check(code == 2 and "unknown argument '--bogus'" in err,
          "unknown flag exits 2")

    declared = json.loads(subprocess.run(
        [str(BINARY), "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[key]]
        check(all(NAME.match(n) for n in names) and
              len(set(names)) == len(names),
              f"{key} names are unique and match [A-Za-z0-9_.-]+")
        check([(m["name"], m["unit"], m["better"]) for m in bench[key]] ==
              [(m["name"], m["unit"], m["better"]) for m in declared[key]],
              f"BENCHMARK.json {key} matches the binary's declarations")
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]

    for w in workloads:
        first = record(w, 7, seconds, 0)
        check(list(first["metrics"]) == e2e,
              f"{w}: emits every end-to-end metric")
        check(all(first["metrics"][n]["value"] != 0 for n in e2e),
              f"{w}: no end-to-end metric reads 0")
        again = record(w, 7, seconds, 0)
        sim = [n for n in e2e if n.startswith(SIMULATED_E2E)]
        check(all(first["metrics"][n] == again["metrics"][n] for n in sim),
              f"{w}: simulated metrics repeat exactly for one seed")
        traced = record(w, 7, seconds, 1)
        check(list(traced["metrics"]) == layer,
              f"{w}: emits every per-layer metric")
        other = record(w, 8, seconds, 0)
        check(any(first["metrics"][n] != other["metrics"][n] for n in sim),
              f"{w}: a second seed gives other inputs and still passes")
    print("all checks passed")


if __name__ == "__main__":
    main()
