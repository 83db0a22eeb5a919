#!/usr/bin/env python3
"""Fixture-driven tests for check_perf.py's gate rules.

Each case writes a fresh/baseline JSON pair to a temporary directory,
runs check_perf.py on it and checks the exit status and, where the case
is about reporting, a line of the output. Also runs every committed
BENCH_*.json against itself, which must pass.

Usage: scripts/check_perf_test.py   (exit 0 = all cases passed)
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
CHECK_PERF = SCRIPTS / "check_perf.py"

# (name, fresh, baseline, tolerance, expected exit, expected output or None)
CASES = [
    # A zero baseline is gated with an absolute tolerance, not skipped.
    ("zero baseline holds at zero",
     {"resilience_recovery_ms": {"pgas_fused": 0.0}},
     {"resilience_recovery_ms": {"pgas_fused": 0.0}}, 0.1, 0, None),
    ("zero baseline fails when the metric appears",
     {"resilience_recovery_ms": {"pgas_fused": 0.5}},
     {"resilience_recovery_ms": {"pgas_fused": 0.0}}, 0.1, 1,
     "FAIL resilience_recovery_ms.pgas_fused: 0.5 vs baseline 0"),
    ("zero baseline fraction fails",
     {"resilience_degraded_fraction": {"pgas_fused": 0.01}},
     {"resilience_degraded_fraction": {"pgas_fused": 0.0}}, 0.1, 1, None),
    # Exact groups compare exactly, whatever the tolerance.
    ("exact group fails inside the tolerance band",
     {"events_processed": {"pgas_fused": 2100}},
     {"events_processed": {"pgas_fused": 4100}}, 0.5, 1,
     "FAIL events_processed.pgas_fused: 2100 vs baseline 4100"),
    ("exact group fails one count off",
     {"events_processed": {"pgas_fused": 4101}},
     {"events_processed": {"pgas_fused": 4100}}, 0.5, 1, None),
    ("exact group passes when equal",
     {"multinode_inter_bytes_per_batch": {"pgas_fused.hier": 1022361600.0}},
     {"multinode_inter_bytes_per_batch": {"pgas_fused.hier": 1022361600.0}},
     0.1, 0, "ok   multinode_inter_bytes_per_batch.pgas_fused.hier: "
     "1022361600 vs baseline 1022361600"),
    # Sub-ms values print with four significant digits.
    ("sub-ms values stay readable",
     {"serving_p99_ms": {"pgas_fused": 0.01234}},
     {"serving_p99_ms": {"pgas_fused": 0.1}}, 0.1, 0,
     "ok   serving_p99_ms.pgas_fused: 0.01234 vs baseline 0.1 ms"),
    ("directional regression beyond the tolerance fails",
     {"sim_wall_ms_per_batch": {"pgas_fused": 0.9}},
     {"sim_wall_ms_per_batch": {"pgas_fused": 0.5}}, 0.5, 1,
     "FAIL sim_wall_ms_per_batch.pgas_fused: 0.9 vs baseline 0.5"),
]


def run_check(fresh_path, base_path, tolerance):
    return subprocess.run(
        [sys.executable, str(CHECK_PERF), str(fresh_path), str(base_path),
         "--tolerance", str(tolerance)],
        capture_output=True, text=True)


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, fresh, base, tol, want_rc, want_out) in enumerate(CASES):
            fresh_path = Path(tmp) / f"fresh{i}.json"
            base_path = Path(tmp) / f"base{i}.json"
            fresh_path.write_text(json.dumps(fresh))
            base_path.write_text(json.dumps(base))
            r = run_check(fresh_path, base_path, tol)
            if r.returncode != want_rc:
                failures.append(f"{name}: exit {r.returncode}, want {want_rc}"
                                f"\n{r.stdout}{r.stderr}")
            elif want_out is not None and want_out not in r.stdout:
                failures.append(f"{name}: output lacks '{want_out}'"
                                f"\n{r.stdout}")
    baselines = sorted(SCRIPTS.parent.glob("BENCH_*.json"))
    for baseline in baselines:
        r = run_check(baseline, baseline, 0.0)
        if r.returncode != 0:
            failures.append(f"{baseline.name} against itself: exit "
                            f"{r.returncode}\n{r.stdout}{r.stderr}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"check_perf_test: {len(CASES)} cases and {len(baselines)} "
          f"committed baselines, {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
