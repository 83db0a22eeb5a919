#!/usr/bin/env python3
"""Guardrail for the simulator fast path's recorded perf trajectory.

Compares a freshly generated BENCH_*.json (bench_simcore --json /
bench_weak_scaling --bench-json / bench_serving --bench-json) against
the committed baseline and fails when a metric regressed beyond the
tolerance. Direction-aware:

  sim_wall_ms_per_batch   lower is better  -> fail if fresh > base*(1+tol)
  events_per_sec          higher is better -> fail if fresh < base*(1-tol)
  events_processed        deterministic    -> fail unless fresh == base
                          (any drift here means simulated behaviour moved,
                          not just the host clock)

A zero baseline has no relative scale, so it is held to an absolute
tolerance (ZERO_ABS_TOL, in the metric's own unit) in its direction.

Usage:
  scripts/check_perf.py FRESH.json BASELINE.json [--tolerance 0.15]

Exit 0 = within tolerance, 1 = regression, 2 = bad invocation/inputs.
Run it locally after `bench_simcore --json fresh.json`, or let the
`perf_smoke` ctest target do both steps (it uses a wider tolerance to
ride out shared-machine noise).
"""

import argparse
import json
import sys

# A zero baseline ("this never happens") may drift by at most this much.
ZERO_ABS_TOL = 1e-9

# metric-group key -> (direction, human unit)
METRICS = {
    "sim_wall_ms_per_batch": ("lower", "ms/batch"),
    "events_per_sec": ("higher", "events/s"),
    "events_processed": ("exact", "events"),
    # Serving tails (bench_serving --bench-json): simulated, so any drift
    # is a modeling change, not machine noise.
    "serving_p99_ms": ("lower", "ms"),
    "max_sustainable_qps": ("higher", "qps"),
    # Multi-node sweep (bench_multinode --sweep --bench-json): modeled
    # batch time and inter-node wire-equivalent bytes at the largest
    # swept node count, for flat / hierarchical / hierarchical+compressed
    # runs. Both simulated; the byte counts are deterministic, so drift
    # there means the traffic model itself moved.
    "multinode_ms_per_batch": ("lower", "ms/batch"),
    "multinode_inter_bytes_per_batch": ("exact", "bytes"),
    # Resilience sweep (bench_faults --nodes N --bench-json): summed
    # recovery time and degraded-mode (per-pair flat fallback) fraction
    # over the faulted severity levels, plus serving goodput at 2x-knee
    # overload with the admission stack armed. All simulated with fixed
    # seeds, so drift means the fault/admission model itself moved.
    "resilience_recovery_ms": ("lower", "ms"),
    "resilience_degraded_fraction": ("lower", "fraction"),
    "serving_goodput_qps": ("higher", "qps"),
}


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def regressed(direction, fresh_val, base_val, tol):
    """True when fresh_val is worse than base_val beyond the tolerance."""
    if direction == "exact":
        return fresh_val != base_val
    if base_val == 0:
        drift = fresh_val if direction == "lower" else -fresh_val
        return drift > ZERO_ABS_TOL
    ratio = fresh_val / base_val
    if direction == "lower":
        return ratio > 1.0 + tol
    return ratio < 1.0 - tol


def fmt(value, direction):
    # Four significant digits keep sub-ms values readable ("0.0123", not
    # "0.0"); exact groups print every digit, since one count off fails.
    return f"{value:.15g}" if direction == "exact" else f"{value:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="freshly generated BENCH_*.json")
    ap.add_argument("baseline", help="committed baseline BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional drift (default 0.15)")
    args = ap.parse_args()

    fresh, base = load(args.fresh), load(args.baseline)
    tol = args.tolerance
    failures = []
    checked = 0

    for group, (direction, unit) in METRICS.items():
        if group not in base:
            continue
        if group not in fresh:
            failures.append(f"{group}: missing from {args.fresh}")
            continue
        for key, base_val in base[group].items():
            if key not in fresh[group]:
                failures.append(f"{group}.{key}: missing from {args.fresh}")
                continue
            fresh_val = fresh[group][key]
            checked += 1
            bad = regressed(direction, fresh_val, base_val, tol)
            if direction == "exact":
                rule = "expect equal"
            elif base_val == 0:
                rule = (f"zero baseline, +-{ZERO_ABS_TOL:g} {unit}, "
                        f"{direction} is better")
            else:
                rule = (f"{fresh_val / base_val:.2f}x, "
                        f"{direction} is better")
            verdict = "FAIL" if bad else "ok"
            print(f"  {verdict:4s} {group}.{key}: "
                  f"{fmt(fresh_val, direction)} vs baseline "
                  f"{fmt(base_val, direction)} {unit} ({rule})")
            if bad:
                failures.append(f"{group}.{key}: {fmt(fresh_val, direction)}"
                                f" vs baseline {fmt(base_val, direction)} "
                                f"({rule}, tolerance {tol:.2f})")

    if checked == 0:
        print("check_perf: no comparable metrics found", file=sys.stderr)
        sys.exit(2)
    if failures:
        print(f"\ncheck_perf: {len(failures)} regression(s) beyond "
              f"+-{tol:.0%}:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print(f"check_perf: {checked} metric(s) within +-{tol:.0%} of baseline")
    sys.exit(0)


if __name__ == "__main__":
    main()
