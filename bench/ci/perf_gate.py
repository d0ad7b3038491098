#!/usr/bin/env python3
"""Shared CI perf/accuracy gate over fmnet.metrics.v1 bench documents.

One protocol for every bench job (CEM repair, kernels, inference, serving,
fabric):

* Throughput keys (--keys) are compared as current/baseline ratios and
  normalised by the run's MEDIAN ratio, so a uniformly slower CI runner
  cancels out while a single metric regressing relative to the others
  fails. The default tolerance is a >30% normalised regression
  (--max-regression 0.30). A lone key normalised by its own ratio always
  reads 1.00x, so --keys with exactly one key is refused (exit 2).
* --current may be repeated to gate documents written by several benches
  of one CI job together: their counters are summed and their gauges
  merged, and a gauge that appears in two of them is an error.
* Absolute floors (--floor KEY:MIN) gate within-run quantities that are
  machine-independent — speedup ratios, hit rates — straight from the
  current document.
* Absolute ceilings (--ceiling KEY:MAX) gate quantities that must stay
  small, e.g. the serving p99 latency against the 50 ms interval.
* --require-counter NAME asserts a counter fired at all (e.g. the repair
  cache actually served hits during the bench).

Gauges are read as best-of-run: max(value, max) when the gauge tracked a
max across repetitions, else the final value — the committed baselines
use the same convention, which tames scheduler noise.

Exit status is 1 on any violation and 2 on a gate that cannot fail; every
check prints its verdict so the CI log reads as a report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def best(doc: dict, key: str) -> float:
    """Best-of-run reading of a gauge: its final value or tracked max."""
    try:
        g = doc["gauges"][key]
    except KeyError:
        raise SystemExit(f"perf_gate: gauge {key!r} missing from document")
    return max(g["value"], g.get("max", g["value"]))


def load_current(paths: list[str]) -> dict:
    """Sums the counters and merges the gauges of one job's documents."""
    merged: dict = {"gauges": {}, "counters": {}}
    for path in paths:
        doc = json.load(open(path))
        if doc.get("schema") != "fmnet.metrics.v1":
            raise SystemExit(
                f"perf_gate: {path} schema is {doc.get('schema')!r}, "
                "want fmnet.metrics.v1")
        for name, n in doc.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + n
        for name, g in doc.get("gauges", {}).items():
            if name in merged["gauges"]:
                raise SystemExit(f"perf_gate: gauge {name!r} appears in "
                                 "more than one --current document")
            merged["gauges"][name] = g
    return merged


def parse_bound(spec: str) -> tuple[str, float]:
    key, sep, bound = spec.rpartition(":")
    if not sep or not key:
        raise SystemExit(f"perf_gate: bad bound spec {spec!r} (want KEY:NUM)")
    return key, float(bound)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed baseline metrics JSON")
    ap.add_argument("--current", action="append", required=True,
                    help="metrics JSON from this run (repeatable; merged)")
    ap.add_argument("--keys", default="",
                    help="comma-separated throughput gauge keys for the "
                         "median-normalised regression rule")
    ap.add_argument("--max-regression", type=float, default=0.30,
                    help="normalised relative regression that fails a key "
                         "(default 0.30)")
    ap.add_argument("--floor", action="append", default=[],
                    metavar="KEY:MIN",
                    help="current-run gauge that must be >= MIN "
                         "(best-of-run reading; repeatable)")
    ap.add_argument("--ceiling", action="append", default=[],
                    metavar="KEY:MAX",
                    help="current-run gauge that must be <= MAX "
                         "(final value, not max; repeatable)")
    ap.add_argument("--require-counter", action="append", default=[],
                    metavar="NAME",
                    help="counter that must be > 0 in the current run "
                         "(repeatable)")
    args = ap.parse_args()

    cur = load_current(args.current)
    failures: list[str] = []

    keys = [k for k in args.keys.split(",") if k]
    if len(keys) == 1:
        print(f"perf_gate: --keys names only {keys[0]!r}; normalised by its "
              "own ratio it always reads 1.00x. Add a second key from the "
              "same run.", file=sys.stderr)
        return 2
    if keys:
        if not args.baseline:
            raise SystemExit("perf_gate: --keys requires --baseline")
        base = json.load(open(args.baseline))
        ratios = {k: best(cur, k) / best(base, k) for k in keys}
        runner = statistics.median(ratios.values())
        print(f"runner speed vs baseline machine: {runner:.2f}x")
        for k, r in sorted(ratios.items()):
            rel = r / runner
            ok = rel >= 1.0 - args.max_regression
            print(f"  {k}: {r:.2f}x raw, {rel:.2f}x normalised "
                  f"[{'ok' if ok else 'REGRESSED'}]")
            if not ok:
                failures.append(f"{k} regressed >"
                                f"{args.max_regression:.0%} normalised")

    for spec in args.floor:
        key, bound = parse_bound(spec)
        val = best(cur, key)
        ok = val >= bound
        print(f"  floor {key}: {val:.3f} >= {bound:.3f} "
              f"[{'ok' if ok else 'FAILED'}]")
        if not ok:
            failures.append(f"{key} below floor {bound}")

    for spec in args.ceiling:
        key, bound = parse_bound(spec)
        try:
            val = cur["gauges"][key]["value"]
        except KeyError:
            raise SystemExit(f"perf_gate: gauge {key!r} missing from "
                             "document")
        ok = val <= bound
        print(f"  ceiling {key}: {val:.6f} <= {bound:.6f} "
              f"[{'ok' if ok else 'FAILED'}]")
        if not ok:
            failures.append(f"{key} above ceiling {bound}")

    for name in args.require_counter:
        n = cur.get("counters", {}).get(name, 0)
        ok = n > 0
        print(f"  counter {name}: {n} [{'ok' if ok else 'FAILED'}]")
        if not ok:
            failures.append(f"counter {name} never fired")

    if failures:
        print("perf_gate FAILED:", "; ".join(failures), file=sys.stderr)
        return 1
    print("perf_gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
