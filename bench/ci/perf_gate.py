#!/usr/bin/env python3
"""Shared CI perf gate over fmnet.metrics.v1 bench documents.

Every bound reads the current run only, so the gate means the same thing
on any runner; parent-vs-change speed on one host is perfbench's job.

* --floor KEY:MIN gates within-run quantities that must stay large:
  speedup ratios, hit rates, an absolute throughput floor.
* --ceiling KEY:MAX gates quantities that must stay small, e.g. the
  serving p99 latency against the 50 ms interval.
* --require-counter NAME asserts a counter fired at all (e.g. the repair
  cache actually served hits during the bench).
* --current may be repeated to gate documents written by several benches
  of one CI job together: their counters are summed and their gauges
  merged, and a gauge that appears in two of them is an error.

Floors read a gauge best-of-run: max(value, max) when the gauge tracked a
max across repetitions, else the final value, which tames scheduler noise.

Exit status is 1 on any violation; every check prints its verdict so the
CI log reads as a report.
"""

from __future__ import annotations

import argparse
import json
import sys


def gauge(doc: dict, key: str) -> dict:
    try:
        return doc["gauges"][key]
    except KeyError:
        raise SystemExit(f"perf_gate: gauge {key!r} missing from document")


def best(doc: dict, key: str) -> float:
    """Best-of-run reading of a gauge: its final value or tracked max."""
    g = gauge(doc, key)
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
    ap.add_argument("--current", action="append", required=True,
                    help="metrics JSON from this run (repeatable; merged)")
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
        val = gauge(cur, key)["value"]
        ok = val <= bound
        print(f"  ceiling {key}: {val:.6f} <= {bound:.6f} "
              f"[{'ok' if ok else 'FAILED'}]")
        if not ok:
            failures.append(f"{key} above ceiling {bound}")

    for name in args.require_counter:
        n = cur["counters"].get(name, 0)
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
