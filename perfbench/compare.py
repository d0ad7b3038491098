#!/usr/bin/env python3
"""Pools benchmark result documents and compares two sets of them.

    python3 perfbench/compare.py --base A/*.json [--new B/*.json]

Each argument is a result document that perfbench_main writes to
<build>/work/results/. Runs are pooled per (workload, trace) group, and
only when their conditions agree on every field but the seed (nproc,
FMNET_THREADS, kernel ISA, build type, compiler, FMNET_FAST, scenario
hash); otherwise the script refuses and exits 2. For every metric it
prints the median, the quartiles and their distance as a share of the
median. With --new, the new set must match the base conditions too, and
each end-to-end metric is judged against its bound in BENCHMARK.json:
exit status 1 when a median is worse than the base median by more than the
bound.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(paths):
    groups = {}
    for p in paths:
        doc = json.loads(Path(p).read_text())
        groups.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return groups


def conditions_key(doc):
    cond = dict(doc["conditions"])
    cond.pop("seed", None)
    return json.dumps(cond, sort_keys=True)


def check_conditions(docs, label):
    keys = {conditions_key(d) for d in docs}
    if len(keys) > 1:
        sys.exit(f"compare: refusing to pool {label}: conditions differ:\n  " +
                 "\n  ".join(sorted(keys)))
    return keys.pop()


def summary(docs, metric):
    values = [d["metrics"][metric]["value"] for d in docs
              if metric in d["metrics"]]
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return len(values), med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="*", default=[])
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    base, new = load(args.base), load(args.new)
    regressed = False
    for group, docs in sorted(base.items()):
        label = f"{group[0]} (trace {group[1]})"
        cond = check_conditions(docs, label)
        print(f"== {label}: {len(docs)} runs\n   conditions {cond}")
        other = new.get(group, [])
        if other and check_conditions(other, label + " new") != cond:
            sys.exit(f"compare: refusing to compare {label}: base and new "
                     "conditions differ")
        for metric in docs[0]["metrics"]:
            n, med, q1, q3, spread = summary(docs, metric)
            line = (f"   {metric:38s} n={n:2d} median={med:.6g} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")
            if other and metric in bounds:
                _, new_med, _, _, new_spread = summary(other, metric)
                change = (new_med - med) / med if med else 0.0
                worse = change if bounds[metric]["better"] == "lower" else -change
                bad = worse > bounds[metric]["bound"]
                regressed |= bad
                line += (f" | new median={new_med:.6g} change={change:+.3f} "
                         f"spread={new_spread:.3f} "
                         f"bound={bounds[metric]['bound']}"
                         f"{' REGRESSED' if bad else ''}")
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
