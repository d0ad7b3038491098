#!/usr/bin/env python3
"""Builds and runs one FMNet benchmark workload.

    python3 perfbench/run.py --workload table1-cold|serve|cem-smt \
        [--seed 42] [--seconds 10] [--trace 0|1]
    python3 perfbench/run.py --selftest

The benchmark is its own CMake package (perfbench/CMakeLists.txt) built
from the library sources beside it into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Every run pins FMNET_THREADS to one
less than the usable cores (at least 1, at most 4) — a spare core for the
host keeps parallel regions from waiting on a preempted lane — and clears
the variables that would turn on metrics export or an artifact cache.

The last line of standard output is the result object; the line before it
is the conditions block, and the full result document lands in
<build>/work/results/. Exit status is 0 only when every output check
passed; a failed build or check exits non-zero.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1-cold", "serve", "cem-smt")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(target):
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j",
                    str(usable_cores()), "--target", target],
                   check=True, stdout=sys.stderr)
    return bdir / target


def run_env():
    env = dict(os.environ)
    for var in ("FMNET_METRICS", "FMNET_METRICS_TABLE", "FMNET_ARTIFACT_DIR"):
        env.pop(var, None)
    env["FMNET_THREADS"] = str(max(1, min(usable_cores() - 1, MAX_THREADS)))
    return env


def run(cmd):
    """Runs cmd, relaying its stdout; kills it past the time limit."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=run_env(),
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    work = build_dir() / "work"
    try:
        if args.selftest:
            binary = build("perfbench_selftest")
            return run([str(binary), f"--root={ROOT}"])
        binary = build("perfbench_main")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    return run([str(binary), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--root", str(ROOT),
                "--work-dir", str(work)])


if __name__ == "__main__":
    sys.exit(main())
