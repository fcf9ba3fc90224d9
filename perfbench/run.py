#!/usr/bin/env python3
"""Build grepair and the perfbench harness from this checkout, then run it.

One workload (the benchmark contract; the last stdout line is the result):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--persons N] [--fault digest|budget|nowrite]

Every workload, untraced and traced, as one table of every metric:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Builds with `cargo --offline` into $CARGO_TARGET_DIR (default
`.bench_build`), works in `.bench_work/`, and removes its scratch files
when it ends. Traced runs leave their spans as a Chrome trace in
`.bench_work/traces/`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["kg50k_json_repair", "kg50k_naive_mem", "kg20k_store_stream"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the release `grepair` binary and the harness; return their dir."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "grepair-cli").is_dir():
        fail(f"no grepair workspace at {ROOT}; nothing to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "grepair-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        # Cargo's chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return target / "release"


def expected_counts(workload, seed):
    """Counts recorded for this workload and seed (empty if none)."""
    table = json.loads((HERE / "expected.json").read_text())
    return table["counts"].get(workload, {}).get(str(seed), {})


def run_harness(bins, workload, seed, seconds, trace, extra):
    """Run one workload; return (exit code, stdout text)."""
    work_root = ROOT / ".bench_work"
    work = work_root / f"{workload}-{os.getpid()}"
    cmd = [
        str(bins / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--grepair", str(bins / "grepair"),
        "--work", str(work),
    ]
    if "--persons" not in extra:
        for key, value in expected_counts(workload, seed).items():
            cmd += ["--expect", f"{key}={value}"]
    cmd += extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        trace_file = work / "trace.json"
        if trace_file.is_file():
            (work_root / "traces").mkdir(parents=True, exist_ok=True)
            shutil.move(str(trace_file), work_root / "traces" / f"{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout


def run_all(bins, seed, seconds):
    """Every workload untraced then traced; print every metric by name."""
    ok = True
    print(f"{'workload':<20} {'run':<8} {'metric':<28} {'value':>16}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_harness(bins, workload, seed, seconds, trace, [])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(f"{workload:<20} failed to run (exit {code})")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            run = "traced" if trace else "untraced"
            rows = list(result["metrics"].items())
            if not trace:
                ratio = result["failed"] / result["attempted"]
                rows.append(("failed_ops_ratio", {"value": ratio, "unit": "ratio"}))
            for name, m in rows:
                print(f"{workload:<20} {run:<8} {name:<28} {m['value']:>16.6g}  {m['unit']}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args, extra = p.parse_known_args()
    if not args.all and not args.workload:
        fail("need --workload NAME or --all")
    bins = build()
    if args.all:
        sys.exit(run_all(bins, args.seed, args.seconds))
    code, out = run_harness(bins, args.workload, args.seed, args.seconds, args.trace, extra)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
