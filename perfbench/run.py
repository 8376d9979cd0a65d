#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark binary is built with
`cargo build --release` into `$CARGO_TARGET_DIR` (default `.bench_build`).
With `--workload`, one workload runs and the last line of standard output
is its JSON result. Without it, every workload runs in turn and the last
line sums them up. The exit code is nonzero when a build, a correctness
leg or a determinism leg fails.

`--seconds` defaults to `run_seconds` in BENCHMARK.json. It sets how many
repetitions a workload makes (that many seconds' worth on the reference
host), never a deadline, so two builds run at the same `--seconds` are
measured over the same number of samples.

`peak_rss_mb` is measured here, as the benchmark process's peak resident
set reported by the kernel when it exits.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve_drift", "soc_guarded", "snn_stdp"]


def build():
    """Builds the benchmark and returns the path of its binary."""
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, output lines, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return (proc.returncode or 1), lines, None
    if not trace:
        # ru_maxrss is in KiB on Linux.
        rss_mb = usage.ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        lines.insert(-1, f"metric {'peak_rss_mb':<28} {rss_mb:>16.6f} {'MB':<8} clock=H samples=1")
    return proc.returncode, lines[:-1], result


def declared_metrics(bench, trace):
    """The metric names and units BENCHMARK.json declares for a mode."""
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def mismatches(result, declared):
    """Differences between a result's metrics and the declared ones."""
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return [f"metric {k}: declared {declared.get(k)}, reported {got.get(k)}"
            for k in sorted(set(got) | set(declared)) if got.get(k) != declared.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    binary = build()
    declared = declared_metrics(bench, args.trace)
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    worst = 0
    for w in workloads:
        code, lines, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        if result is None:
            print(f"perfbench: {w} printed no result (exit code {code})", file=sys.stderr)
            return code or 1
        for problem in mismatches(result, declared):
            print(f"problem {problem}")
            result["correct"] = False
            code = code or 1
        worst = worst or code
        results[w] = result

    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(f"summary seed={args.seed} seconds={args.seconds} trace={args.trace}")
        for w, r in results.items():
            print(f"summary {w:<12} correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return worst


if __name__ == "__main__":
    sys.exit(main())
