#!/usr/bin/env python3
"""Build and run the Optimus benchmark on one workload; print its result.

    python3 perfbench/run.py --workload serve-stream --seed 1 --trace 0
    python3 perfbench/run.py --workload all                     # every workload

`--seconds` overrides the run length, `run_seconds` in BENCHMARK.json.

Run from anywhere inside a checkout of the repository. The benchmark is
built from source with cargo (into $CARGO_TARGET_DIR, default
`.bench_build` at the checkout root). Set-up time and peak memory are
sampled in four extra set-up-only processes plus the measuring one, and
the medians are reported.

The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics. Lines before it are a readable
summary: every metric with its unit, the error rate, the simulated
statistics and the machine fingerprint. The full record, fingerprint
included, is written to `.bench_out/` at the checkout root, with the spans
of a traced run.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-stream", "serve-contended", "model-sweep")
# Set-up-only processes run besides the measuring one; set-up time and peak
# memory are medians over all of them.
SETUP_PROCESSES = 4
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Builds the benchmark binary; exits non-zero if it cannot."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=880, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed (the benchmark builds against the repository's crates)")
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_binary(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(cmd[1:]))
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd[1:]))
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        fail(f"exit code {done.returncode}: " + " ".join(cmd[1:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def fingerprint(threads):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               check=False).stdout.strip() or "unknown"
    except OSError:
        rustc = "unknown"
    rev = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, check=False)
        if git.returncode == 0:
            rev = git.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": rustc,
        "git_rev": rev,
        "source_sha256": source_digest(),
        "rayon_threads": threads,
    }


def source_digest():
    """Digest of the sources the benchmark builds, so results from a checkout
    without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, names in os.walk(path):
            subdirs[:] = [s for s in subdirs if s != "target" and not s.startswith(".")]
            files.extend(os.path.join(d, n) for n in names)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def tail_percentile(values):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]


def run_workload(spec, binary, name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    base = [binary, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    setups = [] if trace else [
        run_binary(base + ["--setup-only"], deadline) for _ in range(SETUP_PROCESSES)]
    tag = f"{name}-seed{seed}-trace{1 if trace else 0}"
    spans = os.path.join(OUT_DIR, f"spans-{tag}.jsonl")
    record = run_binary(base + (["--spans", spans] if trace else []), deadline)
    attempted, failed = int(record["attempted"]), int(record["failed"])
    walls = record.get("wall_s", [])
    measured = {}
    if walls:
        wall = statistics.median(walls)
        setups.append(record)
        measured = {
            "wall_s": wall,
            # Closed-loop throughput over the whole timed loop.
            "sim_items_per_s": record["items_per_op"] * len(walls) / sum(walls),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mib": statistics.median(s["setup_rss_mib"] for s in setups),
            "ref_error_pct": record["sim"]["ref_error_pct"],
        }
    if trace:
        measured = dict(record.get("per_layer", {}))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None and trace and failed == 0:
            # A layer this workload never calls: its seconds and counts are 0.
            value = 0
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and len(metrics) == len(wanted) and all(
        math.isfinite(v["value"]) for v in metrics.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    full = dict(record, fingerprint=fingerprint(record.get("threads")),
                setup_samples=[{k: s[k] for k in ("setup_s", "setup_rss_mib")} for s in setups],
                error_rate=failed / attempted, result=result)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1)
    print_summary(name, seed, full, walls)
    return result


def print_summary(name, seed, full, walls):
    result = full["result"]
    print(f"== {name} (seed {seed}): attempted {result['attempted']}, "
          f"failed {result['failed']}, error_rate {full['error_rate']:.4g}")
    for failure in full.get("failures", []):
        print(f"   FAILED {failure}")
    if walls:
        tail = tail_percentile(walls)
        extra = f", p{tail[0]} {tail[1]:.6g} s" if tail else ""
        print(f"   wall per op: median {statistics.median(walls):.6g} s{extra}, n={len(walls)}")
    for k, v in result["metrics"].items():
        print(f"   {k:<28} {v['value']:>16.6g} {v['unit']}")
    for k, v in full.get("layer_seconds", {}).items():
        print(f"   {k:<42} {v:>12.6g} s")
    sim = ", ".join(f"{k}={v}" for k, v in full.get("sim", {}).items())
    print(f"   sim: {sim}")
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in full["fingerprint"].items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    args.seconds = args.seconds or spec["run_seconds"]
    if not args.seconds > 0:
        fail("--seconds must be positive")
    binary = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(spec, binary, n, args.seed, args.seconds, args.trace == 1)
               for n in names}
    final = results[args.workload] if args.workload != "all" else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
