#!/usr/bin/env python3
"""Same-machine A/B comparison of two revisions with identical benchmark code.

    python3 perfbench/ab.py --parent HEAD~1                  # parent vs working tree
    python3 perfbench/ab.py --parent A --change B --pairs 10 --workloads serve-stream

Each revision given is exported with `git archive` into its own working
tree under `.bench_ab` at the repository root, and this checkout's
`BENCHMARK.json` and `perfbench/` are copied over it, so both sides run
the same benchmark code and settings. Without `--change`
the change side is this working tree. Each side builds into its own
target directory.

The script then runs `--pairs` parent/change pairs per workload, pair i
on seed i (the same on both sides), alternating which side runs first;
each run lasts `run_seconds` of BENCHMARK.json. For each workload and
end-to-end metric it reports each side's median and quartiles, the
change's win fraction (ties count for neither side), and a verdict:

* failed: the change failed more operations than the parent;
* gain: the change wins at least 9 of 10 pairs and the medians differ by
  more than the distance between the parent's quartiles;
* regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* unresolved: the parent's own spread is wider than the bound and not every
  change run beats every parent run;
* within bound: none of the above.

It also reports in how many pairs the two sides' simulated results (the
report digest and simulated counts) were identical: a change meant only to
speed up the simulator must keep them all identical.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import io

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_ab")


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=False)
    if done.returncode != 0:
        sys.exit(f"ab: git {' '.join(args)} failed: {done.stderr.decode().strip()}")
    return done.stdout


def export(rev):
    """A working tree of `rev` carrying this checkout's benchmark code."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = os.path.join(WORKDIR, sha[:12])
    if not os.path.isdir(tree):
        staging = tree + ".partial"
        shutil.rmtree(staging, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
            tar.extractall(staging, filter="data")
        os.rename(staging, tree)
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
    return tree, sha[:12]


def run(tree, workload, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"ab: {' '.join(cmd)} in {tree} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(tree, ".bench_out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as f:
        result["sim"] = json.load(f).get("sim", {})
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, parent, change, more_failures):
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    win_fraction = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    every_run_better = all(better(c, p) for c in change for p in parent)
    if more_failures:
        return win_fraction, "failed"
    if win_fraction >= 0.9 and better(cm, pm) and abs(cm - pm) > (p3 - p1):
        return win_fraction, "gain"
    if worse_by > metric["bound"]:
        return win_fraction, "regression"
    if pm and (p3 - p1) / abs(pm) > metric["bound"] and not every_run_better:
        return win_fraction, "unresolved"
    return win_fraction, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", help="change revision (default: this working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", help="comma list (default: every workload)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    os.makedirs(WORKDIR, exist_ok=True)
    sides = {"parent": export(args.parent)}
    sides["change"] = export(args.change) if args.change else (ROOT, "worktree")

    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                r = run(sides[side][0], w, i + 1)
                results[w][side].append(r)
                print(f"pair {i + 1}/{args.pairs} {w} {side}: "
                      f"wall_s {r['metrics']['wall_s']['value']:.4g}", file=sys.stderr)

    report = {"parent": sides["parent"][1], "change": sides["change"][1],
              "pairs": args.pairs, "seconds": spec["run_seconds"], "workloads": {}}
    for w in workloads:
        parent, change = results[w]["parent"], results[w]["change"]
        same_sim = sum(p["sim"] == c["sim"] for p, c in zip(parent, change))
        failed = {side: sum(r["failed"] for r in results[w][side])
                  for side in ("parent", "change")}
        rows = {}
        print(f"\n== {w}: {args.pairs} pairs, simulated results identical in "
              f"{same_sim}/{args.pairs}, failed ops parent {failed['parent']}, "
              f"change {failed['change']}")
        print(f"   {'metric':<18}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}"
              f"{'delta':>9}{'wins':>6}  verdict")
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in parent]
            cv = [r["metrics"][m["name"]]["value"] for r in change]
            win_fraction, outcome = verdict(m, pv, cv, failed["change"] > failed["parent"])
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            rows[m["name"]] = {"unit": m["unit"], "parent": pq, "change": cq,
                               "delta": delta, "win_fraction": win_fraction,
                               "verdict": outcome}
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"   {m['name']:<18}{fmt(pq):>34}{fmt(cq):>34}{delta:>+9.1%}"
                  f"{win_fraction:>6.0%}  {outcome}")
        report["workloads"][w] = {"same_sim": same_sim, "failed": failed, "metrics": rows}
    out = os.path.join(WORKDIR, f"ab-{sides['parent'][1]}-{sides['change'][1]}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
