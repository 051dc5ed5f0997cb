#!/usr/bin/env python3
"""Same-host A/B comparison of two commits on the benchmark.

    python3 perfbench/ab.py <base-commit> <head-commit> [--pairs 10]
        [--workloads sim-pmp,champsim-nopf] [--seconds 10]

Both commits are exported with `git archive` into a temporary directory
(nothing is added to the repository's worktree list), and this
checkout's perfbench/ and BENCHMARK.json are copied over both, so the
two sides run identical benchmark code and settings. Each workload then
runs in --pairs pairs with a fresh seed per pair, alternating which
commit goes first. For every end-to-end metric it prints each side's
median and quartiles, the head's win fraction over the pairs (ties count
for neither side), and the verdict: "unresolved" where the base's own
quartile spread is wider than the metric's bound, otherwise whether the
head's median is within the bound.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export(commit, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run(tree, workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit("%s failed in %s:\n%s" % (" ".join(cmd), tree, p.stderr[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    tmp = tempfile.mkdtemp(prefix="pmp-ab-")
    try:
        trees = {"base": os.path.join(tmp, "base"), "head": os.path.join(tmp, "head")}
        export(args.base, trees["base"])
        export(args.head, trees["head"])
        for wl in workloads:
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                for side in order:
                    runs[side].append(run(trees[side], wl, args.seed + i, seconds))
            report(wl, spec, runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(wl, spec, runs):
    print("== %s (%d pairs)" % (wl, len(runs["base"])))
    for side in ("base", "head"):
        bad = [r for r in runs[side] if not r["correct"]]
        share = sorted({(r["failed"], r["attempted"]) for r in runs[side]})
        print("  %s: %d incorrect runs; failed/attempted %s" % (side, len(bad), share))
    print("  %-18s %-34s %-34s %5s  %s" % ("metric", "base q1/median/q3", "head q1/median/q3", "wins", "verdict"))
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in runs["base"]]
        h = [r["metrics"][name]["value"] for r in runs["head"]]
        bq, hq = quartiles(b), quartiles(h)
        wins = sum(1 for x, y in zip(b, h) if (y < x if lower else y > x))
        spread = (bq[2] - bq[0]) / bq[1] if bq[1] else float("inf")
        change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        worse = change > m["bound"] if lower else -change > m["bound"]
        all_better = all((y < min(b)) if lower else (y > max(b)) for y in h)
        if spread > m["bound"] and not all_better:
            verdict = "unresolved (base spread %.1f%% > bound %.0f%%)" % (100 * spread, 100 * m["bound"])
        elif worse:
            verdict = "WORSE by %.1f%% (bound %.0f%%)" % (100 * abs(change), 100 * m["bound"])
        else:
            verdict = "within bound (%+.1f%%)" % (100 * change)
        fmt = lambda q: "%.4g/%.4g/%.4g" % q
        print("  %-18s %-34s %-34s %2d/%-2d  %s" % (name, fmt(bq), fmt(hq), wins, len(b), verdict))


if __name__ == "__main__":
    main()
