"""Repeat the benchmark over several seeds and summarise the spread.

Usage (from the root of a checkout):

    python3 bench/report.py [--seeds 1-10] [--trace 0|1]

Runs ``bench/run.py`` once per (workload, seed) for every workload of
BENCHMARK.json, one run at a time, for its ``run_seconds``, and
prints for every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median.
With ``--trace 1`` each traced run is paired with an untraced run of the
same seed, the two in alternating order, and the tracing overhead is the
median over the seeds of traced ``trace.cold_s`` over untraced ``cold_s``.
The summary goes to ``bench/results/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def kind_shares(workload, seeds, trace):
    """Each check kind's count and median share of the cold pass, from the
    result files the runs wrote."""
    shares = {}
    for seed in seeds:
        with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
            record = json.load(fh)
        kinds = [kind for kind, _ in gen.generate(workload, seed)]
        for child in record["children"]:
            total = sum(child["cold_check_s"])
            per = {}
            for kind, t in zip(kinds, child["cold_check_s"]):
                per[kind] = per.get(kind, 0.0) + t
            for kind, t in per.items():
                shares.setdefault(kind, []).append(t / total)
    counts = {kind: sum(1 for k, _ in gen.generate(workload, seeds[0]) if k == kind) for kind in shares}
    return {kind: {"count": counts[kind], "cold_share": statistics.median(v)} for kind, v in shares.items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main(argv=None):
    config = load_config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    report = {}
    seconds = config["run_seconds"]
    for workload in (w["name"] for w in config["workloads"]):
        seeds = seeds_of(args.seeds)
        runs, overhead = [], []
        for seed in seeds:
            if not args.trace:
                runs.append(one_run(workload, seed, seconds, 0))
                continue
            pair = {}
            for trace in ((0, 1) if seed % 2 else (1, 0)):
                pair[trace] = one_run(workload, seed, seconds, trace)
            runs.append(pair[1])
            overhead.append(pair[1]["metrics"]["trace.cold_s"]["value"]
                            / pair[0]["metrics"]["cold_s"]["value"])
        entry = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        print(f"\n{workload}: {len(runs)} runs, attempted {entry['attempted']}, "
              f"failed {sum(entry['failed'])}, correct {entry['correct']}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summary(values) if len(values) > 1 else {"median": values[0]}
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["values"] = values
            entry["metrics"][name] = stats
            if len(values) > 1:
                bound = bounds.get(name)
                flag = "" if bound is None else f"  bound {bound:.2f}" + (
                    "  OVER a third" if stats["spread"] > bound / 3 and name != "setup_s" else "")
                print(f"  {name:48s} median {stats['median']:12.5g} {stats['unit']:6s} "
                      f"q1 {stats['q1']:10.5g} q3 {stats['q3']:10.5g} spread {stats['spread']:.3f}{flag}")
        if overhead:
            entry["tracing_overhead"] = statistics.median(overhead)
            print(f"  tracing overhead: traced cold_s / untraced cold_s = {entry['tracing_overhead']:.3f} "
                  f"(median of {[round(r, 3) for r in overhead]})")
        entry["kinds"] = kind_shares(workload, seeds, args.trace)
        print("  kinds: " + ", ".join(f"{k} {v['count']} ({100 * v['cold_share']:.0f}% of cold_s)"
                                      for k, v in entry["kinds"].items()))
        report[workload] = entry
    out = os.path.join(HERE, "results", "report.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
