"""Benchmark entry point: run one workload and print its metrics as JSON.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts measured processes (``bench/worker.py``) one after another until S
seconds have passed; each does set-up, a cold pass and a warm pass over the
same seeded checks.  Then sympy computes the residue references in a
process of its own, and every output of every pass is compared with its
reference.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record of the run goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

# a run has 180 s to finish: each process gets what is left of RUN_LIMIT_S
RUN_LIMIT_S = 165
E2E_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
             "check_ms_p50": "ms", "check_ms_p90": "ms", "peak_rss_mb": "MB"}


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CHIRALIS_SEED", None)
    return env


def run_child(cmd, env, root, deadline):
    """Run one process to its end; its last stdout line parsed as JSON."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{cmd[1]} did not finish within the run's {RUN_LIMIT_S} s")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"{cmd[1]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def quantile(values, share):
    """Linear interpolation between order statistics (the inclusive method)."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(children):
    """Medians over the processes of the run.  The percentiles are taken over
    the checks of the cold pass, each at its median over the processes."""
    check_s = [statistics.median(times) for times in zip(*(c["cold_check_s"] for c in children))]
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "cold_s": statistics.median(c["cold_s"] for c in children),
        "warm_s": statistics.median(c["warm_s"] for c in children),
        "check_ms_p50": 1000 * quantile(check_s, 0.5),
        "check_ms_p90": 1000 * quantile(check_s, 0.9),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(children):
    import tracer

    names = children[0]["trace"].keys()
    return {name: {"value": statistics.median(c["trace"][name] for c in children),
                   "unit": tracer.unit_of(name)} for name in names}


def sympy_mismatches(children, refs):
    """One line per output that differs from its sympy reference.  A check
    absent from a process's values raised, and is already a failure."""
    return [f"process {n} {label} #{idx}: {value} != sympy {refs[idx]}"
            for n, child in enumerate(children)
            for label, values in child["sympy_values"].items()
            for idx, value in values.items() if refs[idx] != value]


def git_sha(root):
    """The commit of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def outcome(children, failures, metrics):
    """The result line: any failure, a raised check included, makes it incorrect."""
    return {
        "correct": not failures,
        "attempted": sum(c["attempted"] for c in children),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="chiralis identity-suite benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chiralis", "__init__.py")):
        sys.stderr.write("run from the root of a chiralis checkout: src/chiralis is missing\n")
        return 2
    env = child_env(root)
    worker = os.path.join(HERE, "worker.py")

    children = []
    start = time.time()
    deadline = start + RUN_LIMIT_S
    while not children or time.time() - start < args.seconds:
        cmd = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed)]
        if args.trace:
            cmd.append("--trace")
        t0 = time.time()
        children.append(run_child(cmd + ["--t0", repr(t0)], env, root, deadline))
    measured_s = time.time() - start

    failures = [f for c in children for f in c["failures"]]
    kinds = {kind for kind, _ in gen.generate(args.workload, args.seed)}
    if kinds & set(gen.SYMPY_KINDS):
        refs = run_child([sys.executable, os.path.join(HERE, "sympy_refs.py"),
                          "--workload", args.workload, "--seed", str(args.seed)], env, root, deadline)
        failures += sympy_mismatches(children, refs)

    metrics = per_layer(children) if args.trace else end_to_end(children)
    result = outcome(children, failures, metrics)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "processes": len(children), "measured_s": measured_s,
        "python": platform.python_version(), "backend": children[0]["backend"],
        "git_sha": git_sha(root), "nproc": len(os.sched_getaffinity(0)),
        "failures": failures[:50], "result": result,
        "children": [{k: v for k, v in c.items() if k not in ("sympy_values",)} for c in children],
    }
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in failures[:20]:
        sys.stderr.write(line + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
