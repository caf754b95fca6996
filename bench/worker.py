"""One measured process: set-up, a cold pass, a warm pass, then verification.

Usage: python3 bench/worker.py --workload NAME --seed N --t0 T [--trace]

Run by ``bench/run.py`` from the root of a checkout, with ``src`` and
``bench`` on PYTHONPATH.  ``--t0`` is the wall-clock time at which the
parent started this process, so ``setup_s`` covers interpreter start-up,
the import of chiralis, building the Lie algebra and generating the inputs.
Prints one JSON object as its last line.

Times are reported in reference seconds.  The host's speed drifts by a
third and more, in bursts of seconds and for minutes at a time, and the
program slows with it.  A probe, a fixed piece of plain-Python Fraction
work that does not touch chiralis, runs before the first check of a pass
and after each check; a check's measured seconds are multiplied by
PROBE_REF_S over the mean of the two probes around it.  Set-up is scaled
by the probes run just before and just after it.  The probes are outside
every timed interval, and the wall-clock seconds are recorded too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

PROBE_TERMS = 200
# the probe's typical time on the reference host (2-core container, Python 3.11.7)
PROBE_REF_S = 0.0009


def probe():
    """Seconds taken by a fixed piece of plain-Python Fraction work that does
    not touch chiralis: the host's speed at this moment.  The collector is
    off meanwhile, so the size of the program's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, PROBE_TERMS + 1):
        total += Fraction(1, k)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def timed_pass(checks, prepared, ctx, run):
    """Run every check once, with a probe before the first check and after
    each; per-check seconds, the probe seconds and (ok, output) pairs."""
    clock = time.perf_counter
    seconds, probes, results = [], [probe()], []
    for (kind, _), x in zip(checks, prepared):
        start = clock()
        try:
            results.append((True, run[kind](x, ctx)))
        except Exception as exc:  # a raising check is counted as failed
            results.append((False, exc))
        seconds.append(clock() - start)
        probes.append(probe())
    return seconds, probes, results


def reference_seconds(seconds, probes):
    """Each check's seconds at the reference host speed, from the probes
    taken just before and just after it."""
    return [t * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, t in enumerate(seconds)]


def verify_pass(checks, prepared, results, ctx, kinds, label):
    """Failures (one line each) and the outputs the parent compares with sympy."""
    from checks import q
    from gen import SYMPY_KINDS

    failures, for_parent = [], {}
    for i, ((kind, p), x, (ok, out)) in enumerate(zip(checks, prepared, results)):
        if not ok:
            failures.append(f"{label} #{i} {kind}: raised {out!r}")
        elif kind in SYMPY_KINDS:
            re, im = q(out)
            for_parent[i] = [str(re), str(im)]
        else:
            try:
                good = kinds[kind][2](p, x, out, ctx)
            except Exception:  # a verifier that raises marks the output wrong
                good = False
            if not good:
                failures.append(f"{label} #{i} {kind}: wrong output")
    return failures, for_parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    before = [probe() for _ in range(5)]
    for layer in ("boson", "current", "fermion", "lattice", "pairing", "symmetry", "vertexalg"):
        importlib.import_module(f"chiralis.{layer}")
    import chiralis.exactnum
    import checks
    import gen

    kinds = checks.KINDS
    ctx = checks.Context(args.workload)
    generated = gen.generate(args.workload, args.seed)
    prepared = [kinds[kind][0](p, ctx) for kind, p in generated]
    run = {kind: fns[1] for kind, fns in kinds.items()}

    after = [probe() for _ in range(5)]
    setup_wall_s = time.time() - args.t0 - sum(after) - sum(before)
    setup_s = setup_wall_s * 2 * PROBE_REF_S / (statistics.median(before) + statistics.median(after))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    cold_wall, cold_probes, cold = timed_pass(generated, prepared, ctx, run)
    cold_checks = reference_seconds(cold_wall, cold_probes)
    if tracer:
        tracer.mark("cold")
    warm_wall, warm_probes, warm = timed_pass(generated, prepared, ctx, run)
    warm_checks = reference_seconds(warm_wall, warm_probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = None
    if tracer:
        tracer.mark("warm")
        tracer.uninstall()
        trace = tracer.report()
        trace["trace.cold_s"] = sum(cold_checks)

    failures, sympy_values = [], {}
    for label, results in (("cold", cold), ("warm", warm)):
        bad, values = verify_pass(generated, prepared, results, ctx, kinds, label)
        failures += bad
        sympy_values[label] = values
    if "sympy" in sys.modules:
        raise RuntimeError("the measured process must not import sympy")

    print(json.dumps({
        "setup_s": setup_s,
        "cold_s": sum(cold_checks),
        "warm_s": sum(warm_checks),
        "cold_check_s": cold_checks,
        "setup_wall_s": setup_wall_s,
        "cold_wall_s": sum(cold_wall),
        "warm_wall_s": sum(warm_wall),
        "probe_s": statistics.median(before + after + cold_probes + warm_probes),
        "peak_rss_mb": peak_rss_mb,
        "attempted": 2 * len(generated),
        "failures": failures,
        "sympy_values": sympy_values,
        "backend": f"{chiralis.exactnum.RATIONAL.__module__}.{chiralis.exactnum.RATIONAL.__name__}",
        "trace": trace,
    }))


if __name__ == "__main__":
    main()
