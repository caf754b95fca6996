"""Command-line front end: identity suites, correlation values, replays.

Each subcommand builds one payload dict and hands it to ``_emit``, which
prints it and derives the exit code from its "passed" entry; commute-check
runs the trial function of its theory in one shared loop.  Every numeric
output is an exact scalar string; ``--decimal K`` appends a clearly-marked
decimal rendering of the value that npoint, modes and pair report (the
other subcommands ignore it).  Randomized suites take their seed from
``--seed`` (overridden by the CHIRALIS_SEED environment variable) and are
byte-stable for a fixed seed and configuration.  JSON inputs are read as
canonical states (``chiralis.serialize``).

Exit codes: 0 all checks passed, 1 an identity failed, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from fractions import Fraction

from .exactnum import GaussRational, RatFunc, QI_ONE, UnsupportedDenominatorError
from .sampling import rand_distinct_scalars, rand_pole_state, rand_scalar
from .serialize import (
    current_state_to_json,
    lattice_state_to_json,
    scalar_from_str,
    scalar_to_str,
    state_to_json,
)
from .states import DomainError, SymState, require_distinct, vacuum

__all__ = ["main", "run"]


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _parsing(what: str):
    """Report what malformed JSON input raises as a ConfigError about `what`."""
    try:
        yield
    except ConfigError:
        raise
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"malformed {what}: {err}") from err


def _load_json(path: str, what: str):
    """The JSON document in the file at path; a file that cannot be read as
    UTF-8 text (missing, a directory, undecodable) is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {what} {path!r}: {err}") from err


def _parse_points(text: str):
    if text.startswith("@"):
        items = _load_json(text[1:], "point list")
    else:
        items = [p for p in text.split(",") if p]
    with _parsing(f"point list {text!r}"):
        return [scalar_from_str(p) for p in items]


def _decimal(value, digits: int) -> str:
    value = GaussRational.coerce(value)
    re, im = (float(Fraction(str(x))) for x in (value.re, value.im))
    if im:
        return f"approx {re:.{digits}f}{im:+.{digits}f}i"
    return f"approx {re:.{digits}f}"


def _emit(args, payload: dict) -> int:
    """Print the payload; the exit code is 1 when it says it did not pass."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _emit_text(payload)
    return 0 if payload.get("passed", True) else 1


def _emit_text(payload, indent=""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                print(f"{indent}-")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}- {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _npoint_values(args, points):
    """(identity, value, value by the other route) of the n-point function."""
    if args.theory == "boson":
        from .boson import npoint_operator, npoint_wick

        return "pair-sum-vs-operator-composition", npoint_wick(points), npoint_operator(points)
    if args.theory == "fermion":
        from .fermion import fermion_npoint, fermion_npoint_operator

        return ("signed-pair-sum-vs-operator-composition", fermion_npoint(points),
                fermion_npoint_operator(points))
    if args.theory == "bc-composite":
        from .boson import npoint_wick
        from .fermion import bc_vacuum, composite_b_apply

        state = bc_vacuum()
        for z in reversed(points):
            state = composite_b_apply(z, state)
        return "composite-vs-boson-pair-sum", state.vacuum_coefficient(), npoint_wick(points)
    from .current import lie_algebra_by_name, npoint_current, npoint_current_operator

    algebra = lie_algebra_by_name(args.algebra)
    comps = (args.components or "").split(",")
    if len(comps) != len(points):
        raise ConfigError("--components must list one basis label per point")
    for label in comps:
        if label not in algebra.labels:
            raise ConfigError(f"unknown basis label {label!r}")
    return ("correlation-recursion-vs-operator-composition", npoint_current(algebra, comps, points),
            npoint_current_operator(algebra, comps, points))


def cmd_npoint(args) -> int:
    points = _parse_points(args.points)
    require_distinct(points)
    identity, value, other = _npoint_values(args, points)
    payload = {
        "theory": args.theory,
        "points": [scalar_to_str(p) for p in points],
        "identity": identity,
        "value": scalar_to_str(value),
        "passed": bool(value == other),
    }
    if args.decimal:
        payload["decimal"] = _decimal(value, args.decimal)
    if args.format == "json":
        return _emit(args, payload)
    print(payload["value"])
    if args.decimal:
        print(payload["decimal"])
    return 0 if payload["passed"] else 1


def _locality_trial(args):
    """The commute-check trial of args.theory: rng -> (record fields, the two
    points, passed, witness thunk), or None for a sample that hit a pole."""
    if args.theory == "boson":
        from .boson import b_apply

        def trial(rng):
            pool = rand_distinct_scalars(rng, 2, span=4)
            s = rand_pole_state(rng, pool, 3)
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                return None
            ok = b_apply(z1, b_apply(z2, s)) == b_apply(z2, b_apply(z1, s))
            return {"identity": "field-locality"}, (z1, z2), ok, lambda: state_to_json(s)
    elif args.theory == "current":
        from .current import j_apply, lie_algebra_by_name, pbw_normalize

        algebra = lie_algebra_by_name(args.algebra)

        def trial(rng):
            pool = rand_distinct_scalars(rng, 2, span=3)
            word = tuple(
                (rng.randrange(algebra.dim), rng.choice(pool), rng.randint(1, 2))
                for _ in range(rng.randint(0, 2))
            )
            s = pbw_normalize(algebra, word, (), rand_scalar(rng))
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                return None
            va, vb = (algebra.labels[rng.randrange(algebra.dim)] for _ in range(2))
            lhs = j_apply(algebra, va, z1, j_apply(algebra, vb, z2, s))
            ok = lhs == j_apply(algebra, vb, z2, j_apply(algebra, va, z1, s))
            return ({"identity": "current-locality", "components": [va, vb]}, (z1, z2), ok,
                    lambda: current_state_to_json(s))
    elif args.theory == "fermion":
        from .fermion import fermion_vacuum, psi_apply

        def trial(rng):
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            sites = [z for z in rand_distinct_scalars(rng, 3, span=4) if (z - z1) and (z - z2)]
            s = psi_apply(rng.choice(sites), fermion_vacuum())
            ok = (psi_apply(z1, psi_apply(z2, s)) + psi_apply(z2, psi_apply(z1, s))).is_zero()
            return {"identity": "fermion-anticommutator"}, (z1, z2), ok, lambda: state_to_json(s)
    else:
        from .lattice import LatticeTheory, SectionClass

        if args.N < 1:
            raise ConfigError("--N takes a positive integer")
        th = LatticeTheory(args.N)

        def trial(rng):
            z1, z2 = rand_distinct_scalars(rng, 2, span=5)
            lam = rng.choice((-1, 1, 2))
            sec = SectionClass([(rand_scalar(rng, span=2), rng.choice((-1, 1)))])
            if sec.multiplicity(z1) or sec.multiplicity(z2):
                return None
            s = th.vacuum(sec)
            ok = th.j(z1, th.vertex(lam, z2, s)) == th.vertex(lam, z2, th.j(z1, s))
            return {"identity": "current-vs-vertex-commutator"}, (z1, z2), ok, lambda: {
                "section": [[scalar_to_str(c), int(m)] for c, m in sec.roots],
                "lambda": lam,
                "vacuum": lattice_state_to_json(s),
            }
    return trial


def cmd_commute_check(args) -> int:
    if args.samples < 1:
        raise ConfigError("--samples takes a positive integer")
    trial = _locality_trial(args)
    rng = random.Random(args.seed)
    checks = []
    for _ in range(args.samples):
        result = trial(rng)
        if result is not None:
            fields, points, ok, witness = result
            checks.append({**fields, "points": [scalar_to_str(z) for z in points],
                           "passed": ok, "witness": None if ok else witness()})
    if not checks:
        raise ConfigError("every sample collided with a pole and was skipped, so nothing was checked")
    return _emit(args, {"command": "commute-check", "theory": args.theory, "seed": args.seed,
                        "checks": checks, "passed": all(c["passed"] for c in checks)})


def cmd_ope(args) -> int:
    from .boson import ope_extract

    names = args.fields.split(",")
    if len(names) != 2 or any(n not in ("e", "i", "b", "T") for n in names):
        raise ConfigError("--fields takes two of e,i,b,T separated by a comma")
    with _parsing("--point"):
        z = scalar_from_str(args.point)
    rng = random.Random(args.seed)
    if args.on_vacuum:
        state = vacuum()
    else:
        pool = [p for p in rand_distinct_scalars(rng, 3, span=4) if (p - z)]
        state = rand_pole_state(rng, pool, 2)
    expansion = ope_extract(names[0], names[1], z, state, args.order)
    payload = {
        "command": "ope",
        "fields": names,
        "point": scalar_to_str(z),
        "orders": {str(k): state_to_json(expansion.coefficient(k)) for k in sorted(expansion.buckets)},
    }
    return _emit(args, payload)


def cmd_gram(args) -> int:
    from .pairing import _gram_verdict, gram_matrix

    if args.degree < 0:
        raise ConfigError("--degree takes a nonnegative integer")
    points = _parse_points(args.points)
    labels, matrix = gram_matrix(points, args.degree)
    minors, hermitian, positive = _gram_verdict(matrix)
    payload = {
        "command": "gram",
        "points": [scalar_to_str(p) for p in points],
        "degree": args.degree,
        "labels": [list(l) for l in labels],
        "matrix": [[scalar_to_str(v) for v in row] for row in matrix],
        "leading_minors": [scalar_to_str(m) for m in minors],
        "hermitian": hermitian,
        "positive": positive,
        "passed": hermitian and positive,
    }
    return _emit(args, payload)


def cmd_axioms(args) -> int:
    from .vertexalg import axiom_suite

    if args.degree < 0:
        raise ConfigError("--degree takes a nonnegative integer")
    if args.samples < 1:
        raise ConfigError("--samples takes a positive integer")
    report = axiom_suite(args.structure, args.seed, degree=args.degree, samples=args.samples)
    payload = {
        "command": "axioms",
        "structure": args.structure,
        "seed": args.seed,
        "degree": args.degree,
        "samples": args.samples,
        "identities": report,
        "passed": all(entry["passed"] for entry in report.values()),
    }
    return _emit(args, payload)


def cmd_modes(args) -> int:
    try:
        l, m = (int(x) for x in args.bracket.split(","))
    except ValueError:
        raise ConfigError("--bracket takes two integers like 2,-2")
    payload = {"command": "modes", "algebra": args.algebra, "bracket": [l, m]}
    if args.algebra == "virasoro":
        from .symmetry import virasoro_bracket_check

        if abs(l) > 5 or abs(m) > 5:
            raise ConfigError("bracket indices limited to |n| <= 5")
        central = virasoro_bracket_check(l, m)
        payload.update(operator=f"{l - m}*L_{l + m}", identity="virasoro-bracket-central")
    elif args.algebra == "heisenberg":
        from .symmetry import heis_commutator_check

        if l == 0 or m == 0:
            raise ConfigError("oscillator modes are nonzero integers")
        u = RatFunc.variable(QI_ONE)
        central = heis_commutator_check(u ** l if l > 0 else 1 / u ** (-l),
                                        u ** m if m > 0 else 1 / u ** (-m), 0)
        payload.update(operator="0", identity="oscillator-bracket-central")
    else:
        from .current import affine_bracket_check, sl2_algebra

        algebra = sl2_algebra()
        comps = (args.components or "e,f").split(",")
        if len(comps) != 2 or any(label not in algebra.labels for label in comps):
            raise ConfigError("--components takes two basis labels of sl2")
        central = affine_bracket_check(algebra, comps[0], l, comps[1], m)
        br = algebra.bracket(algebra.basis_element(comps[0]), algebra.basis_element(comps[1]))
        op = " + ".join(f"({scalar_to_str(c)})*j[{algebra.labels[k]}]_{l + m}" for k, c in br.items())
        payload.update(components=comps, operator=op or "0", identity="loop-bracket-central")
    payload["central"] = scalar_to_str(central)
    if args.decimal:
        payload["decimal"] = _decimal(central, args.decimal)
    return _emit(args, payload)


def cmd_lattice(args) -> int:
    from .lattice import LatticeTheory, SectionClass, du_power_balance

    if args.N < 1:
        raise ConfigError("--N takes a positive integer")
    th = LatticeTheory(args.N)
    script = _load_json(args.script, "lattice script")
    steps = []
    with _parsing("lattice script"):
        roots = [(scalar_from_str(c), int(m)) for c, m in script.get("section", [])]
        for step in script.get("ops", []):
            op = step["op"]
            if op not in ("epsilon", "iota", "j", "flat_plus", "flat_minus", "vertex"):
                raise ConfigError(f"unknown lattice op {op!r}")
            lam = int(step["lam"]) if op in ("flat_plus", "flat_minus", "vertex") else None
            steps.append((op, scalar_from_str(step["z"]), lam))
    state = th.vacuum(SectionClass(roots))
    ledger_ok = True
    for op, z, lam in steps:
        if op in ("epsilon", "iota", "j"):
            state = getattr(th, op)(z, state)
        else:
            grades_before = {key[1].grade: key[2] for key in state.terms}
            state = getattr(th, op)(lam, z, state)
            if op in ("flat_plus", "vertex"):
                for _, section, tdu, _ in state.terms:
                    old = section.grade - lam
                    if old in grades_before:
                        expected = grades_before[old] + 2 * du_power_balance(args.N, old, lam)
                        ledger_ok &= tdu == expected + (args.N * lam if op == "vertex" else 0)
    rng = random.Random(args.seed)
    sign_table = []
    base = th.vacuum(SectionClass())
    for l1 in range(-2, 3):
        for l2 in range(-2, 3):
            if not l1 or not l2:
                continue
            z1, z2 = rand_distinct_scalars(rng, 2, span=4)
            sign_table.append(
                {
                    "weights": [l1, l2],
                    "sign": -1 if (args.N * l1 * l2) % 2 else 1,
                    "passed": th.sign_rule_check(l1, l2, z1, z2, base),
                }
            )
    payload = {
        "command": "lattice",
        "N": args.N,
        "state": lattice_state_to_json(state),
        "du_ledger_passed": ledger_ok,
        "sign_table": sign_table,
        "passed": ledger_ok and all(entry["passed"] for entry in sign_table),
    }
    return _emit(args, payload)


def cmd_pair(args) -> int:
    from .current import current_pair, lie_algebra_by_name
    from .serialize import current_state_from_json, state_from_json

    algebra = lie_algebra_by_name(args.algebra)
    data = _load_json(args.file, "pair file")
    parse = {"boson": lambda obj: state_from_json(obj, SymState),
             "current": lambda obj: current_state_from_json(obj, algebra)}[args.theory]
    with _parsing("pair file"):
        dual, state = parse(data["dual"]), parse(data["state"])
    payload = {"command": "pair", "theory": args.theory}
    if args.theory == "boson":
        from .pairing import pair_P

        value = pair_P(dual, state)
        payload.update(identity="peeling-order-independence",
                       passed=pair_P(dual, state, peel_last=True) == value)
    else:
        value = current_pair(algebra, dual, state)
        payload.update(algebra=args.algebra, passed=True)
    payload["value"] = scalar_to_str(value)
    if args.decimal:
        payload["decimal"] = _decimal(value, args.decimal)
    return _emit(args, payload)


def cmd_replay(args) -> int:
    from .boson import T_apply, b_apply, e_apply, i_apply
    from .exactnum import INFINITY, Point
    from .serialize import ratfunc_from_json, state_from_json
    from .symmetry import HeisenbergOp, L_mode, heis_apply, mode_b

    script = _load_json(args.script, "replay script")
    steps = []
    with _parsing("replay script"):
        state = state_from_json(script["state"], SymState) if "state" in script else vacuum()
        for step in script.get("ops", []):
            op = step["op"]
            if op in ("e", "i", "b", "T"):
                arg = scalar_from_str(step["z"])
            elif op == "mode":
                arg = int(step["l"])
                if not arg:
                    raise ConfigError("oscillator modes are nonzero integers")
            elif op == "energy-mode":
                arg = int(step["n"])
            elif op == "testfn":
                site = step.get("site", "0")
                site = INFINITY if site == "inf" else Point(scalar_from_str(site))
                arg = HeisenbergOp(ratfunc_from_json(step["phi"]), site)
            else:
                raise ConfigError(f"unknown replay op {op!r}")
            steps.append((op, arg))
    apply = {"e": e_apply, "i": i_apply, "b": b_apply, "T": T_apply,
             "mode": mode_b, "energy-mode": L_mode, "testfn": heis_apply}
    for op, arg in steps:
        state = apply[op](arg, state)
    payload = {
        "command": "replay",
        "ops": [op for op, _ in steps],
        "state": state_to_json(state),
    }
    return _emit(args, payload)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralis",
        description="Exact rational-function engine for chiral field theories",
    )
    parser.add_argument("--format", choices=("text", "json"), default="json")
    parser.add_argument("--decimal", type=int, default=0, metavar="K",
                        help="append a K-digit decimal rendering (approximate) of the value "
                             "that npoint, modes and pair report; ignored elsewhere")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("npoint", help="correlation function values")
    p.add_argument("--theory", required=True,
                   choices=("boson", "fermion", "bc-composite", "current"))
    p.add_argument("--points", required=True)
    p.add_argument("--algebra", default="sl2", choices=("sl2", "abelian"))
    p.add_argument("--components", default=None)
    p.set_defaults(fn=cmd_npoint)

    p = sub.add_parser("commute-check", help="locality identity suites")
    p.add_argument("--theory", required=True,
                   choices=("boson", "current", "fermion", "lattice"))
    p.add_argument("--algebra", default="sl2", choices=("sl2", "abelian"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--N", type=int, default=1)
    p.set_defaults(fn=cmd_commute_check)

    p = sub.add_parser("ope", help="operator product expansion data")
    p.add_argument("--fields", required=True, help="two of e,i,b,T")
    p.add_argument("--point", default="1")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--on-vacuum", action="store_true")
    p.set_defaults(fn=cmd_ope)

    p = sub.add_parser("gram", help="reflection Gram matrices and minors")
    p.add_argument("--points", required=True, help="comma list or @file.json")
    p.add_argument("--degree", type=int, default=1)
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("axioms", help="vertex structure identity suite")
    p.add_argument("--structure", required=True, choices=("comm", "prime"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("modes", help="measured mode-bracket decompositions")
    p.add_argument("--algebra", required=True,
                   choices=("heisenberg", "virasoro", "current-sl2"))
    p.add_argument("--bracket", required=True, help="l,m")
    p.add_argument("--components", default=None)
    p.set_defaults(fn=cmd_modes)

    p = sub.add_parser("lattice", help="replay lattice scripts; sign table")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("pair", help="pairings of serialized states")
    p.add_argument("--theory", required=True, choices=("boson", "current"))
    p.add_argument("--algebra", default="sl2", choices=("sl2", "abelian"))
    p.add_argument("--file", required=True)
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("replay", help="replay an operator script on states")
    p.add_argument("--script", required=True)
    p.set_defaults(fn=cmd_replay)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    seed_env = os.environ.get("CHIRALIS_SEED")
    if seed_env is not None and hasattr(args, "seed"):
        try:
            args.seed = int(seed_env)
        except ValueError:
            print("CHIRALIS_SEED must be an integer", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except (ConfigError, DomainError, json.JSONDecodeError, UnsupportedDenominatorError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
