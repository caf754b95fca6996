"""Command-line front end: identity suites, correlation values, replays.

Every numeric output is an exact scalar string; ``--decimal K`` appends a
clearly-marked decimal rendering.  Randomized suites take their seed from
``--seed`` (overridden by the CHIRALIS_SEED environment variable) and are
byte-stable for a fixed seed and configuration.

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
from .sampling import rand_distinct_scalars, rand_scalar
from .serialize import (
    current_state_to_json,
    lattice_state_to_json,
    scalar_from_str,
    scalar_to_str,
    state_to_json,
)
from .states import DomainError, SymState, monomial_state, vacuum

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


def _parse_points(text: str):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            items = json.load(fh)
    else:
        items = [p for p in text.split(",") if p]
    with _parsing(f"point list {text!r}"):
        return [scalar_from_str(p) for p in items]


def _decimal(value: GaussRational, digits: int) -> str:
    re = float(Fraction(str(value.re)))
    im = float(Fraction(str(value.im)))
    if im:
        return f"approx {re:.{digits}f}{im:+.{digits}f}i"
    return f"approx {re:.{digits}f}"


def _emit(args, payload: dict, all_passed: bool) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _emit_text(payload)
    return 0 if all_passed else 1


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
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}- {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_npoint(args) -> int:
    points = _parse_points(args.points)
    if len(points) != len(set((p.re, p.im) for p in points)):
        raise ConfigError("points must be pairwise distinct")
    payload = {"theory": args.theory, "points": [scalar_to_str(p) for p in points]}
    if args.theory == "boson":
        from .boson import npoint_operator, npoint_wick

        value = npoint_wick(points)
        agreed = value == npoint_operator(points)
        payload["identity"] = "pair-sum-vs-operator-composition"
    elif args.theory == "fermion":
        from .fermion import fermion_npoint, fermion_npoint_operator

        value = fermion_npoint(points)
        agreed = value == fermion_npoint_operator(points)
        payload["identity"] = "signed-pair-sum-vs-operator-composition"
    elif args.theory == "bc-composite":
        from .fermion import bc_vacuum, composite_b_apply

        state = bc_vacuum()
        for z in reversed(points):
            state = composite_b_apply(z, state)
        value = state.vacuum_coefficient()
        from .boson import npoint_wick

        agreed = value == npoint_wick(points)
        payload["identity"] = "composite-vs-boson-pair-sum"
    elif args.theory == "current":
        from .current import (
            lie_algebra_by_name,
            npoint_current,
            npoint_current_operator,
        )

        algebra = lie_algebra_by_name(args.algebra)
        comps = (args.components or "").split(",")
        if len(comps) != len(points):
            raise ConfigError("--components must list one basis label per point")
        for label in comps:
            if label not in algebra.labels:
                raise ConfigError(f"unknown basis label {label!r}")
        value = npoint_current(algebra, comps, points)
        agreed = value == npoint_current_operator(algebra, comps, points)
        payload["identity"] = "correlation-recursion-vs-operator-composition"
    else:
        raise ConfigError(f"unknown theory {args.theory!r}")
    payload["value"] = scalar_to_str(value)
    payload["passed"] = bool(agreed)
    if args.decimal:
        payload["decimal"] = _decimal(value, args.decimal)
    if args.format == "text":
        print(scalar_to_str(value))
        if args.decimal:
            print(payload["decimal"])
        return 0 if agreed else 1
    return _emit(args, payload, agreed)


def _rand_boson_state(rng, pool, max_degree=3):
    out = SymState()
    for _ in range(rng.randint(1, 2)):
        atoms = [
            ("pole", rng.choice(pool), rng.randint(2, 3))
            for _ in range(rng.randint(0, max_degree))
        ]
        out = out + monomial_state(atoms, rand_scalar(rng))
    return out if out else vacuum()


def cmd_commute_check(args) -> int:
    if args.samples < 1:
        raise ConfigError("--samples takes a positive integer")
    rng = random.Random(args.seed)
    results = []
    theory = args.theory
    if theory == "boson":
        from .boson import b_apply

        for _ in range(args.samples):
            pool = rand_distinct_scalars(rng, 2, span=4)
            s = _rand_boson_state(rng, pool)
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                continue
            ok = b_apply(z1, b_apply(z2, s)) == b_apply(z2, b_apply(z1, s))
            results.append(
                {
                    "identity": "field-locality",
                    "points": [scalar_to_str(z1), scalar_to_str(z2)],
                    "passed": ok,
                    "witness": None if ok else state_to_json(s),
                }
            )
    elif theory == "current":
        from .current import j_apply, lie_algebra_by_name, pbw_normalize

        algebra = lie_algebra_by_name(args.algebra)
        for _ in range(args.samples):
            pool = rand_distinct_scalars(rng, 2, span=3)
            word = tuple(
                (rng.randrange(algebra.dim), rng.choice(pool), rng.randint(1, 2))
                for _ in range(rng.randint(0, 2))
            )
            s = pbw_normalize(algebra, word, (), rand_scalar(rng))
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                continue
            va = algebra.labels[rng.randrange(algebra.dim)]
            vb = algebra.labels[rng.randrange(algebra.dim)]
            lhs = j_apply(algebra, va, z1, j_apply(algebra, vb, z2, s))
            rhs = j_apply(algebra, vb, z2, j_apply(algebra, va, z1, s))
            ok = lhs == rhs
            results.append(
                {
                    "identity": "current-locality",
                    "components": [va, vb],
                    "points": [scalar_to_str(z1), scalar_to_str(z2)],
                    "passed": ok,
                    "witness": None if ok else current_state_to_json(s),
                }
            )
    elif theory == "fermion":
        from .fermion import fermion_vacuum, psi_apply

        for _ in range(args.samples):
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            s = psi_apply(rng.choice([z for z in rand_distinct_scalars(rng, 3, span=4) if (z - z1) and (z - z2)]), fermion_vacuum())
            ok = (psi_apply(z1, psi_apply(z2, s)) + psi_apply(z2, psi_apply(z1, s))).is_zero()
            results.append(
                {
                    "identity": "fermion-anticommutator",
                    "points": [scalar_to_str(z1), scalar_to_str(z2)],
                    "passed": ok,
                    "witness": None if ok else state_to_json(s),
                }
            )
    elif theory == "lattice":
        from .lattice import LatticeTheory, SectionClass

        if args.N < 1:
            raise ConfigError("--N takes a positive integer")
        th = LatticeTheory(args.N)
        for _ in range(args.samples):
            z1, z2 = rand_distinct_scalars(rng, 2, span=5)
            lam = rng.choice((-1, 1, 2))
            sec = SectionClass([(rand_scalar(rng, span=2), rng.choice((-1, 1)))])
            if sec.multiplicity(z1) or sec.multiplicity(z2):
                continue
            s = th.vacuum(sec)
            ok = th.j(z1, th.vertex(lam, z2, s)) == th.vertex(lam, z2, th.j(z1, s))
            results.append(
                {
                    "identity": "current-vs-vertex-commutator",
                    "points": [scalar_to_str(z1), scalar_to_str(z2)],
                    "passed": ok,
                    "witness": None if ok else {
                        "section": [[scalar_to_str(c), int(m)] for c, m in sec.roots],
                        "lambda": lam,
                        "vacuum": lattice_state_to_json(s),
                    },
                }
            )
    else:
        raise ConfigError(f"unknown theory {theory!r}")
    all_passed = all(r["passed"] for r in results)
    payload = {
        "command": "commute-check",
        "theory": theory,
        "seed": args.seed,
        "checks": results,
        "passed": all_passed,
    }
    return _emit(args, payload, all_passed)


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
        state = _rand_boson_state(rng, pool, max_degree=2)
    expansion = ope_extract(names[0], names[1], z, state, args.order)
    payload = {
        "command": "ope",
        "fields": names,
        "point": scalar_to_str(z),
        "orders": {
            str(k): state_to_json(expansion.coefficient(k))
            for k in sorted(expansion.buckets)
        },
    }
    return _emit(args, payload, True)


def cmd_gram(args) -> int:
    from .pairing import gram_matrix, leading_minors

    if args.degree < 0:
        raise ConfigError("--degree takes a nonnegative integer")
    points = _parse_points(args.points)
    labels, matrix = gram_matrix(points, args.degree)
    minors = leading_minors(matrix)
    hermitian = all(
        matrix[i][j] == matrix[j][i].conjugate()
        for i in range(len(matrix))
        for j in range(len(matrix))
    )
    positive = all(m.is_rational() and m.re > 0 for m in minors)
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
    return _emit(args, payload, hermitian and positive)


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
        "identities": {
            name: {
                "passed": entry["passed"],
                "checked": entry["checked"],
                "witness": entry["witness"],
            }
            for name, entry in report.items()
        },
    }
    all_passed = all(entry["passed"] for entry in report.values())
    payload["passed"] = all_passed
    return _emit(args, payload, all_passed)


def cmd_modes(args) -> int:
    try:
        l, m = (int(x) for x in args.bracket.split(","))
    except ValueError:
        raise ConfigError("--bracket takes two integers like 2,-2")
    if args.algebra == "virasoro":
        from .symmetry import virasoro_bracket_check

        if abs(l) > 5 or abs(m) > 5:
            raise ConfigError("bracket indices limited to |n| <= 5")
        central = virasoro_bracket_check(l, m)
        payload = {
            "command": "modes",
            "algebra": "virasoro",
            "bracket": [l, m],
            "operator": f"{l - m}*L_{l + m}",
            "central": scalar_to_str(central),
            "identity": "virasoro-bracket-central",
        }
    elif args.algebra == "heisenberg":
        from .symmetry import heis_commutator_check

        if l == 0 or m == 0:
            raise ConfigError("oscillator modes are nonzero integers")
        u = RatFunc.variable(QI_ONE)
        central = heis_commutator_check(u ** l if l > 0 else 1 / u ** (-l),
                                        u ** m if m > 0 else 1 / u ** (-m), 0)
        payload = {
            "command": "modes",
            "algebra": "heisenberg",
            "bracket": [l, m],
            "operator": "0",
            "central": scalar_to_str(central),
            "identity": "oscillator-bracket-central",
        }
    elif args.algebra == "current-sl2":
        from .current import affine_bracket_check, sl2_algebra

        algebra = sl2_algebra()
        comps = (args.components or "e,f").split(",")
        if len(comps) != 2 or any(label not in algebra.labels for label in comps):
            raise ConfigError("--components takes two basis labels of sl2")
        central = affine_bracket_check(algebra, comps[0], l, comps[1], m)
        br = algebra.bracket(
            algebra.basis_element(comps[0]), algebra.basis_element(comps[1])
        )
        op = " + ".join(
            f"({scalar_to_str(c)})*j[{algebra.labels[k]}]_{l + m}" for k, c in br.items()
        )
        payload = {
            "command": "modes",
            "algebra": "current-sl2",
            "bracket": [l, m],
            "components": comps,
            "operator": op or "0",
            "central": scalar_to_str(central),
            "identity": "loop-bracket-central",
        }
    else:
        raise ConfigError(f"unknown algebra {args.algebra!r}")
    if args.decimal:
        payload["decimal"] = _decimal(scalar_from_str(payload["central"]), args.decimal)
    return _emit(args, payload, True)


def cmd_lattice(args) -> int:
    from .lattice import LatticeTheory, SectionClass, du_power_balance

    if args.N < 1:
        raise ConfigError("--N takes a positive integer")
    th = LatticeTheory(args.N)
    with open(args.script) as fh:
        script = json.load(fh)
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
                for key in state.terms:
                    old_grade = key[1].grade - lam
                    if old_grade in grades_before:
                        expected = grades_before[old_grade] + 2 * du_power_balance(
                            args.N, old_grade, lam
                        )
                        if op == "vertex":
                            expected += args.N * lam
                        if key[2] != expected:
                            ledger_ok = False
    rng = random.Random(args.seed)
    sign_table = []
    signs_ok = True
    base = th.vacuum(SectionClass())
    for l1 in range(-2, 3):
        for l2 in range(-2, 3):
            if not l1 or not l2:
                continue
            z1, z2 = rand_distinct_scalars(rng, 2, span=4)
            ok = th.sign_rule_check(l1, l2, z1, z2, base)
            signs_ok = signs_ok and ok
            sign_table.append(
                {
                    "weights": [l1, l2],
                    "sign": -1 if (args.N * l1 * l2) % 2 else 1,
                    "passed": ok,
                }
            )
    payload = {
        "command": "lattice",
        "N": args.N,
        "state": lattice_state_to_json(state),
        "du_ledger_passed": ledger_ok,
        "sign_table": sign_table,
        "passed": ledger_ok and signs_ok,
    }
    return _emit(args, payload, ledger_ok and signs_ok)


def cmd_pair(args) -> int:
    from .serialize import current_state_from_json, state_from_json

    with open(args.file) as fh:
        data = json.load(fh)
    parse = {"boson": lambda obj: state_from_json(obj, SymState),
             "current": current_state_from_json}.get(args.theory)
    if parse is None:
        raise ConfigError(f"unknown pairing theory {args.theory!r}")
    with _parsing("pair file"):
        dual, state = parse(data["dual"]), parse(data["state"])
    if args.theory == "boson":
        from .pairing import pair_P

        value = pair_P(dual, state)
        check = pair_P(dual, state, peel_last=True) == value
        payload = {
            "command": "pair",
            "theory": "boson",
            "value": scalar_to_str(value),
            "identity": "peeling-order-independence",
            "passed": check,
        }
    else:
        from .current import current_pair, lie_algebra_by_name

        value = current_pair(lie_algebra_by_name(args.algebra), dual, state)
        payload = {
            "command": "pair",
            "theory": "current",
            "algebra": args.algebra,
            "value": scalar_to_str(value),
            "passed": True,
        }
    if args.decimal:
        payload["decimal"] = _decimal(scalar_from_str(payload["value"]), args.decimal)
    return _emit(args, payload, payload["passed"])


def cmd_replay(args) -> int:
    from .boson import T_apply, b_apply, e_apply, i_apply
    from .serialize import state_from_json
    from .symmetry import HeisenbergOp, heis_apply, L_mode, mode_b
    from .exactnum import Point, INFINITY
    from .serialize import ratfunc_from_json

    with open(args.script) as fh:
        script = json.load(fh)
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
    return _emit(args, payload, True)


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
                        help="append a K-digit decimal rendering (approximate)")
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
    except (ConfigError, DomainError, FileNotFoundError, json.JSONDecodeError,
            UnsupportedDenominatorError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
