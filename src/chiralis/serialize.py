"""JSON encodings for scalars, rational functions, and state types.

Scalars travel as exact strings ("a/b" or "a/b+c/d*i"); rational functions
as {"num": [...], "den": [...]} with coefficients low-to-high; states as
lists of {"monomial": [...], "coeff": ...} with basis atoms encoded
"pole:c:l" / "poly:m".
"""

from __future__ import annotations

from .exactnum import GaussRational, Poly, RatFunc

__all__ = [
    "scalar_to_str",
    "scalar_from_str",
    "ratfunc_to_json",
    "ratfunc_from_json",
    "atom_to_str",
    "atom_from_str",
    "state_to_json",
    "state_from_json",
]


def scalar_to_str(s) -> str:
    return str(GaussRational.coerce(s))


def scalar_from_str(text: str) -> GaussRational:
    return GaussRational.parse(text)


def ratfunc_to_json(f: RatFunc) -> dict:
    return {
        "num": [scalar_to_str(c) for c in f.num.coeffs],
        "den": [scalar_to_str(c) for c in f.den.coeffs],
    }


def ratfunc_from_json(obj: dict) -> RatFunc:
    num = Poly([scalar_from_str(c) for c in obj["num"]])
    den = Poly([scalar_from_str(c) for c in obj.get("den", ["1"])])
    return RatFunc(num, den)


def atom_to_str(atom) -> str:
    kind = atom[0]
    if kind == "pole":
        return f"pole:{scalar_to_str(atom[1])}:{atom[2]}"
    if kind == "poly":
        return f"poly:{atom[1]}"
    raise ValueError(f"unknown atom kind {kind!r}")


def atom_from_str(text: str):
    head, _, rest = text.partition(":")
    if head == "pole":
        c, _, order = rest.rpartition(":")
        if int(order) < 1:
            raise ValueError(f"pole order must be positive in {text!r}")
        return ("pole", scalar_from_str(c), int(order))
    if head == "poly":
        if int(rest) < 0:
            raise ValueError(f"negative power in {text!r}")
        return ("poly", int(rest))
    raise ValueError(f"unknown atom encoding {text!r}")


def state_to_json(state) -> list:
    out = []
    for monomial in sorted(state.terms, key=_monomial_sort_key):
        coeff = state.terms[monomial]
        out.append(
            {
                "monomial": [atom_to_str(a) for a in monomial],
                "coeff": scalar_to_str(coeff),
            }
        )
    return out


def _monomial_sort_key(monomial):
    return tuple(atom_to_str(a) for a in monomial)


def state_from_json(obj: list, state_cls):
    terms = {}
    for entry in obj:
        monomial = tuple(atom_from_str(a) for a in entry["monomial"])
        terms[monomial] = scalar_from_str(entry["coeff"])
    return state_cls(terms)


# -- current states ----------------------------------------------------------


def loopgen_to_obj(gen) -> list:
    return [int(gen[0]), scalar_to_str(gen[1]), int(gen[2])]


def loopgen_from_obj(obj):
    return (int(obj[0]), scalar_from_str(obj[1]), int(obj[2]))


def current_state_to_json(state) -> list:
    out = []
    for (word, ins), coeff in state.terms.items():
        out.append(
            {
                "word": [loopgen_to_obj(g) for g in word],
                "insertions": list(ins),
                "coeff": scalar_to_str(coeff),
            }
        )
    out.sort(key=lambda e: (e["word"], e["insertions"]))
    return out


def current_state_from_json(obj: list, ctx=None):
    from .current import CurrentState

    terms = {}
    for entry in obj:
        word = tuple(loopgen_from_obj(g) for g in entry["word"])
        ins = tuple(int(i) for i in entry.get("insertions", ()))
        terms[(word, ins)] = scalar_from_str(entry["coeff"])
    return CurrentState(terms, ctx)


# -- lattice states ----------------------------------------------------------


def lattice_state_to_json(state) -> list:
    out = []
    for (mon, section, tdu), coeff in state.terms.items():
        out.append(
            {
                "monomial": [atom_to_str(a) for a in mon],
                "roots": [[scalar_to_str(c), int(m)] for c, m in section.roots],
                "grade": section.grade,
                "half_du_power": int(tdu),
                "coeff": str(coeff),
            }
        )
    out.sort(key=lambda e: (e["monomial"], e["roots"], e["half_du_power"]))
    return out


# -- sector states -----------------------------------------------------------


def bc_state_to_json(state) -> list:
    out = []
    for (b, c), coeff in state.terms.items():
        out.append(
            {
                "weight_sector": [atom_to_str(a) for a in b],
                "twist_sector": [atom_to_str(a) for a in c],
                "coeff": scalar_to_str(coeff),
            }
        )
    out.sort(key=lambda e: (e["weight_sector"], e["twist_sector"]))
    return out


def bc_state_from_json(obj: list):
    from .fermion import BCState

    terms = {}
    for entry in obj:
        key = (
            tuple(atom_from_str(a) for a in entry["weight_sector"]),
            tuple(atom_from_str(a) for a in entry["twist_sector"]),
        )
        terms[key] = scalar_from_str(entry["coeff"])
    return BCState(terms)
