"""JSON encodings for scalars, rational functions, and state types.

Scalars travel as exact strings ("a/b" or "a/b+c/d*i"); rational functions
as {"num": [...], "den": [...]} with coefficients low-to-high; boson-type
states as lists of {"monomial": [...], "coeff": ...} with basis atoms
encoded "pole:c:l" / "poly:m"; current states as lists of {"word": [...],
"insertions": [...], "coeff": ...}; lattice states are written only.  A
parsed state is canonical: monomials are sorted by the atom order and
repeated entries summed; an exterior monomial that is not strictly sorted,
or a current word out of normal order, is an error.
"""

from __future__ import annotations

from .exactnum import GaussRational, Poly, RatFunc
from .geometry import atom_sort_key
from .states import SymState, add_term

__all__ = [
    "scalar_to_str",
    "scalar_from_str",
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


def _monomial_from_json(texts, exterior: bool) -> tuple:
    """The canonical monomial of a list of atom strings: sorted by the atom
    order.  An exterior monomial must come strictly sorted, since sorting it
    would change its sign and a repeated atom makes it zero."""
    atoms = [atom_from_str(a) for a in texts]
    keys = [atom_sort_key(a) for a in atoms]
    if exterior and any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValueError(f"exterior monomial {texts} is not strictly sorted")
    return tuple(sorted(atoms, key=atom_sort_key))


def state_from_json(obj: list, state_cls):
    """A SymState, or with state_cls the exterior ExtState; the coefficients
    of entries with the same monomial are summed."""
    terms = {}
    for entry in obj:
        monomial = _monomial_from_json(entry["monomial"], state_cls is not SymState)
        add_term(terms, monomial, scalar_from_str(entry["coeff"]))
    return state_cls(terms)


# -- current states ----------------------------------------------------------


def loopgen_to_obj(gen) -> list:
    return [int(gen[0]), scalar_to_str(gen[1]), int(gen[2])]


def loopgen_from_obj(obj):
    """A loop letter (a, c, l); ValueError when its order l is below 1."""
    from .current import LoopGen

    return LoopGen(int(obj[0]), scalar_from_str(obj[1]), int(obj[2]))


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


def current_state_from_json(obj: list, algebra):
    """A CurrentState of the algebra whose words must be in the order
    ``pbw_normalize`` leaves; the coefficients of repeated (word, insertions)
    entries are summed.  A letter's basis index must lie in range(algebra.dim)."""
    from .current import CurrentState, _gen_key

    terms = {}
    for entry in obj:
        word = tuple(loopgen_from_obj(g) for g in entry["word"])
        if list(word) != sorted(word, key=_gen_key):
            raise ValueError(f"current word {entry['word']} is not in normal order")
        if any(a not in range(algebra.dim) for a, _, _ in word):
            raise ValueError(f"a basis index of {entry['word']} is outside {algebra.name}")
        ins = tuple(int(i) for i in entry.get("insertions", ()))
        add_term(terms, (word, ins), scalar_from_str(entry["coeff"]))
    return CurrentState(terms)


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
