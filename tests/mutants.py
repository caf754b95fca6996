"""Every check can fail: the mutation list and its runner.

Each entry of ``MUTANTS`` names a module of ``src/chiralis``, one exact
source line of it (compared without its indentation), the line that
replaces it, and the test expected to kill the mutant.  Run from the root
of a checkout:

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

For each entry the runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, replaces the line there (keeping its
indentation), and runs ``python -m pytest -x -q`` on the named test of the
copy.  A failing test kills the mutant; a passing one lets it survive.
First, the named tests run once on an unmutated copy: if one fails there,
it would kill any mutant, and the runner stops with exit code 2.  The
runner prints one line per entry and exits 1 when a mutant survives, is
not killed for another reason (pytest could not run the test), or its
line is not in its module exactly once, else 0.  The file has no
``test_`` prefix, so pytest does not collect it; the tier-1 anchor test
``tests/test_mutants.py`` checks that each line still occurs exactly once
in ``src/``, so the list cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # a module of src/chiralis, without ".py"
    line: str  # the exact source line, without its indentation
    replacement: str  # the line put in its place, without indentation
    test: str  # the pytest node id expected to kill it


MUTANTS = [
    # the probe of eight mutants on the kernels of the scalar, state, fermion,
    # current and pairing layers
    Mutant("merge-sign", "states",
           "add_term(out, key, coeff if sign == 1 else -coeff)",
           "add_term(out, key, coeff)",
           "tests/test_states.py::TestLinearStructure::test_difference_with_itself_is_zero"),
    Mutant("sector-crossing", "fermion",
           'odd = parity + (len(key[0]) if sector else 0) + (part[0] == "c")  # the crossing, the minus',
           'odd = parity + (part[0] == "c")',
           "tests/test_fermion.py::TestBCSystem::test_crossing_sign"),
    Mutant("pair-word-inverse-square", "current",
           "inv_t2 = 1 / (t * t)",
           "inv_t2 = 1 / t",
           "tests/test_current.py::TestPairing::test_degree_one_matches_residue"),
    Mutant("add-word-coefficient", "current",
           "add_term(out, (w, ins), c * coeff)",
           "add_term(out, (w, ins), c)",
           "tests/test_current.py::TestFields::test_j_locality_no_insertions"),
    Mutant("centrality-test", "states",
           "if lhs != ({key: c * central for key, c in v.items()} if central else {}):",
           "if lhs.get((), 0) != central * v.get((), 0):",
           "tests/test_symmetry.py::TestExponentKernel::test_wrong_sugawara_weights_raise"),
    Mutant("rational-hash-sign", "exactnum",
           "return hash(h if n >= 0 else -h)  # 0 <= h < P, and hash(-1) == -2 as for a Fraction",
           "return hash(h)",
           "tests/test_exactnum.py::TestTripleHash::test_seeded_values_hash_as_fractions"),
    Mutant("require-regular-off", "states",
           'if atom[0] == "pole" and not (z - atom[1]):',
           "if False:",
           "tests/test_fermion.py::TestNeutralFermion::test_domain_error"),
    Mutant("gram-verdict-real-minors", "pairing",
           "positive = all(m.is_rational() and m.re > 0 for m in minors)",
           "positive = all(m.re > 0 for m in minors)",
           "tests/test_pairing.py::TestPositivityGuards::test_non_real_minor_is_not_positive"),
    # the integer Virasoro kernel: word images of 2 L_n
    Mutant("vir-pair-weight", "symmetry",
           "add_term(out, ks[:i] + ks[i + 1: j] + ks[j + 1:], 2)",
           "add_term(out, ks[:i] + ks[i + 1: j] + ks[j + 1:], 1)",
           "tests/test_symmetry.py::TestVirasoro::test_bracket_central_values"),
    Mutant("vir-central-quarter", "symmetry",
           'return GaussRational(Fraction(central_scalar(pairs, f"[L_{l}, L_{m}] - ({l - m}) L_{l + m}"), 4))',
           'return GaussRational(Fraction(central_scalar(pairs, f"[L_{l}, L_{m}] - ({l - m}) L_{l + m}"), 2))',
           "tests/test_symmetry.py::TestVirasoro::test_bracket_central_values"),
    Mutant("vir-diagonal-weight", "symmetry",
           "return [(p, j + 3 - p, -2 * (p - 1) * (j + 2 - p) if 2 * p < j + 3 else -(p - 1) ** 2)",
           "return [(p, j + 3 - p, -2 * (p - 1) * (j + 2 - p) if 2 * p < j + 3 else -2 * (p - 1) ** 2)",
           "tests/test_symmetry.py::TestVirasoro::test_creation_is_sugawara_sum"),
]


def occurrences(root: Path, line: str) -> list:
    """(module, line number) of every line of ``root/src/chiralis/*.py`` that
    reads ``line`` once its indentation is stripped."""
    found = []
    for path in sorted((root / "src" / "chiralis").glob("*.py")):
        for number, text in enumerate(path.read_text().splitlines(), 1):
            if text.strip() == line:
                found.append((path.stem, number))
    return found


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's line in the copy at root, keeping its indentation."""
    path = root / "src" / "chiralis" / f"{mutant.module}.py"
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: the line occurs {len(hits)} times in {path.name}")
    text = lines[hits[0]]
    indent = text[: len(text) - len(text.lstrip())]
    lines[hits[0]] = indent + mutant.replacement + "\n"
    path.write_text("".join(lines))


def run_pytest(tests, mutant=None) -> tuple:
    """(pytest's exit code, seconds) of ``pytest -x`` on the tests, run in a
    temporary copy of the checkout with the mutant (if any) applied."""
    with tempfile.TemporaryDirectory(prefix="chiralis-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src")
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                             cwd=copy, env=env, capture_output=True, text=True)
        return out.returncode, time.perf_counter() - start


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    # a test that fails without the mutant kills nothing
    code, seconds = run_pytest(sorted({m.test for m in chosen}))
    print(f"{'(no mutant)':26} {'passed' if code == 0 else 'FAILED':9} {seconds:6.1f} s", flush=True)
    if code != 0:
        return 2
    bad = 0
    for mutant in chosen:
        if [m for m, _ in occurrences(ROOT, mutant.line)] != [mutant.module]:
            verdict, seconds = "stale", 0.0
        else:
            code, seconds = run_pytest([mutant.test], mutant)
            verdict = {0: "survived", 1: "killed"}.get(code, "error")
        bad += verdict != "killed"
        print(f"{mutant.name:26} {verdict:9} {seconds:6.1f} s  {mutant.test}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
