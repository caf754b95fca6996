"""What the benchmark's tracer (bench/tracer.py) needs of the program.

The tracer patches the program from outside: it counts the constructor in
``SymState.__dict__``, swaps the module caches it names for counting dicts
and wraps public functions and methods.  A refactor that removes one of
these hooks fails here, not only in a traced benchmark run.  The last tests
keep the other direction: the program carries no code that only the tests
reach, beyond the identity checks that no registry runs yet, and no option
that only the tests set, beyond the ones the README or an acceptance
criterion uses.
"""

import sys
from fractions import Fraction
from pathlib import Path

from chiralis import current, states
from chiralis.current import affine_bracket_check, iota_apply, pbw_normalize, sl2_algebra
from chiralis.exactnum import qi
from chiralis.states import LinComb, SymState, vacuum

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def _tracer_module():
    sys.path.insert(0, BENCH)
    try:
        import tracer
    finally:
        sys.path.remove(BENCH)
    return tracer


def test_tracer_installs_counts_and_uninstalls():
    tracing = _tracer_module()
    caches = {(m, c): getattr(tracing.importlib.import_module(f"chiralis.{m}"), c)
              for m, c in tracing.CACHES}
    add_term = states.add_term
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert vacuum() + vacuum() == SymState({(): qi(2)})
        pbw_normalize(sl2_algebra(), ((2, qi(1), 1), (0, qi(0), 1)))
        affine_bracket_check(sl2_algebra(), "e", 1, "f", -1)
        iota_apply(sl2_algebra(), "e", qi(2), pbw_normalize(sl2_algebra(), ((2, qi(1), 1),)))
        tracer.mark("cold")
        tracer.mark("warm")
    finally:
        tracer.uninstall()
    report = tracer.report()
    assert report["states.symstate_new"] >= 3
    assert report["cache.current._PBW_CACHE.lookups"] >= 1
    # the mode kernel's memo is the dict the tracer swapped in
    assert report["cache.current._MODE_CACHE.lookups"] >= 1
    # so is the contraction field's, looked up by its global name at every call
    assert report["cache.current._IOTA_CACHE.lookups"] >= 1
    names = {name for name, _, _ in tracing.metric_names()} - {"trace.cold_s"}
    assert names <= set(report)
    # everything patched is back
    assert SymState.__dict__["__init__"] is LinComb.__init__
    assert states.add_term is add_term and current.add_term is add_term
    for (m, c), before in caches.items():
        restored = getattr(tracing.importlib.import_module(f"chiralis.{m}"), c)
        assert type(restored) is dict and restored.keys() >= before.keys()


def test_every_gauss_rational_result_is_counted():
    """Each scalar result passes through ``GaussRational.__init__``, which the
    tracer counts as ``exactnum.gauss_new``: one count per result, and one
    more for an int operand, which is coerced to a GaussRational first.  A
    constructor that bypassed ``__init__`` would shrink the counter."""
    tracing = _tracer_module()
    x, y = qi(Fraction(1, 2), 3), qi(-2, Fraction(1, 7))
    cases = {
        "x * y": (lambda: x * y, 1),
        "x + y": (lambda: x + y, 1),
        "x + x": (lambda: x + x, 1),
        "x - y": (lambda: x - y, 1),
        "x / y": (lambda: x / y, 1),
        "-x": (lambda: -x, 1),
        "x.conjugate()": (lambda: x.conjugate(), 1),
        "x * 2": (lambda: x * 2, 2),
        "3 - x": (lambda: 3 - x, 2),
        # powers start from the first factor and skip the last squaring
        "x ** 2": (lambda: x ** 2, 1),
        "x ** 3": (lambda: x ** 3, 2),
        "x ** -2": (lambda: x ** -2, 2),
        "x.inverse()": (lambda: x.inverse(), 1),
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, (case, expected) in cases.items():
            before = tracer.counts["exactnum.gauss_new"]
            case()
            assert tracer.counts["exactnum.gauss_new"] - before == expected, name
    finally:
        tracer.uninstall()


def test_every_named_span_is_installed():
    """Each span the tracer reports by name (``NAMED_SPANS``) is made of
    public functions of its module (several under one name through
    ``ALIASES``), or is the ``RatFunc`` class for ``exactnum.ratfunc``, and
    the tracer wraps it.  A renamed or inlined function would otherwise
    report 0 calls."""
    import importlib
    import inspect

    tracing = _tracer_module()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = set(tracer.spans)
    finally:
        tracer.uninstall()
    for name, _ in tracing.NAMED_SPANS:
        assert name in installed, name
        if name == "exactnum.ratfunc":
            assert inspect.isclass(importlib.import_module("chiralis.exactnum").RatFunc)
            continue
        for source in [a for a, n in tracing.ALIASES.items() if n == name] or [name]:
            layer, attr = source.split(".")
            module = importlib.import_module(f"chiralis.{layer}")
            target = getattr(module, attr, None)
            assert inspect.isfunction(target), source
            assert not attr.startswith("_") and target.__module__ == module.__name__, source


def test_every_bench_import_resolves():
    """Every ``from chiralis.X import name`` in ``bench/*.py``, at module
    level or inside a function, names something the program still has, and
    ``RatFunc.variable(QI_ONE)`` (the coordinate function of the checks)
    still builds u.  A deletion in the program that the benchmark relies on
    fails here, not in a benchmark run."""
    import ast
    import importlib

    from chiralis.exactnum import QI_ONE, Poly, RatFunc

    imported = set()
    for path in sorted(Path(BENCH).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chiralis":
                imported |= {(path.name, node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(path.name, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "chiralis"}
    assert any(name == "RatFunc" for _, _, name in imported)
    for source, module, name in sorted(imported, key=str):
        target = importlib.import_module(module)
        assert name is None or hasattr(target, name), (source, module, name)
    assert RatFunc.variable(QI_ONE) == RatFunc(Poly([0, 1]))


# caches the tracer does not count yet: each entry names an open gap
UNTRACED_CACHES = {("symmetry", "_L_WORD_CACHE")}


def test_every_cache_is_traced_or_named_untraced():
    """Every module-level ``*_CACHE`` dict of chiralis is counted by the
    tracer (``CACHES``) or listed in ``UNTRACED_CACHES``, so a new cache
    that the benchmark would not see fails here, and each known gap is
    written down."""
    import importlib
    import pkgutil

    import chiralis

    found = set()
    for info in pkgutil.iter_modules(chiralis.__path__):
        module = importlib.import_module(f"chiralis.{info.name}")
        found |= {(info.name, attr) for attr, value in vars(module).items()
                  if attr.endswith("_CACHE") and isinstance(value, dict)}
    traced = set(_tracer_module().CACHES)
    assert found - traced == UNTRACED_CACHES
    assert traced <= found


# identity checks that only tests call, until an identity registry runs them
UNREGISTERED_CHECKS = {
    ("boson", "commutator_ie"),
    ("boson", "covariance_check"),
    ("boson", "davatar_check"),
    ("current", "base_point_independence_check"),
    ("current", "separation_check"),
    ("lattice", "LatticeTheory.zero_mode_check"),
    ("pairing", "heis_adjointness_check"),
    ("pairing", "positivity_check"),
    ("symmetry", "insertion_suite"),
    ("symmetry", "primary_check"),
    ("vertexalg", "generation_check"),
}


def test_every_definition_is_referenced_or_exported():
    """Every module-level function or class and every public method of
    chiralis is reached from outside the tests: it is referenced in the
    package outside its own body (the CLI included), or the README or a
    ``bench/*.py`` file names it, or it is an identity check listed in
    ``UNREGISTERED_CHECKS``.  Being in ``__all__`` does not count.  Every
    private function or method (``_name``, not a dunder) is referenced in the
    package outside its own body.  A reference is a name, an attribute or an
    imported name, matched by spelling.  Code that only the tests call
    belongs in the tests, and code that nothing calls fails here."""
    import ast
    import re
    from collections import defaultdict

    import chiralis

    root = Path(__file__).resolve().parents[1]
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(chiralis.__file__).parent.glob("*.py"))}
    refs = defaultdict(list)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((module, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs[alias.name].append((module, node.lineno))
    named = set(re.findall(r"\w+", "".join(path.read_text() for path in
                                           [root / "README.md", *sorted(Path(BENCH).glob("*.py"))])))

    def referenced(module, node):
        return any(m != module or not node.lineno <= line <= node.end_lineno for m, line in refs[node.name])

    unreached = set()
    for module, tree in trees.items():
        defs = [(None, node) for node in tree.body]
        defs += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        for cls, node in defs:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (cls and node.name.startswith("_")):
                if not (referenced(module, node) or node.name in named):
                    unreached.add((module, f"{cls.name}.{node.name}" if cls else node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__"):
                if not referenced(module, node):
                    unreached.add((module, node.name))
    assert unreached == UNREGISTERED_CHECKS


# private chiralis names an oracle may import, each with its reason
ORACLE_PRIVATE_IMPORTS = {
    ("current", "_as_elem"): "the coercion of a field's Lie argument, which the oracle fields take as the program's do",
    ("geometry", "_loop_product"): "the product of two loop generators, the letter arithmetic that straightening is made of",
}


def test_oracles_own_their_compositions():
    """No test oracle (``tests/*_oracle.py``, ``tests/tower_*.py``) imports a
    private chiralis name outside ``ORACLE_PRIVATE_IMPORTS``: a composition
    that the program replaced by a fast path lives on in the oracle that
    checks it, not as a private helper of the program."""
    import ast

    tests = Path(__file__).resolve().parent
    found = set()
    for path in sorted([*tests.glob("*_oracle.py"), *tests.glob("tower_*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chiralis":
                found |= {(path.name, node.module.split(".")[-1], alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert {(module, name) for _, module, name in found} <= set(ORACLE_PRIVATE_IMPORTS), sorted(found)


def _unset_options(root: Path, *dirs: str) -> list:
    """The default-valued parameters of the module-level functions and methods
    of ``root/src/chiralis`` that no call in src/ or in the directories
    ``dirs`` of ``root`` passes.

    A call is matched to its callee by spelling: the function or method name,
    the class name for ``__init__``, or ``Cls`` in ``Cls.__init__(self, ...)``.
    It passes a parameter by keyword, by position, or through ``*``/``**``."""
    import ast
    from collections import defaultdict

    package = sorted((root / "src" / "chiralis").glob("*.py"))
    callers = package + [path for d in dirs for path in sorted((root / d).rglob("*.py"))]
    passed = defaultdict(lambda: [0, set(), False])  # spelling -> [most positional, keywords, starred]
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, explicit_self = node.func, 0
            if isinstance(func, ast.Attribute) and func.attr == "__init__" and isinstance(func.value, ast.Name):
                name, explicit_self = func.value.id, 1
            elif isinstance(func, (ast.Attribute, ast.Name)):
                name = getattr(func, "attr", None) or func.id
            else:
                continue
            entry = passed[name]
            entry[0] = max(entry[0], len(node.args) - explicit_self)
            entry[1] |= {k.arg for k in node.keywords if k.arg}
            entry[2] |= any(isinstance(a, ast.Starred) for a in node.args) or any(not k.arg for k in node.keywords)
    unset = []
    for path in package:
        tree = ast.parse(path.read_text(), str(path))
        defs = [(None, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        defs += [(c, f) for c in tree.body if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)]
        for cls, fn in defs:
            is_method = cls is not None and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}
            count, keywords, starred = passed[cls.name if fn.name == "__init__" else fn.name]
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            options = [(arg, i - is_method < count) for i, arg in enumerate(args[first:], first)]
            options += [(arg, False) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            where = f"{path.stem}.{cls.name + '.' if cls else ''}{fn.name}"
            unset += [f"{where}({arg.arg})" for arg, by_position in options
                      if not (by_position or starred or arg.arg in keywords)]
    return unset


# options that only tests set, each kept because the README or an acceptance
# criterion uses it
TEST_SET_OPTIONS = {
    "current.affine_bracket_check(spanning)": "the README: the bracket is measured on given states",
    "current.current_expand_at_generic_point(field)": "the README: expansions of j, iota or epsilon",
    "exactnum.qi(im)": "the acceptance criteria build imaginary points, qi(0, 1)",
    "exactnum.qi(re)": "the README's worked example builds its points, qi(0) and qi(2)",
    "lattice.LatticeTheory.vertex(scale)": "the README: vertex operators at any representative's scale",
    "symmetry.L_mode(site_point)": "the README: the energy modes at any site",
    "symmetry.mode_b(site_point)": "the README: the oscillator modes at any site",
}


def test_every_option_is_set_by_a_caller():
    """Every default-valued parameter of chiralis is passed by some call in
    src/ or bench/, or it is in ``TEST_SET_OPTIONS`` and a call in tests/
    passes it: an option that nobody sets is a constant, one that only the
    tests set is one that no user reaches, and each one doubles the
    configurations a test would have to cover."""
    root = Path(__file__).resolve().parents[1]
    assert _unset_options(root, "bench", "tests") == []
    assert sorted(_unset_options(root, "bench")) == sorted(TEST_SET_OPTIONS)
