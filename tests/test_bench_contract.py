"""What the benchmark's tracer (bench/tracer.py) needs of the program.

The tracer patches the program from outside: it counts the constructor in
``SymState.__dict__``, swaps the module caches it names for counting dicts
and wraps public functions and methods.  A refactor that removes one of
these hooks fails here, not only in a traced benchmark run.
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
