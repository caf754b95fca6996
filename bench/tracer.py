"""Per-layer tracing of chiralis from the outside, for ``worker.py --trace``.

Spans: every public module-level function of a layer, and every public
method or arithmetic operator of a class it defines, is wrapped.  A module
function is rebound in every chiralis module that imported it; a method is
patched on its class.  Each span adds its duration to its parent's child
time, and its self time (duration minus child time) to its name.  Spans are
aggregated in memory by name (calls, self seconds) and reported at the end.

Counts: the scalar layer (GaussRational, Poly, Jet, and the canonicalizing
RatFunc constructor) is counted, never timed, because a span per scalar
operation would measure the tracer.

Caches: each module-level cache dict is swapped for a dict subclass that
counts lookups and hits.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("exactnum", "geometry", "states", "boson", "symmetry", "pairing",
          "vertexalg", "current", "fermion", "lattice")
# exactnum is the scalar layer: only these functions and RatFunc get spans
EXACTNUM_SPANS = ("residue_at", "partial_fractions", "gauss_rational_roots")
# classes counted or left alone, never spanned
UNSPANNED_CLASSES = {"GaussRational", "Poly", "Point", "LaurentTail", "PartialFractions",
                     "LatticeScalar", "Jet"}
OPERATORS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__"}
ALIASES = {"vertexalg.Y_comm": "vertexalg.Y", "vertexalg.Y_prime": "vertexalg.Y"}
CACHES = (
    ("symmetry", "_PF_CACHE"), ("symmetry", "_HEIS_VALUE_CACHE"), ("symmetry", "_OMEGA_CACHE"),
    ("symmetry", "_VIR_PAIR_CACHE"), ("symmetry", "_VIR_LIE_CACHE"),
    ("pairing", "_KERNEL_DERIV_CACHE"), ("pairing", "_KERNEL_VALUE_CACHE"),
    ("vertexalg", "_B_BASIS_CACHE"),
    ("current", "_PBW_CACHE"), ("current", "_IOTA_CACHE"), ("current", "_MODE_CACHE"),
)
COUNTERS = ("exactnum.gauss_new", "exactnum.ratfunc_canon", "exactnum.poly_gcd",
            "exactnum.poly_mul", "jets.jet_new", "states.symstate_new")
# spans reported one by one: (name, report calls too)
NAMED_SPANS = (
    ("exactnum.ratfunc", False),
    ("exactnum.residue_at", True), ("exactnum.partial_fractions", True),
    ("exactnum.gauss_rational_roots", True),
    ("geometry.form_to_atoms", True),
    ("boson.b_apply", True), ("boson.expand_at_generic_point", False),
    ("symmetry.heis_apply", True), ("symmetry.mode_b", False), ("symmetry.L_mode", True),
    ("pairing.reflection_kernel_value", True), ("pairing.gram_matrix", False),
    ("pairing.leading_minors", False),
    ("vertexalg.Y", True), ("vertexalg.translate", False),
    ("vertexalg.jet_parameter_expansion", False),
    ("current.pbw_normalize", True), ("current.iota_apply", True),
    ("current.current_pair", False), ("current.current_expand_at_generic_point", False),
    ("current.J_site_apply", False),
)
LAYER_TOTALS = ("geometry", "states", "boson", "fermion", "lattice")


def metric_names():
    """Every per-layer metric, in report order, with its unit and direction."""
    out = [(name, "count", "lower") for name in COUNTERS]
    for name, with_calls in NAMED_SPANS:
        if with_calls:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYER_TOTALS]
    for module, cache in CACHES:
        base = f"cache.{module}.{cache}"
        out += [(f"{base}.lookups", "count", "lower"), (f"{base}.hit_ratio", "ratio", "higher"),
                (f"{base}.hit_ratio_warm", "ratio", "higher"), (f"{base}.entries", "count", "lower")]
    out += [("cache.all.hit_ratio", "ratio", "higher"), ("cache.all.hit_ratio_warm", "ratio", "higher"),
            ("trace.cold_s", "s", "lower")]
    return out


def unit_of(name):
    return next(unit for n, unit, _ in metric_names() if n == name)


class CountingDict(dict):
    """A cache dict that counts ``get`` lookups and hits (non-None results)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = dict.get(self, key, default)
        if value is not None:
            self.hits += 1
        return value


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = {}  # name -> [calls, self seconds]
        self.counts = {name: 0 for name in COUNTERS}
        self.marks = {}
        self._undo = []
        self.modules = {name: importlib.import_module(f"chiralis.{name}")
                        for name in LAYERS + ("jets", "states")}

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        stat = self.spans.setdefault(ALIASES.get(name, name), [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def canon_counter(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(obj, num, den=None, *, _reduced=False):
            if not _reduced and num.coeffs:
                counts["exactnum.ratfunc_canon"] += 1
            return init(obj, num, den, _reduced=_reduced)

        return counted

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_function(self, fn, wrapped):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make(raw.__func__)))
        elif callable(raw) and not isinstance(raw, (classmethod, type)):
            self._set(cls, attr, make(raw))

    def install(self):
        ex = self.modules["exactnum"]
        for name in EXACTNUM_SPANS:
            fn = getattr(ex, name)
            self._rebind_function(fn, self.span(f"exactnum.{name}", fn))
        ratfunc = ex.RatFunc
        for attr in list(ratfunc.__dict__):
            if attr == "__init__":
                self._set(ratfunc, attr, self.span("exactnum.ratfunc", self.canon_counter(ratfunc.__init__)))
            elif (not attr.startswith("_") or attr in OPERATORS) and attr != "sort_key":
                self._patch_method(ratfunc, attr, lambda f: self.span("exactnum.ratfunc", f))
        self._set(ex.GaussRational, "__init__", self.counter("exactnum.gauss_new", ex.GaussRational.__init__))
        self._set(ex.Poly, "__mul__", self.counter("exactnum.poly_mul", ex.Poly.__mul__))
        self._set(ex.Poly, "gcd", self.counter("exactnum.poly_gcd", ex.Poly.gcd))
        jet = self.modules["jets"].Jet
        self._set(jet, "__init__", self.counter("jets.jet_new", jet.__init__))
        symstate = self.modules["states"].SymState
        self._set(symstate, "__init__", self.counter("states.symstate_new", symstate.__init__))

        for layer in LAYERS[1:]:
            module = self.modules[layer]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    if attr in UNSPANNED_CLASSES or issubclass(value, BaseException):
                        continue
                    for mattr in list(value.__dict__):
                        if (not mattr.startswith("_") or mattr in OPERATORS) and mattr != "sort_key":
                            self._patch_method(value, mattr,
                                               lambda f, n=f"{layer}.{attr}.{mattr}": self.span(n, f))
                elif callable(value):
                    self._rebind_function(value, self.span(f"{layer}.{attr}", value))

        for module, cache in CACHES:
            mod = self.modules[module]
            self._set(mod, cache, CountingDict(getattr(mod, cache)))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(value, CountingDict):
                value = dict(getattr(owner, attr))
            setattr(owner, attr, value)
        self._undo = []

    # -- results --------------------------------------------------------------

    def mark(self, label):
        """Snapshot every statistic at the end of a pass."""
        self.marks[label] = {
            "spans": {name: list(stat) for name, stat in self.spans.items()},
            "counts": dict(self.counts),
            "caches": {f"{m}.{c}": (self._cache(m, c).lookups, self._cache(m, c).hits,
                                    len(self._cache(m, c))) for m, c in CACHES},
        }

    def _cache(self, module, cache):
        return getattr(self.modules[module], cache)

    def report(self):
        cold, warm = self.marks["cold"], self.marks["warm"]
        spans = cold["spans"]
        out = dict(cold["counts"])
        for name, with_calls in NAMED_SPANS:
            calls, self_s = spans.get(name, (0, 0.0))
            if with_calls:
                out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYER_TOTALS:
            out[f"{layer}.self_s"] = sum(s for n, (_, s) in spans.items() if n.startswith(layer + "."))
        totals = [0, 0, 0, 0]
        for key in cold["caches"]:
            lookups, hits, _ = cold["caches"][key]
            wlookups, whits, entries = warm["caches"][key]
            wlookups, whits = wlookups - lookups, whits - hits
            base = f"cache.{key}"
            out[f"{base}.lookups"] = lookups
            out[f"{base}.hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{base}.hit_ratio_warm"] = whits / wlookups if wlookups else 0.0
            out[f"{base}.entries"] = entries
            totals = [totals[0] + lookups, totals[1] + hits, totals[2] + wlookups, totals[3] + whits]
        out["cache.all.hit_ratio"] = totals[1] / totals[0] if totals[0] else 0.0
        out["cache.all.hit_ratio_warm"] = totals[3] / totals[2] if totals[2] else 0.0
        return out
