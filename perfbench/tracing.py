"""Span tracing by wrapping the public functions of sandwichkit's layers.

Nothing inside the package changes: `Tracer.install` replaces each public
function of a layer module with a wrapper that records one span (name, start,
end, parent) per call, in every module that holds a reference to the
function, including those that imported it with `from .x import f`.  Spans
are kept in flat arrays in memory and written out once, at the end.

Scalar and vector helpers (`frac`, `dot`, `vec`, the cli number encoders,
...) are not wrapped: they run once per coefficient, and a span around each
call would cost more than the work it records.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from math import comb

LAYERS = ("cli", "duality", "interiority", "sandwich", "oracle", "convexfn",
          "geometry", "numerics")

PER_COEFFICIENT_HELPERS = {
    "numerics": {"frac", "parse_scalar", "format_scalar", "is_finite", "ext_sub",
                 "comparison_slack", "exact_point", "vec", "zero_vec", "unit_vec",
                 "dot", "vec_add", "vec_sub", "vec_scale"},
    "geometry": {"vec_neg", "affine_apply"},
    "cli": {"to_frac", "to_vector", "to_int", "encode_scalar", "encode_vector",
            "encode_query"},
}

# Methods are wrapped only where a metric needs them.
METHODS = {"numerics": {"LpBuilder": ("build", "solve")}}

OP = "op"


def _public_functions(mod, layer):
    skip = PER_COEFFICIENT_HELPERS.get(layer, set())
    for name, fn in inspect.getmembers(mod, inspect.isfunction):
        if fn.__module__ == mod.__name__ and not name.startswith("_") and name not in skip:
            yield name, fn


class Tracer:
    """Records spans of wrapped calls; single-threaded use only."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.name_ids = {OP: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo: list[tuple] = []
        # per-call hooks fill this while it is not None (first round only)
        self.capture: dict | None = None

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name_id: int, fn, *args, **kwargs):
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.span_start[sid] = t0
            self.span_end[sid] = t1

    def _wrap(self, name: str, fn, hook):
        nid = self._name_id(name)
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = span(nid, fn, *args, **kwargs)
            if hook is not None and self.capture is not None:
                hook(self.capture, args, out)
            return out

        return wrapper

    def install(self, package: str = "sandwichkit", hooks: dict | None = None):
        """Wrap every layer's public functions wherever they are bound."""
        hooks = hooks or {}
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        loaded = [m for n, m in list(sys.modules.items())
                  if n == package or n.startswith(package + ".")]
        for layer, mod in mods.items():
            for name, fn in _public_functions(mod, layer):
                qual = f"{layer}.{name}"
                wrapper = self._wrap(qual, fn, hooks.get(qual))
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._undo.append((holder, attr, fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    qual = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self._wrap(qual, fn, hooks.get(qual)))
                    self._undo.append((cls, meth, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def op(self, fn):
        """Run one benchmark operation under a root span."""
        return self.span(0, fn)


def lp_stats(lp, result) -> tuple[int, int, int]:
    """(expanded rows, columns, largest denominator bit length) of one LP.

    Expanded rows are the constraint rows plus one row per finite bound, the
    rows the kernel builds its tableau and certificates from.  Denominators
    are taken over the LP data and over the returned point and certificate.
    """
    rows = len(lp.constraints)
    if lp.bounds is not None:
        rows += sum((lo is not None) + (hi is not None) for lo, hi in lp.bounds)
    bits = 0
    scalars = list(lp.objective)
    for c in lp.constraints:
        scalars.extend(c.coeffs)
        scalars.append(c.rhs)
    if lp.bounds is not None:
        scalars.extend(v for pair in lp.bounds for v in pair if v is not None)
    for part in (result.point, result.dual, result.farkas, result.ray):
        if part is not None:
            scalars.extend(part)
    if not isinstance(result.value, float):
        scalars.append(result.value)
    for v in scalars:
        d = getattr(v, "denominator", 1)
        if d.bit_length() > bits:
            bits = d.bit_length()
    return rows, lp.num_vars, bits


def envelope_subsets(n: int, dim: int) -> int:
    """Sample subsets one envelope_value call enumerates: sizes 1..dim+1."""
    return sum(comb(n, k) for k in range(1, dim + 2))


def capture_hooks() -> dict:
    """Hooks that keep what the count metrics need from the first round."""

    def lp_solve(cap, args, out):
        cap.setdefault("lps", []).append((args[0], out))

    def verify(cap, args, out):
        cap["queries"] = cap.get("queries", 0) + len(out)

    def envelope_value(cap, args, out):
        f = args[0]
        cap["subsets"] = cap.get("subsets", 0) + envelope_subsets(len(f.data), f.dim)

    return {
        "numerics.lp_solve": lp_solve,
        "duality.verify": verify,
        "oracle.envelope_value": envelope_value,
    }


class SpanTable:
    """Column view of the first `stop` spans, for per-layer sums and self times."""

    def __init__(self, tracer: Tracer, stop: int | None = None):
        import numpy as np

        self.np = np
        self.names = tracer.names
        stop = len(tracer.span_start) if stop is None else stop
        self.name = np.frombuffer(tracer.span_name, dtype=np.intc)[:stop].astype(np.int64)
        self.parent = np.frombuffer(tracer.span_parent, dtype=np.intc)[:stop].astype(np.int64)
        start = np.frombuffer(tracer.span_start, dtype=np.float64)[:stop]
        end = np.frombuffer(tracer.span_end, dtype=np.float64)[:stop]
        self.start, self.end = start, end
        self.dur = end - start

    def _name_mask(self, pred):
        return self.np.array([bool(pred(n)) for n in self.names])

    def _in(self, pred):
        return self._name_mask(pred)[self.name]

    def below(self, pred):
        """True for spans with a strict ancestor whose name satisfies pred."""
        np = self.np
        hit = self._name_mask(pred)
        out = np.zeros(len(self.name), dtype=bool)
        cur = self.parent.copy()
        live = cur >= 0
        while live.any():
            idx = cur[live]
            out[live] |= hit[self.name[idx]]
            cur[live] = self.parent[idx]
            live = cur >= 0
        return out

    def count(self, pred, within=None) -> int:
        mask = self._in(pred)
        if within is not None:
            mask &= self.below(within)
        return int(mask.sum())

    def outer_time(self, pred, within=None) -> float:
        """Time under spans matching pred, counting nested matches once."""
        mask = self._in(pred) & ~self.below(pred)
        if within is not None:
            mask &= self.below(within)
        return float(self.dur[mask].sum())

    def self_times(self) -> dict:
        """Per span name: total duration minus the time its children cover."""
        np = self.np
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        totals = np.bincount(self.name, weights=self.dur - child,
                             minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names) if totals[i]}

    def save(self, path):
        self.np.savez(path, names=self.np.array(self.names), name=self.name,
                      parent=self.parent, start=self.start, end=self.end)


def replay_certificates(lps) -> tuple[float, bool]:
    """Mean milliseconds per LP to re-check its certificate, and whether all held.

    Uses the kernel's public checks: point feasibility and the dual
    certificate for an optimum, the Farkas vector for infeasibility, the ray
    for unboundedness.
    """
    numerics = importlib.import_module("sandwichkit.numerics")
    total = 0.0
    ok = True
    for lp, res in lps:
        t0 = time.perf_counter()
        if res.status == "optimal":
            good = (numerics.check_point_feasible(lp, res.point)
                    and numerics.check_dual_certificate(lp, res.dual, res.value))
        elif res.status == "infeasible":
            good = numerics.check_farkas_certificate(lp, res.farkas)
        else:
            good = numerics.check_ray_certificate(lp, res.ray)
        total += time.perf_counter() - t0
        ok = ok and good
    return (total / len(lps) * 1e3 if lps else 0.0), ok
