"""Spans and counters for the traced passes.

The benchmark wraps its own calls into each layer in `tracer.span(name)`.
Untraced passes use `NULL_TRACER`, whose spans do nothing.  `instrumented`
additionally wraps a few names that one layer imports from another, so that
time spent inside them is attributed to the layer that defines them.  It
patches module attributes of the running process only and restores them on
exit; no library file changes.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_MB = 1 << 20

# Spans inside which a sparse_nullspace call solves intertwiner constraints.
_INTERTWINER_SOLVES = (
    "matrix_models.hom_triple_eta",
    "matrix_models.hom_res_theta_prime",
)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name, degree=None, peak=False):
        return self._span


NULL_TRACER = _NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "degree", "peak", "owns_tracemalloc", "t0")

    def __init__(self, tracer, name, degree, peak):
        self.tracer = tracer
        self.name = name
        self.degree = degree
        self.peak = peak
        self.owns_tracemalloc = False

    def __enter__(self):
        self.tracer._stack.append([self.name, 0.0])
        if self.peak and not tracemalloc.is_tracing():
            tracemalloc.start()
            self.owns_tracemalloc = True
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        dur = perf_counter() - self.t0
        tr = self.tracer
        st = tr.stats
        _, child = tr._stack.pop()
        name = self.name
        if self.owns_tracemalloc:
            peak_mb = tracemalloc.get_traced_memory()[1] / _MB
            tracemalloc.stop()
            st[f"{name}.peak_mb"] = max(st[f"{name}.peak_mb"], peak_mb)
        st[f"{name}.s"] += dur
        st[f"{name}.self_s"] += dur - child
        st[f"{name}.calls"] += 1
        if self.degree is not None:
            st[f"{name}.s.n{self.degree}"] += dur
            st[f"{name}.calls.n{self.degree}"] += 1
        if tr._stack:
            tr._stack[-1][1] += dur
        else:
            tr.covered_s += dur
        return False


class Tracer:
    """Accumulates span busy time, self time, calls and counters by name."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.covered_s = 0.0  # time inside top-level spans
        self._stack = []  # [span name, seconds spent in child spans]

    @property
    def current(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, name, degree=None, peak=False):
        return _Span(self, name, degree, peak)

    def count(self, name, k=1):
        self.stats[name] += k


def _wrap_nullspace(tr, orig):
    def sparse_nullspace(rows, ncols, *args, **kw):
        rows = list(rows)
        if tr.current in _INTERTWINER_SOLVES:
            tr.count("matrix_models.constraint_rows", len(rows))
        with tr.span("linalg.sparse_nullspace"):
            basis = orig(rows, ncols, *args, **kw)
        tr.count("linalg.sparse_nullspace.rows", len(rows))
        tr.count("linalg.sparse_nullspace.cols", ncols)
        tr.count("linalg.sparse_nullspace.nullity", len(basis))
        return basis

    return sparse_nullspace


def _wrap_classes(tr, orig):
    def conjugacy_classes(n):
        with tr.span("elements.conjugacy_classes", degree=n):
            return orig(n)

    return conjugacy_classes


@contextmanager
def instrumented(tr, lib):
    """Wrap cross-layer imports of sparse_nullspace and conjugacy_classes.

    A name that a later version of the library no longer imports is left
    alone, and its metrics read 0.
    """
    saved = []

    def patch(module, name, wrap, original):
        if original is not None and getattr(module, name, None) is original:
            saved.append((module, name, original))
            setattr(module, name, wrap(tr, original))

    patch(
        lib.matrix_models,
        "sparse_nullspace",
        _wrap_nullspace,
        getattr(lib.linalg, "sparse_nullspace", None),
    )
    classes = getattr(lib.elements, "conjugacy_classes", None)
    for module in vars(lib).values():
        if module is not lib.elements:
            patch(module, "conjugacy_classes", _wrap_classes, classes)
    try:
        yield tr
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def cache_stats(lib, cached):
    """hits, misses and currsize of each lru_cached function, by name."""
    out = {}
    for module, fn in cached:
        info = getattr(getattr(getattr(lib, module), fn, None), "cache_info", None)
        if info is None:
            continue
        ci = info()
        out[f"cache.{fn}.hits"] = ci.hits
        out[f"cache.{fn}.misses"] = ci.misses
        out[f"cache.{fn}.currsize"] = ci.currsize
    return out
