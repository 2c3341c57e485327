"""Span tracing of the suborbit layers, from outside the package.

The package imports names with ``from .x import y``, so wrapping
``suborbit.lie.centralizer`` alone would miss every call made through
``suborbit.orbit.centralizer`` and the like.  ``Tracer.install`` therefore
replaces a function at every place a ``suborbit`` module holds it, and
``Tracer.uninstall`` puts the originals back.  Each wrapper records a span
(name, start, end, parent span, case id) and returns its callee's result
unchanged.  ``numpy.linalg.svd`` gets a span as well; ``numpy.einsum`` and
``numpy.tensordot`` are only counted, since they run thousands of times per
case.  Spans are kept in memory; ``write_jsonl`` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# module -> public functions timed as that module's layer
LAYERS = {
    "bridge": ("run_case",),
    "orbit": ("build_setup", "build_witness_x0"),
    "generic": ("estimate_generic_dims", "is_in_R", "perturb_into_R",
                "reduction_data"),
    "pencil": ("kronecker_test",),
    "momentmap": ("build_moment_data", "m_a_estimate", "regular_in_kprime_test"),
    "roots": ("root_split", "verify_regular_pencil"),
    "invariants": ("build_family", "completeness_check", "involutivity_suite"),
    "flows": ("build_flow", "integrate_flow", "conservation_report"),
    "lie": ("centralizer",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

SVD = "linalg.svd"
SVD_LARGE = "linalg.svd.large"
# an SVD input of at least this many elements counts as large
LARGE_SVD_ELEMENTS = 100_000
COUNTED_NUMPY = ("einsum", "tensordot")


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, case]
        self.counts: Counter = Counter()
        self.case = None
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def timed_svd(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            name = SVD_LARGE if np.size(a) >= LARGE_SVD_ELEMENTS else SVD
            span = self._open(name)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._close(span)
            parts = out if isinstance(out, tuple) else (out,)
            self.counts["linalg.svd.out_bytes"] += sum(p.nbytes for p in parts)
            return out
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer function wherever a suborbit module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "suborbit"
                                         or name.startswith("suborbit."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules.get(f"suborbit.{mod_name}")
            for fn in fns:
                orig = getattr(home, fn, None)
                if orig is None:
                    self.unwrapped.append(f"{mod_name}.{fn}")
                    continue
                wrapper = self.timed(f"{mod_name}.{fn}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        self._patch(np.linalg, "svd", self.timed_svd(np.linalg.svd))
        for fn in COUNTED_NUMPY:
            self._patch(np, fn, self.counted(f"numpy.{fn}.calls", getattr(np, fn)))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, case) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "case": case}) + "\n")


def aggregate(spans, first: int = 0) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts a span only when no ancestor has the same name, so
    the nested ``run_case`` of the reduction path is not counted twice.  Self
    time is a span's duration minus the durations of its direct children.
    """
    child = Counter()
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child[i]
        p = parent
        while p >= first and spans[p][0] != name:
            p = spans[p][3]
        if p < first:
            rec["s"] += end - start
    return out
