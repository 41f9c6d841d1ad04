"""Layer tracing from outside the laxchain package.

The tracer wraps public callables where they are bound (module attributes
and class attributes), records a span for every wrapped call and counts the
arithmetic dunders of ``Fraction``, ``QuadExt`` and ``Jet``.  Nothing inside
the package is edited: :meth:`Tracer.installed` patches on entry and
restores every original on exit, so an untraced pass in the same process
runs the unmodified code.

A span is ``[name, start, end, parent, group]``: ``parent`` is the index of
the enclosing span (-1 at the top), ``group`` the id shared by all spans of
one certified sample, one integration or one solve.  Spans stay in memory;
:meth:`Tracer.dump` writes them out at the end of a run, beside the calls,
time and self time of every span name per case.
"""

import importlib
import json
import time
from contextlib import contextmanager
from fractions import Fraction

# (span name, module, attribute) of every wrapped function binding.  A
# function imported into several modules is wrapped at each binding that
# the benchmarked commands call through.
SPAN_BINDINGS = (
    ("verify.draw_sample", "laxchain.verify", "draw_sample"),
    ("darboux.darboux_data", "laxchain.verify", "darboux_data"),
    ("darboux.darboux_data", "laxchain.darboux", "darboux_data"),
    ("darboux.factorization_check", "laxchain.verify", "factorization_check"),
    ("darboux.commutator_x_check", "laxchain.verify", "commutator_x_check"),
    ("darboux.commutator_y_check", "laxchain.verify", "commutator_y_check"),
    ("darboux.chain_residuals", "laxchain.verify", "chain_residuals"),
    ("darboux.chain_residuals", "laxchain.darboux", "chain_residuals"),
    ("darboux.solve_tail_constants", "laxchain.verify", "solve_tail_constants"),
    ("darboux.transformed_operator", "laxchain.verify", "transformed_operator"),
    ("darboux.transformed_operator", "laxchain.darboux", "transformed_operator"),
    ("flows.prolong_gamma_jets", "laxchain.verify", "prolong_gamma_jets"),
    ("flows.prolong_gamma_jets", "laxchain.darboux", "prolong_gamma_jets"),
    ("flows.rk4_integrate", "laxchain.cli", "rk4_integrate"),
    ("elliptic.wp_trajectory", "laxchain.cli", "wp_trajectory"),
    ("spectral.commutant_solve_exact", "laxchain.cli", "commutant_solve_exact"),
    ("spectral.commutant_solve_windowed", "laxchain.cli", "commutant_solve_windowed"),
    ("spectral.exact_commutator_is_zero", "laxchain.cli", "exact_commutator_is_zero"),
    ("spectral.commutator_polynomial_bands", "laxchain.spectral",
     "commutator_polynomial_bands"),
    ("rational_linalg.rref", "laxchain.rational_linalg", "rref"),
    ("rational_linalg.rref", "laxchain.spectral", "rref"),
)

# Input sizes counted at a span's entry, keyed by span name.
ARG_SIZES = {
    "rational_linalg.rref": lambda matrix: {
        "rows": len(matrix),
        "cols": len(matrix[0]) if matrix else 0,
    },
}

# Spans that open a new group: one per certified sample (each sample starts
# with its draw) and one per CLI call (an integration or a solve).
GROUP_OPENERS = ("verify.draw_sample", "cli.main")

# Arithmetic dunders counted per scalar type, folded into add/mul/div.
DUNDER_KINDS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "add",
    "__rsub__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._group = 0

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if name in GROUP_OPENERS:
            self._group += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self._group]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span_wrapper(self, name, fn):
        tracer = self
        sizes = ARG_SIZES.get(name)

        def wrapper(*args, **kwargs):
            if sizes is not None:
                for key, amount in sizes(*args, **kwargs).items():
                    tracer.count(f"{name}.{key}", amount)
            return tracer.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(a, b):
            counts[key] = counts.get(key, 0) + 1
            return fn(a, b)

        return wrapper

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block."""
        from laxchain.curves import SpectralCurve
        from laxchain.operators import OperatorWindow
        from laxchain.scalars import Jet, QuadExt

        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        tracer = self
        try:
            for name, module, attr in SPAN_BINDINGS:
                mod = importlib.import_module(module)
                patch(mod, attr, self._span_wrapper(name, getattr(mod, attr)))

            from_operator = OperatorWindow.__dict__["from_operator"].__func__

            def traced_from_operator(cls, op, n0, n1):
                return tracer.call("operators.window", from_operator, cls, op, n0, n1)

            patch(OperatorWindow, "from_operator", classmethod(traced_from_operator))
            patch(
                OperatorWindow,
                "is_zero",
                self._span_wrapper("operators.is_zero", OperatorWindow.is_zero),
            )

            # draws per accepted sample: curve constructions made by the
            # sampler in laxchain.verify
            class CountingCurve(SpectralCurve):
                @classmethod
                def elliptic(cls, c2, c1, c0):
                    tracer.count("verify.draw_sample.draws")
                    return SpectralCurve.elliptic(c2, c1, c0)

            verify = importlib.import_module("laxchain.verify")
            patch(verify, "SpectralCurve", CountingCurve)

            for label, cls in (("fraction", Fraction), ("quadext", QuadExt), ("jet", Jet)):
                for dunder, kind in DUNDER_KINDS.items():
                    if dunder in cls.__dict__:
                        key = f"scalars.{label}.{kind}"
                        patch(cls, dunder, self._count_wrapper(key, cls.__dict__[dunder]))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------

    def mark(self):
        """Position to pass to :meth:`summary` for the spans recorded next."""
        return len(self.spans), dict(self.counts)

    def summary(self, mark):
        """Per-name ``calls``, ``ms`` and ``self_ms``, plus counter deltas,
        over the spans recorded since ``mark``."""
        first, counts_before = mark
        spans = self.spans[first:]
        children = {}
        for i, (_, start, end, parent, _) in enumerate(spans, start=first):
            if parent >= first:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            dur = end - start
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += 1e3 * dur
            entry["self_ms"] += 1e3 * (dur - _covered(children.get(i, ())))
        counts = {
            k: v - counts_before.get(k, 0)
            for k, v in self.counts.items()
            if v != counts_before.get(k, 0)
        }
        return out, counts

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start", "end", "parent", "group"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )


def _covered(intervals):
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
