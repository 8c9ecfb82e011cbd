"""Spans around the public calls of cslindex, kept in memory.

`Tracer.installed` replaces every reference to a traced function inside the
loaded cslindex modules with a timed wrapper, so calls between layers (the
Smith form inside `index_fortes`, `intersection_hnf` inside `index_by_hnf`)
get spans with their caller as parent.  The package itself is not changed,
and the originals are put back on exit.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# <module>.<function> for every traced call, as the per-layer metrics name them.
TRACED = (
    "matrices.parse_rat_matrix",
    "matrices.parse_int_matrix",
    "isometry.from_rational_matrix",
    "isometry.reflection",
    "isometry.compose",
    "indices.index_fortes",
    "indices.index_closed_form",
    "indices.index_coprime_product",
    "normalform.smith_normal_form",
    "oracle.index_by_counting",
    "oracle.index_by_hnf",
    "oracle.intersection_hnf",
    "spectrum.reflection_witness_axis",
    "spectrum.three_square_decompose",
    "spectrum.four_square_odd_decompose",
    "cli.main",
)


def _q_bits(counters, y):
    counters["isometry.q_bits_max"] = max(counters.get("isometry.q_bits_max", 0), y.q.bit_length())


def _transform_bits(counters, dec):
    bits = max(abs(x).bit_length() for m in (dec.p, dec.q_right) for x in m.entries)
    key = "normalform.smith_normal_form.transform_bits_max"
    counters[key] = max(counters.get(key, 0), bits)


def _none_counter(key):
    def observe(counters, result):
        if result is None:
            counters[key] = counters.get(key, 0) + 1

    return observe


# Counters read from return values, after the span has closed.
OBSERVERS = {
    "isometry.from_rational_matrix": _q_bits,
    "isometry.reflection": _q_bits,
    "isometry.compose": _q_bits,
    "normalform.smith_normal_form": _transform_bits,
    "spectrum.reflection_witness_axis": _none_counter("spectrum.reflection_witness_axis.none"),
    "spectrum.three_square_decompose": _none_counter("spectrum.three_square_decompose.excluded"),
}


COUNTERS = (
    "isometry.q_bits_max",
    "normalform.smith_normal_form.transform_bits_max",
    "spectrum.reflection_witness_axis.none",
    "spectrum.three_square_decompose.excluded",
)


class Tracer:
    """Spans are [name, start, end, parent index or -1, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers into every loaded cslindex module."""
        wrappers = {}
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(sys.modules[f"cslindex.{module}"], func)
            wrappers[id(original)] = self._wrap(name, original)
        replaced = []
        for modname, module in list(sys.modules.items()):
            if modname != "cslindex" and not modname.startswith("cslindex."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)


def summarize(spans, op_time: float) -> dict[str, float]:
    """Per-call totals over op spans, the CLI sample's cli.main, and coverage.

    `share` is inclusive time over op time: nested calls count in their own
    line and in their caller's.  cli.main runs outside the ops, so its share
    is the CLI sample's time relative to op time.
    """
    calls = dict.fromkeys(TRACED, 0)
    total = dict.fromkeys(TRACED, 0.0)
    covered = 0.0
    for name, start, end, parent, op in spans:
        in_op = isinstance(op, int)
        if in_op or name == "cli.main":
            calls[name] += 1
            total[name] += end - start
        if in_op and parent == -1:
            covered += end - start
    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.share"] = total[name] / op_time
    out["trace.uncovered_frac"] = 1.0 - covered / op_time
    return out
