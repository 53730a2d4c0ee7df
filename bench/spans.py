"""Spans around the calls into each layer of rscount, recorded from outside.

Each traced function is replaced, for the duration of a ``traced`` block, at
every attribute of an rscount module or class that holds it -- so the copy
that ``cli`` imported by name is wrapped as well as the original.  A span
records the job it served, its name, its parent span, and its start and end.
Self time is a span's duration minus the time its traced children covered,
the children's own tracing bookkeeping included.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import Counter
from time import perf_counter


def _series_size(_args, result, gauges: Counter) -> None:
    gauges["series.max_order"] = max(gauges["series.max_order"], result.order)
    bits = gauges["series.coeff_max_bits"]
    for coefficient in result.coeffs:
        values = coefficient.terms.values() if hasattr(coefficient, "terms") else (coefficient,)
        for value in values:
            bits = max(bits, value.numerator.bit_length(), value.denominator.bit_length())
    gauges["series.coeff_max_bits"] = bits


def _poly_size(args, _result, gauges: Counter) -> None:
    gauges["rings.multipoly_max_terms"] = max(gauges["rings.multipoly_max_terms"],
                                              len(args[0].terms))


def _rendered_bytes(_args, result, gauges: Counter) -> None:
    gauges["output.bytes"] += len(result)


# Span name -> (rscount module, attribute, gauge run on each return).
TRACED = {
    "cli.main": ("cli", "main", None),
    "output.render": ("output", "render", _rendered_bytes),
    "rsbounds.rs_lower_bound": ("rsbounds", "rs_lower_bound", None),
    "rsbounds.find_degree_exceeding": ("rsbounds", "find_degree_exceeding", None),
    "charclass.char_number": ("charclass", "char_number", None),
    "charclass.a_hat_genus": ("charclass", "a_hat_genus", None),
    "charclass.rs_index": ("charclass", "rs_index", None),
    "charclass.char_number_polynomial": ("charclass", "char_number_polynomial", None),
    "series.mul": ("series", "PowerSeries.__mul__", _series_size),
    "series.invert": ("series", "PowerSeries.invert", _series_size),
    "series.pow": ("series", "PowerSeries.__pow__", _series_size),
    "series.scale_arg": ("series", "PowerSeries.scale_arg", _series_size),
    "rings.multipoly_mul": ("rings", "MultiPoly.__mul__", None),
    "rings.multipoly_init": ("rings", "MultiPoly.__init__", _poly_size),
}
# What the gauges record: largest sizes seen, and bytes rendered.
GAUGES = {"series.max_order": "count", "series.coeff_max_bits": "bits",
          "rings.multipoly_max_terms": "count", "output.bytes": "bytes"}


def _targets():
    """(span name, holder, attribute, original, gauge) for every place that
    holds a traced function: a class for methods (aliases such as __rmul__
    included), else every rscount module that defines or imported it."""
    namespaces = [module for name, module in sys.modules.items()
                  if name == "rscount" or name.startswith("rscount.")]
    for name, (module, attribute, gauge) in TRACED.items():
        owner = importlib.import_module(f"rscount.{module}")
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        for holder in [owner] if path else namespaces:
            for key, value in list(vars(holder).items()):
                if value is original:
                    yield name, holder, key, original, gauge


class Tracer:
    """Keeps every span, and aggregates calls, self time, parent->child call
    counts and size gauges (largest sizes seen, bytes rendered)."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.edges = Counter()          # (parent name, child name) -> calls
        self.gauges = Counter()
        self.spans = []                 # (job, name, parent index, start, end)
        self.job = -1
        self._stack = []                # [span index, child seconds, name]

    def _wrap(self, name, function, gauge):
        stack, spans, clock = self._stack, self.spans, perf_counter
        calls, self_s, edges, gauges = self.calls, self.self_s, self.edges, self.gauges
        tracer = self

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, name]
            stack.append(frame)
            try:
                start = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    calls[name] += 1
                    self_s[name] += end - start - frame[1]
                    if parent is not None:
                        edges[parent[2], name] += 1
                    spans[index] = (tracer.job, name,
                                    parent[0] if parent is not None else -1, start, end)
                if gauge is not None:
                    gauge(args, result, gauges)
                return result
            finally:
                if parent is not None:
                    parent[1] += clock() - enter

        return traced

    @contextlib.contextmanager
    def traced(self):
        """Wrap every traced function for the duration of the block."""
        patched = []
        try:
            for name, holder, key, original, gauge in list(_targets()):
                setattr(holder, key, self._wrap(name, original, gauge))
                patched.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for job, name, parent, start, end in self.spans:
                out.write(json.dumps({"job": job, "name": name, "parent": parent,
                                      "start": start, "end": end}) + "\n")
