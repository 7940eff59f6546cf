"""Spans and counters recorded around calls into trilocal's layers.

In a traced run the benchmark replaces chosen public functions and
methods of trilocal with wrappers, from outside: every module attribute
bound to the original function is rebound, so calls made through
``from .x import f`` copies and recursive calls are seen too.  The
program's source is not edited.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end, op index)
        self.counts = defaultdict(int)  # (op index, name) -> count
        self.maxima = defaultdict(int)  # (op index, name) -> max
        self.op = None
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------------
    def span_wrapper(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op))
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def note_max(self, name, value):
        key = (self.op, name)
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- installing -------------------------------------------------------------
    def _rebind(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "trilocal" and not modname.startswith("trilocal."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def wrap_function(self, module, attr, name, on_result=None, count_only=False):
        original = getattr(module, attr)
        if count_only:
            replacement = self.count_wrapper(name, original)
        else:
            replacement = self.span_wrapper(name, original, on_result)
        self._rebind(original, replacement)

    def wrap_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.span_wrapper(name, original))
        self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------------
    def times_by_op(self):
        """{op: {name: [inclusive seconds, self seconds, calls]}}."""
        child_time = defaultdict(float)
        for sid, parent, name, start, end, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for sid, parent, name, start, end, op in self.spans:
            entry = out[op][name]
            entry[0] += end - start
            entry[1] += end - start - child_time[sid]
            entry[2] += 1
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")


def entry_bits(x):
    """Largest bit length of a numerator or denominator inside a ring element."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if hasattr(x, "coeffs"):  # polynomial
        return max((entry_bits(c) for c in x.coeffs), default=0)
    if hasattr(x, "num") and hasattr(x, "exp"):  # k-adic fraction num / k**exp
        return max(abs(x.num).bit_length(), (x.k ** x.exp).bit_length())
    raise TypeError(f"no bit length for {x!r}")


def transform_bits(tracer, form):
    """on_result hook for diagonal forms: the largest entry of U and V."""
    bits = 0
    for matrix in (form.U, form.V):
        for row in matrix.rows:
            for x in row:
                bits = max(bits, entry_bits(x))
    tracer.note_max("linalg.transform_bits_max", bits)


def calibrated_layers(tracer, traced):
    """Per operation of a traced pass: (position, {name: (inclusive s, self s, calls)}),
    with times multiplied by the operation's calibration factor."""
    by_op = tracer.times_by_op()
    rows = []
    for k, factor in zip(traced.positions, traced.factors):
        layers = by_op.get(k, {})
        rows.append((k, {name: (inc * factor, own * factor, calls) for name, (inc, own, calls) in layers.items()}))
    return rows


def mean_ms(rows, name, part=0):
    """Mean calibrated ms per operation of a span's inclusive (part 0) or self (part 1) time."""
    return 1000 * sum(layers[name][part] for _, layers in rows if name in layers) / len(rows)


def per_call_ms(rows, name):
    calls = sum(layers[name][2] for _, layers in rows if name in layers)
    return 1000 * sum(layers[name][0] for _, layers in rows if name in layers) / calls
