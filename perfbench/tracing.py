"""Layer spans recorded from outside the program.

Each public function of a layer is wrapped wherever a caller looks it
up: ``char_fn`` in the ``models``, ``cos_engine`` and ``transform_refs``
namespaces, ``price`` and the two oracle pricers in ``harness`` as well
as in their home modules.  A wrapper records a span (name, start, end,
parent, operation id) and the work its arguments carry.  Spans are kept
in memory for the current operation and folded into per-layer totals
when it ends.  A layer's self time is its span's duration minus the
durations of its child spans.

A wrapped name that no caller looks up any more still reports its
metrics, as zero calls, and is named in a warning.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

CHAR_FN = "models.char_fn"
SCALAR = CHAR_FN + ":scalar"
VECTOR = CHAR_FN + ":vector"
CUMULANTS = "models.cumulants"
PRICE = "cos_engine.price"
INTEGRAL = "transform_refs.price_fourier_integral"
CARR_MADAN = "transform_refs.price_carr_madan"
COEFFICIENTS = ("cos_engine.call_coefficients", "cos_engine.put_coefficients", "cos_engine.chi")
DRIVERS = ("harness.run_strike_table", "harness.run_convergence")

COS = ("chain", "reference")
# layer, module looked up in, attribute, workloads expected to call through it
BINDINGS = (
    ("harness.run_strike_table", "harness", "run_strike_table", ("chain", "oracles")),
    ("harness.run_convergence", "harness", "run_convergence", ("reference",)),
    (PRICE, "harness", "price", COS),
    (PRICE, "cos_engine", "price", ()),
    (CUMULANTS, "cos_engine", "cumulants", COS),
    (CUMULANTS, "models", "cumulants", ()),
    (CHAR_FN, "models", "char_fn", COS),
    (CHAR_FN, "cos_engine", "char_fn", COS),
    (CHAR_FN, "transform_refs", "char_fn", ("oracles",)),
    ("cos_engine.call_coefficients", "cos_engine", "call_coefficients", COS),
    ("cos_engine.put_coefficients", "cos_engine", "put_coefficients", COS),
    ("cos_engine.chi", "cos_engine", "chi", COS),
    (INTEGRAL, "harness", "price_fourier_integral", ("oracles",)),
    (INTEGRAL, "transform_refs", "price_fourier_integral", ()),
    (CARR_MADAN, "harness", "price_carr_madan", ("oracles",)),
    (CARR_MADAN, "transform_refs", "price_carr_madan", ()),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder and per-layer totals for one traced phase."""

    def __init__(self, workload: str):
        self.workload = workload
        self.op_id = 0
        self.spans = []  # current operation: [name, start, end, parent, op_id]
        self.stack = []
        self.binding_calls = defaultdict(int)
        self.missing = []
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)
        self.distinct = defaultdict(int)
        self._op_keys = defaultdict(set)
        self.op_walls = []

    # -- recording -----------------------------------------------------

    def _span_name(self, layer: str, args, kwargs) -> str:
        """Record the work an argument list carries; return the span name."""
        if layer == CHAR_FN:
            model, market = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "market")
            u = _arg(args, kwargs, 2, "u")
            if np.ndim(u) == 0:
                return SCALAR
            arr = np.asarray(u, dtype=np.complex128)
            self.work["char_fn.points"] += arr.size
            self._op_keys[VECTOR].add((model, market, arr.shape, hash(arr.tobytes())))
            return VECTOR
        if layer == CUMULANTS:
            key = (_arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "market"))
            self._op_keys[CUMULANTS].add(key)
        elif layer == PRICE:
            self.work["price.terms"] += _arg(args, kwargs, 3, "config").n_terms
        elif layer == CARR_MADAN:
            self.work["carr_madan.strikes"] += len(_arg(args, kwargs, 2, "strikes"))
        return layer

    def call(self, layer: str, fn, args, kwargs):
        name = self._span_name(layer, args, kwargs)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def end_op(self, wall_s: float) -> None:
        """Fold the current operation's spans into the layer totals."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self.calls[name] += 1
            self.incl_s[name] += end - start
            self.self_s[name] += end - start - children[i]
            if name == SCALAR:
                while parent >= 0 and self.spans[parent][0] != INTEGRAL:
                    parent = self.spans[parent][3]
                if parent >= 0:
                    self.work["integral.char_fn_calls"] += 1
        for name, keys in self._op_keys.items():
            self.distinct[name] += len(keys)
        self._op_keys.clear()
        self.spans = []
        self.op_walls.append(wall_s)
        self.op_id += 1

    # -- installation --------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        restore = []
        try:
            for layer, module_name, attr, _ in BINDINGS:
                module = importlib.import_module(f"cospricer.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                restore.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, (module_name, attr), original))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def _wrap(self, layer: str, binding: tuple, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.binding_calls[binding] += 1
            return self.call(layer, fn, args, kwargs)

        return wrapper

    def warnings(self) -> list:
        """Bindings this workload should call through but did not."""
        out = [f"{name} is no longer defined; its layer reports 0 calls" for name in self.missing]
        for layer, module_name, attr, expected in BINDINGS:
            name = f"{module_name}.{attr}"
            if (self.workload in expected and name not in self.missing
                    and not self.binding_calls[(module_name, attr)]):
                out.append(f"{name} was never called; {layer} misses those calls")
        return out

    # -- metrics -------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-operation layer metrics: name -> (value, unit).

        overhead_ratio is the traced over the untraced median latency.
        """
        n = max(len(self.op_walls), 1)

        def per_op(x):
            return x / n

        def ms(name):
            return per_op(self.self_s[name] * 1e3)

        def ratio(a, b):
            return a / b if b else 0.0

        vec_calls = self.calls[VECTOR]
        points = self.work["char_fn.points"]
        terms = self.work["price.terms"]
        out = {
            "models.cumulants.calls_per_op": (per_op(self.calls[CUMULANTS]), "count"),
            "models.cumulants.incl_ms_per_op": (per_op(self.incl_s[CUMULANTS] * 1e3), "ms"),
            "models.cumulants.distinct_ratio": (
                ratio(self.distinct[CUMULANTS], self.calls[CUMULANTS]), "ratio"),
            "models.char_fn.vector_calls_per_op": (per_op(vec_calls), "count"),
            "models.char_fn.vector_points_per_op": (per_op(points), "count"),
            "models.char_fn.vector_self_ms_per_op": (ms(VECTOR), "ms"),
            "models.char_fn.ns_per_point": (ratio(self.self_s[VECTOR] * 1e9, points), "ns"),
            "models.char_fn.distinct_ratio": (ratio(self.distinct[VECTOR], vec_calls), "ratio"),
            "models.char_fn.scalar_calls_per_op": (per_op(self.calls[SCALAR]), "count"),
            "models.char_fn.scalar_self_ms_per_op": (ms(SCALAR), "ms"),
            "cos_engine.price.calls_per_op": (per_op(self.calls[PRICE]), "count"),
            "cos_engine.price.self_ms_per_op": (ms(PRICE), "ms"),
            "cos_engine.price.terms_per_op": (per_op(terms), "count"),
            "cos_engine.price.ns_per_term": (ratio(self.self_s[PRICE] * 1e9, terms), "ns"),
        }
        for layer in COEFFICIENTS:
            out[f"{layer}.calls_per_op"] = (per_op(self.calls[layer]), "count")
            out[f"{layer}.self_ms_per_op"] = (ms(layer), "ms")
        out.update({
            f"{INTEGRAL}.calls_per_op": (per_op(self.calls[INTEGRAL]), "count"),
            f"{INTEGRAL}.self_ms_per_op": (ms(INTEGRAL), "ms"),
            f"{INTEGRAL}.char_fn_calls_per_price": (
                ratio(self.work["integral.char_fn_calls"], self.calls[INTEGRAL]), "count"),
            f"{CARR_MADAN}.calls_per_op": (per_op(self.calls[CARR_MADAN]), "count"),
            f"{CARR_MADAN}.self_ms_per_op": (ms(CARR_MADAN), "ms"),
            f"{CARR_MADAN}.strikes_per_call": (
                ratio(self.work["carr_madan.strikes"], self.calls[CARR_MADAN]), "count"),
        })
        for layer in DRIVERS:
            out[f"{layer}.self_ms_per_op"] = (ms(layer), "ms")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        out["trace.coverage"] = (ratio(sum(self.self_s.values()), sum(self.op_walls)), "ratio")
        return out

    def shares(self) -> dict:
        """Self time of each span name as a share of traced wall time."""
        wall = sum(self.op_walls) or 1.0
        return {name: s / wall for name, s in sorted(self.self_s.items(), key=lambda kv: -kv[1])}


def warn(lines) -> None:
    for line in lines:
        print(f"perfbench: warning: {line}", file=sys.stderr)
