"""Traced runs: wrap the public functions of every ``bernstein`` module
from the outside and derive the per-layer metrics.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each public
module-level function, and each public method or arithmetic operator of
a public class, by a wrapper that records calls, inclusive time and
self time (inclusive time minus the time of wrapped callees, kept on a
call stack).  A call made directly from a call with the same label,
such as ``MultiPoly.__rmul__`` delegating to ``__mul__`` or a function
recursing into itself, is folded into the outer call: it is neither
counted again nor given a frame of its own.  Every binding of a wrapped function is patched, including
names imported into other modules (``is_bernstein`` in ``train``,
``elements`` and ``catalog``; ``bilinear_product`` in ``symbolic``) and
function values of module-level dicts such as the CLI's constructor
table.  Spans of each job and of each top-level entry point are kept in
memory and written at the end as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "fileformat", "catalog", "structure", "symbolic",
          "elements", "train", "core", "multipoly", "linalg", "groebner")

OPERATORS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add",
             "__radd__": "add", "__sub__": "add", "__rsub__": "add",
             "__neg__": "neg", "__pow__": "pow", "__truediv__": "div",
             "__call__": "call"}


def _product_name(args, kwargs):
    """bilinear_product splits by coordinate type: symbolic coordinates
    are MultiPoly, concrete ones are Fractions."""
    zero = args[3] if len(args) > 3 else kwargs.get("zero")
    kind = "symbolic" if type(zero).__name__ == "MultiPoly" else "concrete"
    return f"core.product_{kind}"


class Tracer:
    """Call statistics, counters and spans of one traced run."""

    def __init__(self):
        self.stats = {}            # name -> [calls, inclusive s, self s]
        self.counts = Counter()
        self.spans = []            # (name, category, start s, duration s)
        self._stack = []           # [name, child seconds]
        self._express_seen = set()
        self._origin = time.perf_counter()

    # ---------------------------------------------------------- install

    def install(self):
        """Wrap every public function and patch all of its bindings."""
        modules = [importlib.import_module(f"bernstein.{m}") for m in LAYERS]
        modules.append(importlib.import_module("bernstein"))
        replaced = {}
        for module in modules[:-1]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr in OPERATORS:
                label = OPERATORS[attr]
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            setattr(cls, attr, self._wrap(obj, f"{layer}.{cls.__name__}.{label}"))

    def _wrap(self, func, name):
        namer = _product_name if name == "core.bilinear_product" else None
        after = self._counters(name)
        counts_hits = name == "structure.is_bernstein"
        counts = self.counts
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            if stack and stack[-1][0] == label:
                return func(*args, **kwargs)
            before = counts["symbolic.check_identity.calls"] \
                if counts_hits else None
            top = not stack
            stack.append([label, 0.0])
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                _, child = stack.pop()
                rec = stats.get(label)
                if rec is None:
                    rec = stats[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
                if stack:
                    stack[-1][1] += elapsed
                if top:
                    self.spans.append((label, "entry", start, elapsed))
            if after is not None:
                after(args, kwargs, result, before)
            return result
        return wrapper

    def _counters(self, name):
        """Counting hook run after a successful call of ``name``."""
        counts = self.counts

        if name == "multipoly.MultiPoly.mul":
            def after(args, kwargs, result, before):
                terms = getattr(result, "terms", None)
                if terms is not None:
                    counts["multipoly.terms_out"] += len(terms)
            return after
        if name in ("linalg.rref", "linalg.solve"):
            def after(args, kwargs, result, before):
                m = args[0]
                counts["linalg.cells"] += len(m) * (len(m[0]) if m else 0)
            return after
        if name == "linalg.express":
            seen = self._express_seen

            def after(args, kwargs, result, before):
                key = tuple(tuple(v) for v in args[0])
                if key in seen:
                    counts["linalg.express.repeats"] += 1
                seen.add(key)
            return after
        if name == "symbolic.check_identity":
            def after(args, kwargs, result, before):
                counts["symbolic.check_identity.calls"] += 1
                if not result:
                    counts["symbolic.refuted"] += 1
            return after
        if name == "structure.is_bernstein":
            def after(args, kwargs, result, before):
                if counts["symbolic.check_identity.calls"] == before:
                    counts["structure.is_bernstein.hits"] += 1
            return after
        if name == "train.eval_tree":
            def after(args, kwargs, result, before):
                counts["train.trees_evaluated"] += 1
            return after
        return None

    # ------------------------------------------------------------- jobs

    @contextlib.contextmanager
    def job(self, job):
        """Span of one job; ``express`` repeats are counted per job."""
        self._express_seen.clear()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((job.name, "job", start,
                               time.perf_counter() - start))

    def write_chrome_trace(self, path):
        events = []
        for name, cat, start, dur in self.spans:
            events.append({"name": name, "cat": cat, "ph": "X", "pid": 1,
                           "tid": 1 if cat == "job" else 2,
                           "ts": round((start - self._origin) * 1e6, 3),
                           "dur": round(dur * 1e6, 3)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

    # ---------------------------------------------------------- metrics

    def _sum(self, names, column):
        return sum(self.stats[n][column] for n in names if n in self.stats)

    def _layer_self(self, layer):
        return sum(rec[2] for name, rec in self.stats.items()
                   if name.split(".", 1)[0] == layer)

    def metrics(self, traced_wall, overhead_ratio):
        """Per-layer metrics of one traced pass that took ``traced_wall``
        seconds, ``overhead_ratio`` times the untraced pass."""
        c, s = self.counts, self._sum
        mul = ["multipoly.MultiPoly.mul"]
        add = ["multipoly.MultiPoly.add"]
        express_calls = s(["linalg.express"], 0)
        bern_calls = s(["structure.is_bernstein"], 0)
        covered = sum(self._layer_self(layer) for layer in LAYERS)
        out = {
            "multipoly.mul.calls": s(mul, 0),
            "multipoly.mul.self_s": s(mul, 2),
            "multipoly.add.self_s": s(add, 2),
            "multipoly.terms_out": c["multipoly.terms_out"],
            "multipoly.substitute.self_s": s(["multipoly.MultiPoly.substitute"], 2),
            "core.product_symbolic.calls": s(["core.product_symbolic"], 0),
            "core.product_symbolic.self_s": s(["core.product_symbolic"], 2),
            "core.product_concrete.calls": s(["core.product_concrete"], 0),
            "core.product_concrete.self_s": s(["core.product_concrete"], 2),
            "linalg.rref.calls": s(["linalg.rref"], 0),
            "linalg.rref.self_s": s(["linalg.rref"], 2),
            "linalg.solve.self_s": s(["linalg.solve"], 2),
            "linalg.mat_mul.self_s": s(["linalg.mat_mul"], 2),
            "linalg.cells": c["linalg.cells"],
            "linalg.express.calls": express_calls,
            "linalg.express.repeat_ratio":
                c["linalg.express.repeats"] / express_calls
                if express_calls else 0.0,
            "symbolic.check_identity.calls": s(["symbolic.check_identity"], 0),
            "symbolic.check_identity.s": s(["symbolic.check_identity"], 1),
            "symbolic.refuted": c["symbolic.refuted"],
            "symbolic.generic_degree.s": s(["symbolic.generic_degree"], 1),
            "structure.is_bernstein.calls": bern_calls,
            "structure.is_bernstein.s": s(["structure.is_bernstein"], 1),
            "structure.is_bernstein.cache_hit_ratio":
                c["structure.is_bernstein.hits"] / bern_calls
                if bern_calls else 0.0,
            "structure.peirce.s": s(["structure.peirce"], 1),
            "train.train_analysis.self_s": s(["train.train_analysis"], 2),
            "train.engel_yagzhev_report.self_s":
                s(["train.engel_yagzhev_report"], 2),
            "train.trees_evaluated": c["train.trees_evaluated"],
            "train.tree_power_sum.s": s(["train.tree_power_sum"], 1),
            "groebner.reduce.calls": s(["groebner.reduce"], 0),
            "groebner.reduce.self_s": s(["groebner.reduce"], 2),
            "groebner.verify.s": s(["groebner.AssociativeTable.verify"], 1),
            "groebner.truncate.s": s(["groebner.truncated_algebra_table"], 1),
            "groebner.buchberger.s": s(["groebner.buchberger_truncated"], 1),
            "catalog.from_associative.self_s":
                s(["catalog.from_associative"], 2),
            "elements.analyze_element.s": s(["elements.analyze_element"], 1),
            "fileformat.load.s": s(["fileformat.load_algebra",
                                    "fileformat.load_presentation"], 1),
            "trace.overhead_ratio": overhead_ratio,
            "trace.coverage": covered / traced_wall,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self._layer_self(layer)
        return out
