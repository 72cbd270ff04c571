"""Spans and counts around the public functions of sectorlab's modules.

The traced run patches each listed function with a wrapper that records
a span (name, start, end, parent span, operation id) and, where the
layer has one, a work count at the same boundary.  Names a sibling
module imported (``sectorlab.criteria.indicator_orbit_norms``, the
package's re-exports) are patched too, so every call path is seen.
Weight evaluations are counted through ``dataclasses.replace(v,
evaluator=...)``, which keeps every other field of the weight, and
membership points by wrapping ``RectUnionSet.member`` and
``OracleSet.member``.  Spans stay in memory until `write` at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module, attribute, count) -- count(args, result) gives (counter, amount)
_FUNCTIONS = (
    ("criteria", "verify_witness", None),
    ("criteria", "build_witness", None),
    ("criteria", "dc_sufficient_series", None),
    ("lpspace", "indicator_orbit_norms",
     lambda a, k, r: ("lpspace.indicator_orbit_norms.offsets", np.size(a[2]))),
    ("lpspace", "lp_norm", None),
    ("weights", "weight_rect_integral", None),
    ("weights", "grid_minimum", None),
    ("quadrature", "interval_gl",
     lambda a, k, r: ("quadrature.interval_gl.nodes", r[0].size)),
    ("quadrature", "panel_nodes", None),
    ("quadrature", "integrate_polar", None),
    ("dynamics", "orbit_profile",
     lambda a, k, r: ("dynamics.orbit_profile.nodes", r.norms.size)),
    ("dynamics", "level_density", None),
    ("dynamics", "pair_diagnostic", None),
    ("sets", "measure_profile", None),
    ("density", "density_profile", None),
    ("cli", "main", None),
)
_KIND_NAMES = {"indicator": "indicator", "bump": "bump",
               "linear-combination": "combination", "custom": "custom"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_alloc = 0
        self.op: int | None = None  # spans and counts are kept only inside ops
        self._stack: list[int] = []
        self._member_depth = 0

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount) -> None:
        if self.op is not None:
            self.counts[name] += float(amount)

    def call(self, name: str, fn, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self, sl) -> None:
        """Patch the listed functions of package `sl` everywhere it is named."""
        for modname in {m for m, _, _ in _FUNCTIONS}:
            importlib.import_module(f"{sl.__name__}.{modname}")
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == sl.__name__
                                      or name.startswith(sl.__name__ + "."))]
        for modname, attr, counter in _FUNCTIONS:
            module = sys.modules[f"{sl.__name__}.{modname}"]
            orig = getattr(module, attr)
            wrapper = self._wrap(f"{modname}.{attr}", orig, counter)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
        for cls in (sl.RectUnionSet, sl.OracleSet):
            cls.member = self._wrap_member(cls.member)

    def _wrap(self, name, orig, counter):
        tracer = self
        if name == "lpspace.lp_norm":
            @functools.wraps(orig)
            def lp_norm(*a, **k):
                kind = _KIND_NAMES.get(a[1].kind, a[1].kind)
                return tracer.call(f"lpspace.lp_norm.{kind}", orig, a, k)
            return lp_norm
        if name == "density.density_profile":
            @functools.wraps(orig)
            def density_profile(*a, **k):
                tier = "rect" if type(a[0]).__name__ == "RectUnionSet" else "oracle"
                return tracer.call(f"density.density_profile.{tier}", orig, a, k)
            return density_profile
        if name == "sets.measure_profile":
            @functools.wraps(orig)
            def measure_profile(*a, **k):
                before = tracer.counts["sets.member_points"]
                try:
                    return tracer.call(name, orig, a, k)
                finally:
                    tracer.count("sets.measure_profile.cells",
                                 tracer.counts["sets.member_points"] - before)
            return measure_profile
        if name == "dynamics.orbit_profile":
            @functools.wraps(orig)
            def orbit_profile(*a, **k):
                if tracer.op is None:
                    return orig(*a, **k)
                tracemalloc.start()
                try:
                    res = tracer.call(name, orig, a, k)
                    tracer.peak_alloc = max(tracer.peak_alloc,
                                            tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                tracer.count(*counter(a, k, res))
                return res
            return orbit_profile

        @functools.wraps(orig)
        def wrapper(*a, **k):
            res = tracer.call(name, orig, a, k)
            if counter is not None:
                tracer.count(*counter(a, k, res))
            return res
        return wrapper

    def _wrap_member(self, orig):
        tracer = self

        @functools.wraps(orig)
        def member(obj, z):
            # a translated set asks its base set: count the outermost call only
            if tracer._member_depth == 0:
                tracer.count("sets.member_points", np.size(z))
            tracer._member_depth += 1
            try:
                return tracer.call("sets.member", orig, (obj, z), {})
            finally:
                tracer._member_depth -= 1
        return member

    def wrap_weight(self, v):
        tracer = self
        evaluator = v.evaluator

        def counted(z):
            tracer.count("weights.eval_points", np.size(z))
            return tracer.call("weights.eval", evaluator, (z,), {})
        return dataclasses.replace(v, evaluator=counted)

    # -- summaries ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive time of the outermost spans, self time,
        and number of outermost calls."""
        incl: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_t[name] += (end - start) - child[i]
            p, nested = parent, False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                incl[name] += end - start
                calls[name] += 1
        return incl, self_t, calls

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        incl, _, calls = self.totals()
        ms = lambda name: 1e3 * incl.get(name, 0.0) / n_ops
        per_call = lambda name: (1e3 * incl[name] / calls[name]) if calls.get(name) else 0.0
        rate = lambda count, name: (self.counts.get(count, 0.0) / incl[name]
                                    if incl.get(name) else 0.0)
        per_op = lambda count: self.counts.get(count, 0.0) / n_ops
        return {
            "criteria.verify_witness.ms": ms("criteria.verify_witness"),
            "criteria.build_witness.ms": ms("criteria.build_witness"),
            "criteria.dc_sufficient_series.ms": ms("criteria.dc_sufficient_series"),
            "lpspace.indicator_orbit_norms.ms": ms("lpspace.indicator_orbit_norms"),
            "lpspace.indicator_orbit_norms.offsets_per_s": rate(
                "lpspace.indicator_orbit_norms.offsets", "lpspace.indicator_orbit_norms"),
            "lpspace.lp_norm.indicator.ms": per_call("lpspace.lp_norm.indicator"),
            "lpspace.lp_norm.bump.ms": per_call("lpspace.lp_norm.bump"),
            "lpspace.lp_norm.combination.ms": per_call("lpspace.lp_norm.combination"),
            "lpspace.lp_norm.custom.ms": per_call("lpspace.lp_norm.custom"),
            "weights.eval_points": per_op("weights.eval_points"),
            "weights.eval.ms": ms("weights.eval"),
            "weights.weight_rect_integral.ms": ms("weights.weight_rect_integral"),
            "weights.grid_minimum.ms": ms("weights.grid_minimum"),
            "quadrature.interval_gl.ms": ms("quadrature.interval_gl"),
            "quadrature.interval_gl.nodes": per_op("quadrature.interval_gl.nodes"),
            "quadrature.panel_nodes.ms": ms("quadrature.panel_nodes"),
            "quadrature.integrate_polar.ms": ms("quadrature.integrate_polar"),
            "dynamics.orbit_profile.ms": ms("dynamics.orbit_profile"),
            "dynamics.orbit_profile.nodes_per_s": rate(
                "dynamics.orbit_profile.nodes", "dynamics.orbit_profile"),
            "dynamics.orbit_profile.peak_alloc_mb": self.peak_alloc / 2 ** 20,
            "dynamics.level_density.ms": ms("dynamics.level_density"),
            "dynamics.pair_diagnostic.ms": ms("dynamics.pair_diagnostic"),
            "sets.member_points": per_op("sets.member_points"),
            "sets.member.ms": ms("sets.member"),
            "sets.measure_profile.ms": ms("sets.measure_profile"),
            "sets.measure_profile.cells": per_op("sets.measure_profile.cells"),
            "density.density_profile.rect.ms": ms("density.density_profile.rect"),
            "density.density_profile.oracle.ms": ms("density.density_profile.oracle"),
            "cli.main.ms": ms("cli.main"),
            "cli.bytes_written": per_op("cli.bytes_written"),
        }

    def write(self, path) -> None:
        _, self_t, calls = self.totals()
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "self_ms": {k: 1e3 * v for k, v in sorted(self_t.items())},
            "calls": dict(sorted(calls.items())),
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload))
