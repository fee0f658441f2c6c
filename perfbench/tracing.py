"""Span tracing of the halfspace modules from outside the package.

The tracer replaces each traced function with a wrapper that records one
span per call: id, name, start, end, parent span and thread.  Names bound
by ``from .x import f`` in importing modules (``halfspace.solver`` binding
``build_poisson_kernel`` and ``grid_ifft``, the harness binding
``poisson_extend``, ...) are rebound too, so every call path is seen.
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover; spans of the level-parallel worker threads are children
of the pool span that ran them, so overlapping children are counted once.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from halfspace.operators import _cone_footprint

# the module layers; cli and containers are run by no workload
LAYERS = ("systems", "kernels", "grids", "solver", "operators", "spaces",
          "harness", "report")

SYMBOL_SPANS = frozenset({
    "kernels.symbol_batch", "kernels.poisson_symbol_at",
    "kernels.poisson_symbol_dt_at", "kernels.kernel_derivative_spectrum",
    "kernels.PreparedSymbol.at", "kernels._scalar_batch",
    "kernels._collinear_batch", "kernels._general_batch",
    "kernels._eval_from_stacks", "kernels._DirectionEvaluator.__init__"})
POOL = "solver.poisson_extend.pool"
LEVEL = "solver.poisson_extend.level"


def _nodes_arg(index):
    return lambda args, kwargs, out: {"nodes": len(args[index])}


def _one_node(args, kwargs, out):
    return {"nodes": 1}


def _out_bytes(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _prepared_bytes(args, kwargs, out):
    stacks = args[0].stacks or {}
    return {"bytes": int(sum(v.nbytes for v in stacks.values()
                             if isinstance(v, np.ndarray)))}


def _node_levels(args, kwargs, out):
    return {"node_levels": out.grid.node_count * len(out.heights)}


def _cone_cells(args, kwargs, out):
    # the cone top is resolved by hand: ConeSpec.resolve_top is traced too
    u, cone = args[0], args[1]
    grid = u.grid
    top = cone.t_max if cone.t_max is not None else grid.R / cone.kappa
    cells = 0
    for t in u.heights[(u.heights > cone.epsilon) & (u.heights <= top)]:
        cells += int(_cone_footprint(cone.kappa * t / grid.h, grid.d).sum())
    return {"cells": cells * grid.node_count}


def _experiment(args, kwargs, out):
    return {"experiment": args[0].name}


# per-call attributes, keyed by span name
ATTRS = {
    "kernels._scalar_batch": _nodes_arg(1),
    "kernels._collinear_batch": _nodes_arg(1),
    "kernels._general_batch": _nodes_arg(1),
    "kernels._eval_from_stacks": _nodes_arg(2),
    "kernels.poisson_symbol_at": _one_node,
    "kernels.poisson_symbol_dt_at": _one_node,
    "kernels.PreparedSymbol.__init__": _prepared_bytes,
    "grids.grid_fft": _out_bytes,
    "grids.grid_ifft": _out_bytes,
    "solver.poisson_extend": _node_levels,
    "operators.nontangential_max": _cone_cells,
    "harness.run_experiment": _experiment,
}

# private entry points that mark a code path or a cache fill
PRIVATE = {
    "kernels": ("_scalar_batch", "_collinear_batch", "_general_batch",
                "_eval_from_stacks", "_DirectionEvaluator.__init__",
                "PreparedSymbol.__init__"),
}


class Tracer:
    """In-memory span recorder; ``install`` wraps the package's modules."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent, thread)
        self.attrs = {}            # span id -> dict
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, sid, name, parent, start):
        end = perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent,
                           threading.get_ident()))

    def wrap(self, fn, name):
        attrs = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent, start = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, parent, start)
            if attrs is not None:
                tracer.attrs[sid] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self, package):
        """Wrap the public functions and methods of every layer module and
        rebind every module-level name that refers to one of them."""
        modules = {layer: importlib.import_module(
            "%s.%s" % (package.__name__, layer)) for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    replaced[obj] = self.wrap(obj, "%s.%s" % (layer, name))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj,
                                       public=not name.startswith("_"))
            for dotted in PRIVATE.get(layer, ()):
                name = "%s.%s" % (layer, dotted)
                if "." in dotted:
                    cls, attr = dotted.split(".")
                    owner = getattr(mod, cls)
                    setattr(owner, attr, self.wrap(vars(owner)[attr], name))
                else:
                    fn = getattr(mod, dotted)
                    replaced[fn] = self.wrap(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != package.__name__:
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        modules["solver"].ThreadPoolExecutor = self._pool_class()
        self.active = True

    def _wrap_methods(self, layer, cls, public):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__post_init__" or \
                    (public and not attr.startswith("_")):
                setattr(cls, attr, self.wrap(
                    obj, "%s.%s.%s" % (layer, cls.__name__, attr)))

    def _pool_class(self):
        """ThreadPoolExecutor whose map records the pool and one span per
        level on the worker threads, parented to the pool span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                if not tracer.active:
                    return super().map(fn, *iterables, **kwargs)
                sid, parent, start = tracer._open()
                tracer.attrs[sid] = {"workers": self._max_workers}

                def level(*args):
                    stack = tracer._stack()
                    stack.append(sid)
                    try:
                        inner, _, t0 = tracer._open()
                        try:
                            return fn(*args)
                        finally:
                            tracer._close(inner, LEVEL, sid, t0)
                    finally:
                        stack.pop()

                try:
                    results = list(super().map(level, *iterables, **kwargs))
                finally:
                    tracer._close(sid, POOL, parent, start)
                return iter(results)

        return TracedPool

    def dump(self, path, header: dict):
        with open(path, "w") as fh:
            json.dump({"header": header,
                       "fields": ["id", "name", "start", "end", "parent",
                                  "thread", "attrs"],
                       "spans": [list(s) + [self.attrs.get(s[0])]
                                 for s in self.spans]}, fh)


def _self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, experiments) -> dict:
    """Per-layer counts and self times from the recorded spans."""
    spans = tracer.spans
    attrs = tracer.attrs
    selft = _self_times(spans)
    by_id = {s[0]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def named(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def self_sum(items):
        return float(sum(selft[s[0]] for s in items))

    def attr_sum(items, key):
        return sum(attrs.get(s[0], {}).get(key, 0) for s in items)

    def under(span, name):
        parent = span[4]
        while parent:
            up = by_id.get(parent)
            if up is None:
                return False
            if up[1] == name:
                return True
            parent = up[4]
        return False

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = self_sum(
            [s for s in spans if s[1].split(".", 1)[0] == layer])

    systems = named("systems.build_system")
    m["systems.build_system.calls"] = len(systems)
    m["systems.build_system.self_s"] = self_sum(systems)

    symbol = [s for s in spans if s[1] in SYMBOL_SPANS]
    counted = [s for s in symbol if s[1] != "kernels._eval_from_stacks"
               or by_id.get(s[4], (0, ""))[1] == "kernels.PreparedSymbol.at"]
    m["kernels.symbol_nodes"] = attr_sum(counted, "nodes")
    m["kernels.symbol.self_s"] = self_sum(symbol)
    prep = named("kernels.prepared_symbol")
    fills = named("kernels.PreparedSymbol.__init__")   # the cache misses
    m["kernels.prepare.calls"] = len(prep)
    m["kernels.prepare.self_s"] = self_sum(prep + fills)
    m["kernels.prepared_hit_ratio"] = \
        (len(prep) - len(fills)) / len(prep) if prep else 0.0
    m["kernels.prepared_bytes_computed"] = attr_sum(fills, "bytes")
    builds = named("kernels.build_poisson_kernel")
    hidden = [s for s in builds if under(s, "solver.poisson_extend")]
    m["kernels.build_poisson_kernel.calls"] = len(builds)
    m["kernels.build_poisson_kernel.self_s"] = self_sum(builds)
    m["kernels.hidden_builds"] = len(hidden)
    m["kernels.hidden_build_s"] = float(sum(s[3] - s[2] for s in hidden))
    m["kernels.direction_evaluator_builds"] = len(
        named("kernels._DirectionEvaluator.__init__"))
    m["kernels.verify_kernel_properties.self_s"] = self_sum(
        named("kernels.verify_kernel_properties"))

    ffts = named("grids.grid_fft", "grids.grid_ifft")
    m["grids.fft.calls"] = len(ffts)
    m["grids.fft.self_s"] = self_sum(ffts)
    m["grids.fft.bytes_computed"] = attr_sum(ffts, "bytes")

    extend = named("solver.poisson_extend")
    pools = named(POOL)
    levels = named(LEVEL)
    extend_s = float(sum(s[3] - s[2] for s in extend))
    m["solver.poisson_extend.calls"] = len(extend)
    m["solver.poisson_extend.self_s"] = self_sum(extend + pools + levels)
    m["solver.node_levels"] = attr_sum(extend, "node_levels")
    m["solver.node_levels_per_s"] = \
        m["solver.node_levels"] / extend_s if extend_s else 0.0
    capacity = sum((s[3] - s[2]) * attr_sum([s], "workers") for s in pools)
    m["solver.worker_busy_frac"] = \
        sum(s[3] - s[2] for s in levels) / capacity if capacity else 0.0
    m["solver.trace_estimate.self_s"] = self_sum(
        named("solver.trace_estimate"))

    ntm = named("operators.nontangential_max")
    m["operators.nontangential_max.calls"] = len(ntm)
    m["operators.nontangential_max.self_s"] = self_sum(ntm)
    m["operators.cone_cells_computed"] = attr_sum(ntm, "cells")
    m["operators.hardy_littlewood.self_s"] = self_sum(
        named("operators.hardy_littlewood"))

    runs = named("harness.run_experiment")
    m["harness.run_experiment.self_s"] = self_sum(runs)
    for name in experiments:
        times = [s[3] - s[2] for s in runs
                 if attrs.get(s[0], {}).get("experiment") == name]
        m["harness.%s.s" % name] = statistics.median(times) if times else 0.0
    m["trace.spans"] = len(spans)
    return m
