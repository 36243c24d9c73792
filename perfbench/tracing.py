"""Span tracing of loopfield's layers, installed from outside the package.

`install` wraps each layer's public functions (and two methods) so that
every call records a span ``[name, start, end, parent, attrs]``.  Spans are
kept in memory and written out once, when the traced pass ends;
`summarize` derives self time (a span's duration minus the part its child
spans cover) and the per-layer counters from them.

Names imported with ``from ... import`` are re-bound in every loopfield
module that holds them, so callers in other modules see the wrapper too.
Wrappers never change arguments in a way the callee can observe, so a
traced pass computes the same numbers as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.keys = {}
        self._stack = []

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, attrs]
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name, {})
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, count=None, key=None, wrap_args=None):
        """Wrap `fn` in a span named `name`.

        count(attrs, args, kwargs, result) adds counters to the span;
        key(args, kwargs) gives a hashable key for the distinct-call share;
        wrap_args(attrs, args, kwargs) may substitute counting proxies.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if wrap_args is not None:
                args, kwargs = wrap_args(attrs, args, kwargs)
            if key is not None:
                tracer.keys.setdefault(name, set()).add(key(args, kwargs))
            span = tracer._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(attrs, args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        payload = {"spans": self.spans,
                   "distinct": {k: len(v) for k, v in self.keys.items()}}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# counters


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _string_bonds(obj):
    from loopfield.loops import as_string
    return sum(len(loop.word) for loop in as_string(obj))


def _count_make_loop(attrs, args, kwargs, loop):
    attrs["bonds"] = len(loop.word)


def _count_build_graph(attrs, args, kwargs, graph):
    attrs["bonds"] = _string_bonds(args[0])
    attrs["cells"] = len(graph.cell_to_face)


def _count_terms(attrs, args, kwargs, result):
    attrs["terms"] = len(result[0])


def _count_points(attrs, args, kwargs):
    """Replace the integrand by a proxy that counts the grid points."""
    attrs["points"] = 0
    fn = _arg(args, kwargs, 1, "fn")

    def counted(*angles):
        attrs["points"] += int(np.size(angles[0]))
        return fn(*angles)

    if len(args) > 1:
        args = args[:1] + (counted,) + args[2:]
    else:
        kwargs = dict(kwargs, fn=counted)
    return args, kwargs


def _group_tag(spec):
    return f"{spec.family}{spec.n}"


def _count_links(attrs, args, kwargs, result):
    cfg = args[0]
    attrs["links"] = cfg.box.n_bonds * cfg.n_chains
    attrs["group"] = _group_tag(cfg.spec)


def _count_metropolis(attrs, args, kwargs, acceptance):
    _count_links(attrs, args, kwargs, acceptance)
    attrs["acceptance"] = float(acceptance)


def _count_measure(attrs, args, kwargs, result):
    obs, cfg = args[0], args[1]
    attrs["link_products"] = sum(len(idx) for idx in obs.parts) * cfg.n_chains


def _count_run_chain(attrs, args, kwargs, result):
    schedule = _arg(args, kwargs, 2, "schedule")
    attrs["sweeps"] = (schedule.burn_in
                       + (schedule.sweeps // schedule.thin) * schedule.thin)


def _count_estimate(attrs, args, kwargs, est):
    attrs["tau_int"] = float(est.tau_int)


def _count_report_bytes(attrs, args, kwargs, result):
    base = _arg(args, kwargs, 0, "path_base")
    attrs["bytes"] = sum(os.path.getsize(base + ext) for ext in (".csv", ".json")
                         if os.path.exists(base + ext))


def _key_expectation(args, kwargs):
    return (args[0].epsilon, args[1])


def _key_deformation(args, kwargs):
    backend = _arg(args, kwargs, 2, "backend")
    return (backend.epsilon, args[0], tuple(args[1]))


def _key_partition(args, kwargs):
    params = args[0]
    tol = args[1] if len(args) > 1 else kwargs.get("tol")
    return (str(params.spec), params.epsilon, tol)


# (span name, module, function or Class.method names, options)
LAYERS = [
    ("loops.make_loop", "loops", ["make_loop"], {"count": _count_make_loop}),
    ("loops.ops", "loops",
     ["split_positive", "split_negative", "merge_positive", "merge_negative",
      "twist_positive", "twist_negative", "deformation_sets", "expansion_sets",
      "string_deformation_sets", "string_split", "string_merge", "string_twist"],
     {}),
    ("driver.build_graph", "driver", ["build_graph"], {"count": _count_build_graph}),
    ("driver.winding_number", "driver", ["winding_number"], {}),
    ("driver.expectation", "driver", ["U1Backend.expectation"],
     {"key": _key_expectation}),
    ("driver.geometry", "driver",
     ["make_figure_eight", "make_figure_eight_reversed", "make_coil",
      "make_limacon", "make_crossing_squares", "make_rectangle"], {}),
    ("driver.continuum", "driver",
     ["continuum_product", "u1_expectation_continuum", "area_derivative",
      "correction_term_im"], {}),
    ("equations.assemble", "equations", ["assemble"], {"count": _count_terms}),
    ("equations.deformation_value", "equations", ["deformation_value"],
     {"key": _key_deformation}),
    ("equations.evaluate_exact_u1", "equations", ["evaluate_exact_u1"], {}),
    ("equations.evaluate_mc", "equations", ["evaluate_mc"], {}),
    ("equations.unified_equation_reports", "equations",
     ["unified_equation_reports"], {}),
    ("equations.finite_difference_alternating", "equations",
     ["finite_difference_alternating"], {}),
    ("action.integrate_class_function", "action", ["integrate_class_function"],
     {"wrap_args": _count_points}),
    ("action.partition_function", "action", ["partition_function"],
     {"key": _key_partition}),
    ("action.char_coefficient", "action", ["char_coefficient"], {}),
    ("action.kernels", "action",
     ["heat_kernel_eval", "heat_kernel_theta_derivative_u1", "wilson_kfold_eval",
      "heat_kernel_u1_wrapped_gaussian"], {}),
    ("groups.lie_basis", "groups", ["lie_basis"], {}),
    ("groups.haar_sample", "groups", ["haar_sample"], {}),
    ("sampler.sweep_metropolis", "sampler", ["sweep_metropolis"],
     {"count": _count_metropolis}),
    ("sampler.sweep_heatbath_u1", "sampler", ["sweep_heatbath_u1"],
     {"count": _count_links}),
    ("sampler.reunitarize", "sampler", ["reunitarize"], {}),
    ("sampler.init_config", "sampler", ["init_config"], {}),
    ("sampler.measure", "sampler", ["WilsonObservable.measure"],
     {"count": _count_measure}),
    ("sampler.run_chain", "sampler", ["run_chain"], {"count": _count_run_chain}),
    ("sampler.make_estimate", "sampler", ["make_estimate"],
     {"count": _count_estimate}),
    ("harness.load_config", "harness", ["load_config"], {}),
    ("harness.write_reports", "harness", ["write_reports"],
     {"count": _count_report_bytes}),
]


def install(tracer):
    """Wrap every function in LAYERS wherever loopfield holds a reference."""
    importlib.import_module("loopfield.harness")  # imports every layer
    package = [m for n, m in sys.modules.items()
               if m is not None and (n == "loopfield" or n.startswith("loopfield."))]
    for span_name, mod_name, targets, options in LAYERS:
        module = sys.modules[f"loopfield.{mod_name}"]
        for target in targets:
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, tracer.wrap(span_name, cls.__dict__[meth], **options))
                continue
            original = getattr(module, target)
            wrapped = tracer.wrap(span_name, original, **options)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# derived metrics


def self_times(spans):
    """Self time of each span: its duration minus that of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def summarize(payload, stems):
    """Per-layer metrics of one traced pass (see README.md for the list);
    `stems` names the configs whose experiment time is reported."""
    spans = payload["spans"]
    distinct = payload["distinct"]
    selfs = self_times(spans)
    calls, self_s, total_s, sums, means = {}, {}, {}, {}, {}
    by_group_links, by_group_time = {}, {}
    experiments = {}
    for span, st in zip(spans, selfs):
        name, start, end, parent, attrs = span
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        for k, v in attrs.items():
            if k == "group":
                continue
            per_name = sums.setdefault(name, {})
            per_name[k] = per_name.get(k, 0) + v
            means.setdefault(name, {}).setdefault(k, []).append(v)
        if "group" in attrs:
            tag = (name, attrs["group"])
            by_group_links[tag] = by_group_links.get(tag, 0) + attrs["links"]
            by_group_time[tag] = by_group_time.get(tag, 0.0) + (end - start)
        if name.startswith("harness.experiment."):
            experiments[name] = experiments.get(name, 0.0) + (end - start)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def total(name, key):
        return sums.get(name, {}).get(key, 0)

    def mean(name, key):
        vals = means.get(name, {}).get(key, [])
        return statistics.fmean(vals) if vals else 0.0

    def frac_distinct(name):
        return distinct.get(name, 0) / c(name) if c(name) else 0.0

    def lups(name, group):
        t = by_group_time.get((name, group), 0.0)
        return by_group_links.get((name, group), 0) / t if t > 0 else 0.0

    m = {}
    m["loops.make_loop.calls"] = c("loops.make_loop")
    m["loops.make_loop.self_s"] = s("loops.make_loop")
    m["loops.make_loop.bonds"] = total("loops.make_loop", "bonds")
    m["loops.ops.calls"] = c("loops.ops")
    m["loops.ops.self_s"] = s("loops.ops")
    for name in ("driver.build_graph", "driver.winding_number",
                 "driver.expectation", "driver.geometry"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = s(name)
    m["driver.build_graph.bonds"] = total("driver.build_graph", "bonds")
    m["driver.build_graph.cells"] = total("driver.build_graph", "cells")
    m["driver.expectation.distinct_frac"] = frac_distinct("driver.expectation")
    m["driver.continuum.self_s"] = s("driver.continuum")
    m["equations.assemble.calls"] = c("equations.assemble")
    m["equations.assemble.self_s"] = s("equations.assemble")
    m["equations.assemble.terms"] = total("equations.assemble", "terms")
    m["equations.deformation_value.calls"] = c("equations.deformation_value")
    m["equations.deformation_value.distinct_frac"] = frac_distinct(
        "equations.deformation_value")
    for name in ("evaluate_exact_u1", "evaluate_mc", "unified_equation_reports",
                 "finite_difference_alternating"):
        m[f"equations.{name}.self_s"] = s(f"equations.{name}")
    m["action.integrate_class_function.calls"] = c("action.integrate_class_function")
    m["action.integrate_class_function.self_s"] = s("action.integrate_class_function")
    m["action.integrate_class_function.points"] = total(
        "action.integrate_class_function", "points")
    m["action.partition_function.calls"] = c("action.partition_function")
    m["action.partition_function.distinct_frac"] = frac_distinct(
        "action.partition_function")
    m["action.char_coefficient.calls"] = c("action.char_coefficient")
    m["action.char_coefficient.self_s"] = s("action.char_coefficient")
    m["action.kernels.self_s"] = s("action.kernels")
    for name in ("groups.lie_basis", "groups.haar_sample"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = s(name)
    name = "sampler.sweep_metropolis"
    m[f"{name}.calls"] = c(name)
    m[f"{name}.self_s"] = s(name)
    m[f"{name}.acceptance"] = mean(name, "acceptance")
    for group in ("U1", "SU2", "SO3"):
        m[f"{name}.{group}.lups"] = lups(name, group)
    name = "sampler.sweep_heatbath_u1"
    m[f"{name}.calls"] = c(name)
    m[f"{name}.self_s"] = s(name)
    m[f"{name}.lups"] = lups(name, "U1")
    m["sampler.reunitarize.calls"] = c("sampler.reunitarize")
    m["sampler.reunitarize.self_s"] = s("sampler.reunitarize")
    m["sampler.init_config.self_s"] = s("sampler.init_config")
    m["sampler.measure.calls"] = c("sampler.measure")
    m["sampler.measure.self_s"] = s("sampler.measure")
    m["sampler.measure.link_products"] = total("sampler.measure", "link_products")
    m["sampler.run_chain.calls"] = c("sampler.run_chain")
    m["sampler.run_chain.self_s"] = s("sampler.run_chain")
    m["sampler.run_chain.sweeps"] = total("sampler.run_chain", "sweeps")
    m["sampler.make_estimate.calls"] = c("sampler.make_estimate")
    m["sampler.make_estimate.self_s"] = s("sampler.make_estimate")
    m["sampler.make_estimate.tau_int"] = mean("sampler.make_estimate", "tau_int")
    m["harness.load_config.self_s"] = s("harness.load_config")
    m["harness.write_reports.self_s"] = s("harness.write_reports")
    m["harness.write_reports.bytes"] = total("harness.write_reports", "bytes")
    for stem in stems:
        m[f"harness.experiment.{stem}.s"] = experiments.get(
            f"harness.experiment.{stem}", 0.0)
    return m

