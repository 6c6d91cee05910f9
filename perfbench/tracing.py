"""Span tracing at the public boundaries of the dmoc modules.

The tracer replaces chosen public functions with timing wrappers, as module
attributes, for the duration of a ``with`` block. A function that another
dmoc module imported by name (``from .engine import run_dmoc``) is replaced
there too, so every call site goes through the wrapper. Nothing in the
program is edited. Spans are kept in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np


def _members(args):
    return {"members": len(args["member_indices"])}


def _lp_rows(args):
    a_ub, a_eq = args.get("A_ub"), args.get("A_eq")
    rows = (a_ub.shape[0] if a_ub is not None else 0) + (a_eq.shape[0] if a_eq is not None else 0)
    return {"rows": int(rows)}


def _norm_cells(args):
    n = np.atleast_2d(np.asarray(args["values"])).shape[0]
    m = np.atleast_2d(np.asarray(args["reps"])).shape[0]
    return {"cells": int(n * m * args["params"].n_slots)}


def _kmc_start(args):
    return {"start": (int(args["n_clusters"]), int(args["seed"]))}


def _file_bytes(args):
    return {"bytes": os.path.getsize(args["path"])}


def _lloyd_iters(result):
    return {"iters": len(result.inertia_trace)}


def _engine_iters(result):
    return {"iters": int(result.trace.iterations_run)}


# (module, attribute, span name, attrs from the bound arguments, attrs from the result)
TARGETS = (
    ("dmoc.cli", "main", "cli.main", None, None),
    ("dmoc.data", "load_profiles", "data.load_profiles", _file_bytes, None),
    ("dmoc.evaluation", "loss_curve", "evaluation.loss_curve", None, None),
    ("dmoc.evaluation", "perfect_objective", "evaluation.perfect_objective", None, None),
    ("dmoc.engine", "run_dmoc", "engine.run_dmoc", None, _engine_iters),
    ("dmoc.baselines", "kmc_pipeline", "baselines.kmc_pipeline", _kmc_start, None),
    ("dmoc.baselines", "kmeans", "baselines.kmeans", None, _lloyd_iters),
    ("dmoc.pcs", "perfect_decision_pcs", "pcs.perfect_decision", None, None),
    ("dmoc.pcs", "solve_representative", "pcs.solve_representative", _members, None),
    ("dmoc.pcs", "weighted_norms", "pcs.weighted_norms", _norm_cells, None),
    ("dmoc.pcs", "linprog", "pcs.linprog", _lp_rows, None),
    ("dmoc.rtp", "assign_batch", "rtp.assign_batch", None, None),
    ("dmoc.rtp", "f1_batch", "rtp.f1_batch", None, None),
    ("dmoc.rtp", "closed_form_representative", "rtp.closed_form", None, None),
)


class Tracer:
    """Collects spans ``(name, start, end, parent, attrs)``; parent is a span index or -1."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, on_args, on_result):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if on_args else None

        def wrapper(*args, **kwargs):
            attrs = {}
            if on_args:
                bound = signature.bind(*args, **kwargs)
                attrs = on_args(bound.arguments)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, attrs])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_result:
                attrs.update(on_result(result))
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "dmoc" or key.startswith("dmoc.")]
        for module_name, attr, name, on_args, on_result in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, on_args, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False


def _total(spans) -> float:
    return sum(s[2] - s[1] for s in spans)


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one operation, derived from its spans.

    A ``*_s`` time is the summed duration of that function's spans; a
    ``self_s`` time subtracts the time covered by the span's direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def by(name):
        return [s for s in spans if s[0] == name]

    def self_time(name):
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    lps = by("pcs.linprog")
    single = 0
    for lp in lps:
        parent = lp[3]
        while parent >= 0 and spans[parent][0] != "pcs.solve_representative":
            parent = spans[parent][3]
        if parent >= 0 and spans[parent][4]["members"] == 1:
            single += 1
    norms = by("pcs.weighted_norms")
    kmeans = by("baselines.kmeans")
    kmc = by("baselines.kmc_pipeline")
    engine = by("engine.run_dmoc")
    loads = by("data.load_profiles")
    starts = {s[4]["start"] for s in kmc}
    return {
        "pcs.lp_calls": len(lps),
        "pcs.lp_single_calls": single,
        "pcs.lp_rows": sum(s[4]["rows"] for s in lps),
        "pcs.lp_s": _total(lps),
        "pcs.solve_representative_calls": len(by("pcs.solve_representative")),
        "pcs.solve_representative_s": _total(by("pcs.solve_representative")),
        "pcs.perfect_decision_calls": len(by("pcs.perfect_decision")),
        "pcs.perfect_decision_s": _total(by("pcs.perfect_decision")),
        "pcs.weighted_norms_calls": len(norms),
        "pcs.weighted_norms_cells": sum(s[4]["cells"] for s in norms),
        "pcs.weighted_norms_s": _total(norms),
        "rtp.assign_batch_calls": len(by("rtp.assign_batch")),
        "rtp.assign_batch_s": _total(by("rtp.assign_batch")),
        "rtp.f1_batch_calls": len(by("rtp.f1_batch")),
        "rtp.f1_batch_s": _total(by("rtp.f1_batch")),
        "rtp.closed_form_calls": len(by("rtp.closed_form")),
        "rtp.closed_form_s": _total(by("rtp.closed_form")),
        "baselines.kmeans_calls": len(kmeans),
        "baselines.kmeans_lloyd_iters": sum(s[4]["iters"] for s in kmeans),
        "baselines.kmeans_s": _total(kmeans),
        "baselines.kmc_pipeline_calls": len(kmc),
        "baselines.kmc_pipeline_s": _total(kmc),
        "baselines.kmc_pipeline_per_start": len(kmc) / len(starts) if starts else 0.0,
        "engine.run_dmoc_calls": len(engine),
        "engine.iterations": sum(s[4]["iters"] for s in engine),
        "engine.self_s": self_time("engine.run_dmoc"),
        "evaluation.perfect_objective_s": _total(by("evaluation.perfect_objective")),
        "data.load_profiles_s": _total(loads),
        "data.load_profiles_bytes": sum(s[4]["bytes"] for s in loads),
        "cli.self_s": self_time("cli.main"),
        "trace.spans": len(spans),
    }
