"""Span tracing for the traced benchmark run.

The tracer wraps coevnet's public functions from outside: it replaces the
module (or class) attributes that callers look up, so nothing in ``src/``
changes.  Every binding a caller uses is patched, because some are copies:
``oracle.discriminants`` is bound from ``dynamics`` at import, while ``cli``,
``dynamics`` and ``oracle`` reach ``genesis``, ``analysis`` and ``oracle``
through module attributes.  A target missing from the program is skipped,
and its metrics read zero.

Spans are ``[name, start, end, parent, op]`` lists kept in memory; each op is
one root span named ``bench.op``.  A span's self time is its duration minus
the part of it that its children cover, so the self times of all spans add up
to the summed duration of the root spans, the traced wall time.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.op"

# (module, attribute path, span name, layer the span's self time belongs to)
TARGETS = (
    ("cli", "main", "cli.main", "cli"),
    ("genesis", "random_symmetric_stochastic", "genesis.random_symmetric_stochastic", "genesis"),
    ("genesis", "complete_bipartite", "genesis.complete_bipartite", "genesis"),
    ("genesis", "condition_rescaled", "genesis.condition_rescaled", "genesis"),
    ("genesis", "initial_state", "genesis.initial_state", "genesis"),
    ("dynamics", "simulate", "dynamics.simulate", "dynamics.simulate"),
    ("dynamics", "write_trace_jsonl", "dynamics.write_trace_jsonl", "dynamics.export"),
    ("dynamics", "write_trace_csv", "dynamics.write_trace_csv", "dynamics.export"),
    ("dynamics", "discriminants", "dynamics.discriminants", "dynamics.discriminants"),
    ("oracle", "discriminants", "dynamics.discriminants", "dynamics.discriminants"),
    ("analysis", "potential", "analysis.potential", "analysis.potential"),
    ("analysis", "is_nash", "analysis.is_nash", "analysis.is_nash"),
    ("analysis", "check_thm2", "analysis.check_thm2", "analysis.check"),
    ("analysis", "check_thm3", "analysis.check_thm3", "analysis.check"),
    ("analysis", "check_thm5", "analysis.check_thm5", "analysis.check"),
    ("analysis", "check_thm6", "analysis.check_thm6", "analysis.check"),
    ("analysis", "check_thm7", "analysis.check_thm7", "analysis.check"),
    ("analysis", "check_coordination_polarized", "analysis.check_coordination_polarized",
     "analysis.check"),
    ("oracle", "enumerate_equilibria", "oracle.enumerate_equilibria", "oracle.enumerate"),
    ("oracle", "candidate", "oracle.candidate", "oracle.candidate"),
    ("oracle", "opinion_fixed_point", "oracle.opinion_fixed_point", "oracle.fixed_point"),
    ("netcore", "PopulationState.__post_init__", "netcore.state_new", "netcore.state_new"),
    ("netcore", "classify_state", "netcore.classify_state", "netcore.classify"),
)

LAYER_OF = {ROOT_SPAN: "bench"}
LAYER_OF.update((span, layer) for _, _, span, layer in TARGETS)
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

GRAPH_SPANS = ("genesis.random_symmetric_stochastic", "genesis.complete_bipartite",
               "genesis.condition_rescaled")

# Per-layer metric -> (unit, better).  Each names, in BENCHMARK.json terms,
# a count or time of one layer; see perfbench/run.py for what it should move.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "genesis.calls": ("count", "lower"),
    "genesis.self_s": ("s", "lower"),
    "genesis.graph_ms": ("ms", "lower"),
    "dynamics.simulate.calls": ("count", "lower"),
    "dynamics.simulate.self_s": ("s", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.us_per_step": ("us", "lower"),
    "dynamics.export.self_s": ("s", "lower"),
    "dynamics.export.mb": ("MB", "lower"),
    "dynamics.discriminants.calls": ("count", "lower"),
    "dynamics.discriminants.self_s": ("s", "lower"),
    "analysis.potential.calls": ("count", "lower"),
    "analysis.potential.self_s": ("s", "lower"),
    "analysis.is_nash.calls": ("count", "lower"),
    "analysis.is_nash.self_s": ("s", "lower"),
    "analysis.check.calls": ("count", "lower"),
    "analysis.check.self_s": ("s", "lower"),
    "oracle.enumerate.calls": ("count", "lower"),
    "oracle.enumerate.self_s": ("s", "lower"),
    "oracle.profiles": ("count", "lower"),
    "oracle.ns_per_profile": ("ns", "lower"),
    "oracle.candidate.calls": ("count", "lower"),
    "oracle.candidate.self_s": ("s", "lower"),
    "oracle.kept": ("count", "higher"),
    "oracle.kept_per_candidate": ("ratio", "higher"),
    "oracle.fixed_point.calls": ("count", "lower"),
    "oracle.fixed_point.self_s": ("s", "lower"),
    "netcore.state_new.calls": ("count", "lower"),
    "netcore.state_new.self_s": ("s", "lower"),
    "netcore.classify.calls": ("count", "lower"),
    "netcore.classify.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _count_steps(counters, args, kwargs, result):
    counters["dynamics.steps"] += getattr(result, "steps", 0)


def _count_export(counters, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path and os.path.exists(path):
        counters["dynamics.export.bytes"] += os.path.getsize(path)


def _count_enumeration(counters, args, kwargs, result):
    net = kwargs.get("net", args[0] if args else None)
    counters["oracle.profiles"] += 2 ** net.n
    counters["oracle.kept"] += len(result)


HOOKS = {
    "dynamics.simulate": _count_steps,
    "dynamics.write_trace_jsonl": _count_export,
    "dynamics.write_trace_csv": _count_export,
    "oracle.enumerate_equilibria": _count_enumeration,
}


class Tracer:
    """Records spans while an op is open; wrappers call straight through
    otherwise, so correctness checks between ops are not traced."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = defaultdict(int)
        self.enabled = False
        self.op_id = -1
        self._restore: list = []
        self.skipped: list = []

    def wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], tracer.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, span, _ in TARGETS:
            owner = importlib.import_module(f"coevnet.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(span, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def op(self, op_id: int):
        rec = [ROOT_SPAN, 0.0, 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.op_id = op_id
        self.enabled = True
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.enabled = False
            self.stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = _union_length(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(idx, ())
        )
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters, untraced_wall: float) -> tuple[dict, float]:
    """Per-layer metrics plus the sum of all self times, which should equal
    ``trace.wall_s``."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    inclusive = defaultdict(float)
    for rec, self_s in zip(spans, selfs):
        name = rec[0]
        layer = LAYER_OF[name]
        calls[layer] += 1
        layer_self[layer] += self_s
        inclusive[name] += rec[2] - rec[1]
    graphs = sum(1 for rec in spans if rec[0] in GRAPH_SPANS)
    graph_s = sum(inclusive[name] for name in GRAPH_SPANS)
    steps = counters["dynamics.steps"]
    profiles = counters["oracle.profiles"]
    wall = inclusive[ROOT_SPAN]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "genesis.graph_ms": 1e3 * ratio(graph_s, graphs),
        "dynamics.steps": steps,
        "dynamics.us_per_step": 1e6 * ratio(inclusive["dynamics.simulate"], steps),
        "dynamics.export.mb": counters["dynamics.export.bytes"] / 1e6,
        "oracle.profiles": profiles,
        "oracle.ns_per_profile": 1e9 * ratio(inclusive["oracle.enumerate_equilibria"], profiles),
        "oracle.kept": counters["oracle.kept"],
        "oracle.kept_per_candidate": ratio(counters["oracle.kept"], calls["oracle.candidate"]),
        "trace.wall_s": wall,
        "trace.overhead_frac": ratio(wall, untraced_wall) - 1.0,
    }
    for layer in LAYERS:
        if f"{layer}.calls" in PER_LAYER:
            metrics[f"{layer}.calls"] = calls[layer]
        if f"{layer}.self_s" in PER_LAYER:
            metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics, sum(selfs)
