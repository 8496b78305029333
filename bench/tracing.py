"""Span tracer for the traced run, attached from outside the package.

`install` replaces, for the duration of a `with` block, the module-level
names through which one `ceei` module calls another.  Each replacement
records a span (name, start, end, parent, op id) and calls the original, so
spans nest: a `max_flow` called from `solve_eg` is a child of the op's root
span and is named after its caller's module.  Nothing under `src/` changes.

Spans stay in memory; `write_spans` saves them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: int  # index of the enclosing span, -1 for an op's root span
    op: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []

    def begin(self, name) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        self.spans[index].end = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                self.spans[index].attrs.update(observe(args, result))
            return result

        return traced


def _flow_attrs(args, result):
    _num_nodes, edges, source, _sink = args
    source_capacity = sum(cap for (u, _v), cap in edges.items() if u == source)
    return {"saturated": result[0] == source_capacity}


def _lp_attrs(args, result):
    objective, rows, _rhs = args
    return {"rows": len(rows), "cols": len(objective)}


def _search_attrs(args, result):
    return {"nodes": result.nodes_explored}


# (module, attribute, span name, observer): every cross-module call site.
CALL_SITES = (
    ("ceei.equilibrium", "max_flow", "flow.max_flow.from_equilibrium", _flow_attrs),
    ("ceei.equilibrium", "kkt_residual", "equilibrium.kkt_residual", None),
    ("ceei.search", "max_flow", "flow.max_flow.from_search", None),
    ("ceei.search", "verify_ceei_disc", "fairness.verify_ceei_disc", None),
    ("ceei.search", "verify_ceei_frac", "fairness.verify_ceei_frac", None),
    ("ceei.search", "max_nash_discrete", "search.max_nash_discrete", _search_attrs),
    ("ceei.simplex", "maximize", "simplex.maximize", _lp_attrs),
)


@contextmanager
def install(tracer):
    """Route every call site in CALL_SITES through `tracer` until the block exits."""
    saved = []
    try:
        for module_name, attr, span_name, observe in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def op_attrs(name, result, exc):
    """Counters an op's root span carries, read from its result or exception."""
    if name == "equilibrium.solve_eg":
        source = exc if exc is not None else result
        return {"iterations": getattr(source, "iterations", 0)}
    if exc is None and name in ("search.max_nash_discrete", "search.brute_force_max_nash"):
        return {"nodes": result.nodes_explored}
    return {}


def self_times(spans):
    """Span duration minus the time its direct children cover, in ns.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it; their durations add up to the part of the parent they cover.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


# Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = (
    ("equilibrium.solve_eg.self_s", "s"),
    ("equilibrium.solve_eg.iterations", "count"),
    ("equilibrium.kkt_residual.calls", "count"),
    ("equilibrium.kkt_residual.self_s", "s"),
    ("flow.max_flow.from_equilibrium.calls", "count"),
    ("flow.max_flow.from_equilibrium.self_s", "s"),
    ("flow.max_flow.from_equilibrium.saturated_ratio", "ratio"),
    ("flow.max_flow.from_search.calls", "count"),
    ("flow.max_flow.from_search.self_s", "s"),
    ("simplex.maximize.calls", "count"),
    ("simplex.maximize.self_s", "s"),
    ("simplex.maximize.rows", "count"),
    ("simplex.maximize.cols", "count"),
    ("fairness.verify_ceei_disc.calls", "count"),
    ("fairness.verify_ceei_disc.self_s", "s"),
    ("fairness.verify_ceei_disc.lp_ratio", "ratio"),
    ("fairness.is_pareto_optimal_discrete.self_s", "s"),
    ("fairness.verify_ceei_frac.self_s", "s"),
    ("fairness.is_envy_free.self_s", "s"),
    ("search.max_nash_discrete.self_s", "s"),
    ("search.max_nash_discrete.nodes", "count"),
    ("search.brute_force_max_nash.self_s", "s"),
    ("search.brute_force_max_nash.leaves", "count"),
    ("search.binary_max_nash.self_s", "s"),
    ("search.find_ceei_disc_identical.self_s", "s"),
    ("search.exists_ceei_disc_bruteforce.self_s", "s"),
    ("search.exists_ceei_frac_discrete.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.handler_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(spans, overhead_ratio, cli=None):
    """Per-layer metrics from the spans of the traced pass.

    `cli` holds the interpreter, import and handler seconds measured by the
    cli workload; other workloads leave those metrics at 0.
    """
    own = self_times(spans)
    calls, self_ns, sums, flags = {}, {}, {}, {}
    for span, ns in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ns[span.name] = self_ns.get(span.name, 0) + ns
        for attr, value in span.attrs.items():
            sums[(span.name, attr)] = sums.get((span.name, attr), 0) + value
    for span in spans:
        if span.name == "simplex.maximize" and span.parent >= 0:
            flags[span.parent] = True
    lp_parents = sum(1 for index in flags if spans[index].name == "fairness.verify_ceei_disc")

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def mean(name, attr):
        return ratio(sums.get((name, attr), 0), calls.get(name, 0))

    values = {}
    for metric, unit in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "self_s":
            values[metric] = self_ns.get(layer, 0) / 1e9
        elif stat == "calls":
            values[metric] = calls.get(layer, 0)
    values["equilibrium.solve_eg.iterations"] = sums.get(("equilibrium.solve_eg", "iterations"), 0)
    flow = "flow.max_flow.from_equilibrium"
    values[f"{flow}.saturated_ratio"] = mean(flow, "saturated")
    values["simplex.maximize.rows"] = mean("simplex.maximize", "rows")
    values["simplex.maximize.cols"] = mean("simplex.maximize", "cols")
    values["fairness.verify_ceei_disc.lp_ratio"] = ratio(lp_parents, calls.get("fairness.verify_ceei_disc", 0))
    values["search.max_nash_discrete.nodes"] = sums.get(("search.max_nash_discrete", "nodes"), 0)
    values["search.brute_force_max_nash.leaves"] = sums.get(("search.brute_force_max_nash", "nodes"), 0)
    cli = cli or {}
    values["cli.interpreter_s"] = cli.get("interpreter_s", 0.0)
    values["cli.import_s"] = cli.get("import_s", 0.0)
    values["cli.handler_s"] = cli.get("handler_s", 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    return {metric: (values[metric], unit) for metric, unit in PER_LAYER}


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            record = {"name": span.name, "start_ns": span.start, "end_ns": span.end,
                      "parent": span.parent, "op": span.op, **span.attrs}
            handle.write(json.dumps(record) + "\n")
