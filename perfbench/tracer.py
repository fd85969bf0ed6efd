"""Layer tracing for one benchmark worker.

``Tracer.install()`` wraps the public functions and methods of each
laakso_lab layer, plus ``__init__`` of its plain classes, and rebinds every
module-level name that still points at an original (names imported with
``from ... import``, and functions stored in module-level dicts).  Each
wrapped call pushes a frame; on return its duration is added to the
parent's child time, so a function's self time is its duration minus the
time spent in wrapped calls below it.

The first ``SPAN_LIMIT`` calls of each function are also kept as spans
(name, start, end, parent span).  Calls beyond that, which for the hottest
functions means hundreds of thousands per step, are only counted and timed
in aggregate.  Properties and the generated methods of dataclasses are not
wrapped, so their time lands in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import types
from operator import itemgetter
from time import perf_counter

SPAN_LIMIT = 1000

LAYERS = (
    "tree_space",
    "laakso_graph",
    "tree_to_laakso",
    "quotient_analysis",
    "staircase",
    "moduli",
    "cli",
)

# Functions whose work belongs to another layer than their module's.
# json_ready prepares every report for emission, which is the cli's job.
LAYER_OF = {"quotient_analysis.json_ready": "cli"}

# Inclusive time of the outermost call into any of the named functions.
GROUPS = {
    "laakso_graph.build_s": (
        "laakso_graph.build_laakso",
        "laakso_graph.LaaksoGraph.__init__",
    ),
    "laakso_graph.oracle_s": (
        "laakso_graph.LaaksoGraph.distance_oracle",
        "laakso_graph.LaaksoGraph.bfs_levels_from",
    ),
    "tree_to_laakso.map_table_s": ("tree_to_laakso.as_map_table",),
    "quotient_analysis.ingest_s": (
        "quotient_analysis.FiniteMetricSpace.__init__",
        "quotient_analysis.MetricMapTable.__init__",
        "quotient_analysis.MetricMapTable.from_dict",
    ),
    "quotient_analysis.profile_s": (
        "quotient_analysis.coarse_profile",
        "quotient_analysis.lipschitz_constant",
        "quotient_analysis.c_atd_infinity",
    ),
    "quotient_analysis.predicate_s": (
        "quotient_analysis.atd_violation",
        "quotient_analysis.check_atd_colip",
    ),
    "quotient_analysis.moduli_s": ("quotient_analysis.quotient_moduli",),
    "quotient_analysis.fork_s": (
        "quotient_analysis.fork_search",
        "quotient_analysis.ForkWitness.self_check",
    ),
}

# Number of calls into any of the named functions.
CALLS = {
    "laakso_graph.distance_calls": ("laakso_graph.LaaksoGraph.distance",),
    "tree_space.distance_calls": ("tree_space.tree_distance",),
    "tree_to_laakso.image_calls": ("tree_to_laakso.TreeToGraphMap.image",),
    "tree_to_laakso.lift_calls": ("tree_to_laakso.TreeToGraphMap.lift",),
    "quotient_analysis.atd_pairs_calls": ("quotient_analysis.atd_pairs",),
    "moduli.oracle_calls": ("moduli.auc_oracle", "moduli.beta_oracle"),
}


# Work counted from what the named functions return.
RESULTS = {
    "tree_space.nodes_enumerated": (
        ("tree_space.TreeSpace.nodes", "tree_space.TreeSpace.children"),
        len,
    ),
    "staircase.pairs_checked": (
        (
            "staircase.verify_staircase_bounds",
            "staircase.verify_quarter_bounds",
            "staircase.verify_prefix_exactness",
        ),
        itemgetter("pairs"),
    ),
}


class Tracer:
    """Self time per function, spans, and counts for one worker step."""

    def __init__(self):
        self.stack = [[0.0, None]]
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.layer: dict[str, str] = {}
        self.group_names = list(GROUPS)
        self.group_depth = [0] * len(GROUPS)
        self.group_start = [0.0] * len(GROUPS)
        self.group_total = [0.0] * len(GROUPS)
        self.result_counts = dict.fromkeys(RESULTS, 0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer; call after ``laakso_lab.cli`` is imported."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"laakso_lab.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif (isinstance(obj, types.FunctionType)
                      and obj.__module__ == mod.__name__):
                    wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                    replaced[id(obj)] = wrapped
        for modname, mod in list(sys.modules.items()):
            if modname != "laakso_lab" and not modname.startswith("laakso_lab."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]

    def _wrap_class(self, layer: str, cls: type) -> None:
        plain = not dataclasses.is_dataclass(cls)
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (plain and name == "__init__"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(qual, layer, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                kind = type(attr)
                setattr(cls, name, kind(self._wrap(qual, layer, attr.__func__)))

    def _wrap(self, qual: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(qual, layer, fn)
        self.layer[qual] = LAYER_OF.get(qual, layer)
        self.calls[qual] = 0
        self.self_time[qual] = 0.0
        calls, self_time, stack, spans = (
            self.calls, self.self_time, self.stack, self.spans)
        groups = tuple(
            i for i, g in enumerate(self.group_names) if qual in GROUPS[g])
        depth, start, total = (
            self.group_depth, self.group_start, self.group_total)
        counter = next(
            ((metric, measure) for metric, (names, measure) in RESULTS.items()
             if qual in names), None)
        result_counts = self.result_counts

        def traced(*args, **kwargs):
            n = calls[qual] = calls[qual] + 1
            parent = stack[-1]
            if n <= SPAN_LIMIT:
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf_counter()
            for g in groups:
                if not depth[g]:
                    start[g] = t0
                depth[g] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self_time[qual] += dur - frame[0]
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        total[g] += t1 - start[g]
                if n <= SPAN_LIMIT:
                    spans[frame[1]] = (qual, t0, t1, parent[1])
            if counter is not None:
                result_counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, qual: str, layer: str, fn):
        # Each resumption is timed as one call of ``qual``.
        step = self._wrap(qual, layer, next)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time and the named counts, as plain JSON."""
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for qual, secs in self.self_time.items():
            layer_self[self.layer[qual]] += secs
        metrics = {f"{layer}.self_s": secs for layer, secs in layer_self.items()}
        metrics.update(zip(self.group_names, self.group_total))
        for metric, names in CALLS.items():
            metrics[metric] = sum(self.calls.get(q, 0) for q in names)
        metrics.update(self.result_counts)
        return {
            "metrics": metrics,
            "spans": self.spans,
        }
