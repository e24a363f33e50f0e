"""Outside-in tracing of coarsedim's layers.

The tracer replaces each layer's public functions with timing wrappers
wherever a module looks them up (``coarsedim.hurewicz.canonical_projection``
as well as ``coarsedim.polyhedra.canonical_projection``), plus a few public
methods.  Every call records a span (name, start, end, parent span,
operation id) in memory.  Leaves called about 10^5 times per operation are
recorded as a call count plus summed time under their parent span instead.

A layer is the module a function is defined in: ``metric_core``,
``covers``, ``polyhedra``, ``hurewicz``, ``group_spaces`` or ``cli``.
Self time is a call's duration minus the time of the wrapped calls made
inside it, so self times over all names add up to the traced time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYER_MODULES = {
    "metric_core": ["coarsedim.metric_core"],
    "covers": ["coarsedim.covers"],
    "polyhedra": ["coarsedim.polyhedra"],
    "hurewicz": ["coarsedim.hurewicz"],
    "group_spaces": [
        "coarsedim.group_spaces.groups",
        "coarsedim.group_spaces.free_products",
        "coarsedim.group_spaces.amalgams",
        "coarsedim.group_spaces.bounds",
        "coarsedim.group_spaces.hyperbolic",
    ],
    "cli": ["coarsedim.cli"],
}

# Called about 10^5 times per operation or more: a span per call would cost
# more than the call, so these keep a count and a time sum per parent span.
LEAVES = {
    "polyhedra.embedded_distance",
    "metric_core.PointSet.of",
    "group_spaces.GroupModel.multiply",
    "metric_core.set_distance",
    "metric_core.as_point_set",
    "metric_core.diameter_of",
    "hurewicz.proximity_weights",
}

# (module, class, attribute) of the public methods that are traced.
METHODS = [
    ("coarsedim.metric_core", "PointSet", "of"),
    ("coarsedim.polyhedra", "MappingCylinder", "point"),
    ("coarsedim.hurewicz", "Assembly", "tower_map"),
    ("coarsedim.cli", "Workspace", "get"),
    ("coarsedim.cli", "Workspace", "put"),
]


def layer_of(module_name: str) -> str | None:
    for layer, modules in LAYER_MODULES.items():
        if module_name in modules:
            return layer
    return None


class Tracer:
    """Spans and per-name totals of one process.

    ``stats[name]`` is ``[calls, total_s, self_s]``; ``counters`` holds the
    sizes the hooks read from arguments and results (pairs, triples, ball
    points, distinct projection keys).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaf_totals: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)  # keys seen in the current operation
        self.distinct_counts: Counter = Counter()  # summed over finished operations
        self._stack: list[list] = [[0, 0.0]]
        self._next_id = 1
        self.op_id = 0
        self.installed = False

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.spans.clear()
        self.leaf_totals.clear()
        self.stats.clear()
        self.counters.clear()
        self.distinct.clear()
        self.distinct_counts.clear()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        leaf = name in LEAVES
        stack = self._stack
        stats = self.stats
        spans = self.spans
        leaf_totals = self.leaf_totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if leaf:
                frame = [stack[-1][0], 0.0]
            else:
                frame = [self._next_id, 0.0]
                self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1]
                parent[1] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if leaf:
                    agg = leaf_totals[(parent[0], name)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    spans.append((frame[0], parent[0], self.op_id, name, t0, t1))
            if hook is not None:
                result = hook(self, args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation; layer calls nest under it."""
        self.op_id = op_id
        self._stack[:] = [[self._next_id, 0.0]]
        self._next_id += 1
        self._op_start = perf_counter()

    def end_op(self) -> float:
        t1 = perf_counter()
        frame = self._stack[0]
        dur = t1 - self._op_start
        st = self.stats["op"]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        self.spans.append((frame[0], 0, self.op_id, "op", self._op_start, t1))
        self._stack[:] = [[0, 0.0]]
        for key, seen in self.distinct.items():
            self.distinct_counts[key] += len(seen)
        self.distinct.clear()
        return dur

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer module, in every
        coarsedim module that binds it, and the listed methods."""
        if self.installed:
            return
        for modules in LAYER_MODULES.values():
            for mod_name in modules:
                importlib.import_module(mod_name)
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("coarsedim") and m]
        wrapped: dict[int, object] = {}
        for layer, modules in LAYER_MODULES.items():
            for mod_name in modules:
                module = sys.modules[mod_name]
                for attr, fn in list(vars(module).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if fn.__module__ != mod_name:
                        continue
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = self.wrap(name, fn, HOOKS.get(name))
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            layer = layer_of(mod_name)
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, HOOKS.get(name))))
            else:
                setattr(cls, attr, self.wrap(name, raw, HOOKS.get(name)))
        self.installed = True

    def trace_group(self, group):
        """Return the group with its multiply oracle traced (the model is a
        frozen dataclass, so the oracle is swapped by dataclasses.replace)."""
        mul = group.multiply
        if getattr(mul, "__perfbench_traced__", False):
            return group
        return dataclasses.replace(
            group, multiply=self.wrap("group_spaces.GroupModel.multiply", mul)
        )

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals in a JSON-friendly form, mergeable across processes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "distinct": dict(self.distinct_counts),
        }

    def write_spans(self, path, op_ids=None) -> None:
        """Write spans (and leaf totals under them) as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, op, name, t0, t1 in self.spans:
                if op_ids is not None and op not in op_ids:
                    continue
                f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                    "start": t0, "end": t1}) + "\n")
            for (parent, name), (calls, total) in self.leaf_totals.items():
                f.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                    "total_s": total}) + "\n")


# ---------------------------------------------------------------------------
# hooks: read sizes from arguments and results at the layer boundary


def _group_result(tracer, args, kwargs, result):
    from coarsedim.group_spaces.groups import GroupModel

    if isinstance(result, GroupModel):
        return tracer.trace_group(result)
    return result


def _lipschitz_pairs(tracer, args, kwargs, result):
    m = args[0]
    budget = kwargs.get("pair_budget", args[1] if len(args) > 1 else "all")
    n = len(list(m.points()))
    tracer.counters["lipschitz_pairs"] += n * (n - 1) // 2 if budget == "all" else int(budget)
    return result


def _triples(tracer, args, kwargs, result):
    if result.get("triple_mode") == "exhaustive":
        tracer.counters["triples_checked"] += result["n"] ** 3
    elif result.get("triple_mode") == "sampled":
        tracer.counters["triples_checked"] += result["triples_sampled"]
    return result


def _projection_key(tracer, args, kwargs, result):
    tracer.distinct["canonical_projection"].add((id(args[0]), args[1]))
    return result


def _tower_key(tracer, args, kwargs, result):
    tracer.distinct["tower_map"].add((id(args[1]), args[2]))
    return result


def _decomposition_returned(tracer, args, kwargs, result):
    tracer.counters["decompositions_returned"] += 1
    return result


def _ball_points(tracer, args, kwargs, result):
    tracer.counters["ball_points"] += result.space.n
    return result


def _assembly_sizes(tracer, args, kwargs, result):
    tracer.counters["towers"] += len(result.towers)
    tracer.counters["faces"] += len(result.face_covers)
    return result


def _cache_lookup(tracer, args, kwargs, result):
    tracer.counters["cache_lookups"] += 1
    tracer.counters["cache_hits"] += result is not None
    return result


HOOKS = {
    "metric_core.measured_lipschitz": _lipschitz_pairs,
    "metric_core.verify_metric_axioms": _triples,
    "polyhedra.canonical_projection": _projection_key,
    "hurewicz.Assembly.tower_map": _tower_key,
    "covers.colored_decomposition": _decomposition_returned,
    "group_spaces.cayley_ball": _ball_points,
    "hurewicz.build_assembly": _assembly_sizes,
    "cli.Workspace.get": _cache_lookup,
}
for _factory in ("free_group", "free_abelian_group", "cyclic_group", "heisenberg_group",
                 "direct_product", "group_from_json", "amalgam_group_model"):
    HOOKS[f"group_spaces.{_factory}"] = _group_result


# ---------------------------------------------------------------------------
# per-layer metrics


def merge(snapshots) -> dict:
    out = {"stats": defaultdict(lambda: [0, 0.0, 0.0]), "counters": Counter(), "distinct": Counter()}
    for snap in snapshots:
        for k, v in snap["stats"].items():
            acc = out["stats"][k]
            for i in range(3):
                acc[i] += v[i]
        out["counters"].update(snap["counters"])
        out["distinct"].update(snap["distinct"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, ops: int, setup: dict | None = None) -> dict:
    """Per-operation layer metrics from merged totals of ``ops`` traced
    operations.  ``setup`` holds the totals of a traced fresh set-up, where
    lazily cached work (the measured cylinder constants) happens."""
    stats, counters, distinct = totals["stats"], totals["counters"], totals["distinct"]

    def self_s(*names):
        return sum(stats[n][2] for n in names if n in stats) / ops

    def calls(name):
        return stats[name][0] / ops if name in stats else 0.0

    def module_self(names):
        return sum(v[2] for k, v in stats.items() if k in names) / ops

    from coarsedim.group_spaces import free_products, hyperbolic

    fp_names = {f"group_spaces.{a}" for a, f in vars(free_products).items()
                if inspect.isfunction(f) and f.__module__ == free_products.__name__}
    hy_names = {f"group_spaces.{a}" for a, f in vars(hyperbolic).items()
                if inspect.isfunction(f) and f.__module__ == hyperbolic.__name__}
    uniform = ("polyhedra.measure_uniformization_constant", "polyhedra.measure_cylinder_constant")
    uniform_setup = 0.0
    if setup is not None:
        uniform_setup = sum(setup["stats"][n][2] for n in uniform if n in setup["stats"])

    c = counters
    return {
        "metric_core.pointset_builds": ("count", calls("metric_core.PointSet.of")),
        "metric_core.measured_lipschitz.self_s": ("s", self_s("metric_core.measured_lipschitz")),
        "metric_core.lipschitz_pairs": ("count", c["lipschitz_pairs"] / ops),
        "metric_core.verify_metric_axioms.self_s": ("s", self_s("metric_core.verify_metric_axioms")),
        "metric_core.triples_checked": ("count", c["triples_checked"] / ops),
        "metric_core.graph_metric.self_s": ("s", self_s("metric_core.build_graph_metric")),
        "metric_core.neighborhood.self_s": ("s", self_s("metric_core.neighborhood")),
        "covers.colored_decomposition.self_s": ("s", self_s("covers.colored_decomposition")),
        "covers.colored_decomposition.calls": ("count", calls("covers.colored_decomposition")),
        "covers.carvings": ("count", calls("covers.carve_clusters")),
        "covers.carving_useful_ratio": (
            "ratio", _ratio(c["decompositions_returned"] / ops, calls("covers.carve_clusters"))),
        "covers.lebesgue_number.self_s": ("s", self_s("covers.lebesgue_number")),
        "covers.multiplicity.self_s": ("s", self_s("covers.multiplicity")),
        "covers.mesh.self_s": ("s", self_s("covers.mesh")),
        "polyhedra.canonical_projection.self_s": ("s", self_s("polyhedra.canonical_projection")),
        "polyhedra.canonical_projection.calls": ("count", calls("polyhedra.canonical_projection")),
        "polyhedra.projection_distinct_ratio": (
            "ratio", _ratio(distinct["canonical_projection"] / ops,
                            calls("polyhedra.canonical_projection"))),
        "polyhedra.embedded_distance.calls": ("count", calls("polyhedra.embedded_distance")),
        "polyhedra.embedded_distance.self_s": ("s", self_s("polyhedra.embedded_distance")),
        "polyhedra.nerve.self_s": ("s", self_s("polyhedra.nerve")),
        "polyhedra.refinement_map.self_s": ("s", self_s("polyhedra.refinement_map")),
        "polyhedra.mapping_cylinder.self_s": ("s", self_s("polyhedra.mapping_cylinder")),
        "polyhedra.cylinder_point.self_s": ("s", self_s("polyhedra.MappingCylinder.point")),
        "polyhedra.uniformization.self_s": ("s", self_s(*uniform) + uniform_setup),
        "hurewicz.build_assembly.self_s": ("s", self_s("hurewicz.build_assembly")),
        "hurewicz.face_agreements.self_s": (
            "s", self_s("hurewicz.all_face_agreements", "hurewicz.face_agreement_check")),
        "hurewicz.make_config.self_s": ("s", self_s("hurewicz.make_config")),
        "hurewicz.tower_map.calls": ("count", calls("hurewicz.Assembly.tower_map")),
        "hurewicz.tower_map_distinct_ratio": (
            "ratio", _ratio(distinct["tower_map"] / ops, calls("hurewicz.Assembly.tower_map"))),
        "hurewicz.towers": ("count", c["towers"] / ops),
        "hurewicz.faces": ("count", c["faces"] / ops),
        "group_spaces.cayley_ball.self_s": ("s", self_s("group_spaces.cayley_ball")),
        "group_spaces.enumerate_ball.self_s": ("s", self_s("group_spaces.enumerate_ball")),
        "group_spaces.oracle_calls": ("count", calls("group_spaces.GroupModel.multiply")),
        "group_spaces.oracle_wait_s": ("s", self_s("group_spaces.GroupModel.multiply")),
        "group_spaces.ball_points": ("count", c["ball_points"] / ops),
        "group_spaces.free_product.self_s": ("s", module_self(fp_names)),
        "group_spaces.hyperbolization.self_s": ("s", module_self(hy_names)),
    }


def layer_self_total(totals: dict, ops: int) -> float:
    """Self time of all wrapped layer calls per operation (the root span's
    own time, spent in the benchmark between calls, excluded)."""
    return sum(v[2] for k, v in totals["stats"].items() if k != "op") / ops
