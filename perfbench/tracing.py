"""In-memory spans around the library calls the benchmark makes.

A :class:`Tracer` wraps library callables so that each call records a span
``(name, start, end, parent, op)``; ``name`` is ``<module>.<function>`` with
the module being the ``ncwreath`` layer that owns the function. Work counts
are taken at the same boundary from the call's arguments and result. Spans
stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from time import perf_counter

from oracles import catalan

LAYERS = ("partitions", "algebra", "tensor_maps", "groups", "decorated", "fusion", "cli")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _count_build_map(counts, args, result):
    matrix = result.matrix
    counts["tensor_maps.build_map.entries"] += matrix.size
    counts["tensor_maps.build_map.nonzeros"] += int((matrix != 0).sum())
    counts["tensor_maps.build_map.bytes"] += matrix.nbytes


def _count_decorated(counts, args, result):
    counts["decorated.decorated_hom_dimension.diagrams_scanned"] += catalan(
        len(args[1]) + len(args[2])
    )
    counts["decorated.decorated_hom_dimension.admissible"] += result


# Work counted at the boundary of each call, from its arguments and result.
COUNTERS = {
    "partitions.enumerate_partitions": lambda c, a, r: c.update(
        {"partitions.enumerate_partitions.diagrams": len(r)}
    ),
    "tensor_maps.build_map": _count_build_map,
    "tensor_maps.gram_rank": lambda c, a, r: c.update({"tensor_maps.gram_rank.maps": len(a[0])}),
    "decorated.decorated_hom_dimension": _count_decorated,
    "fusion.fusion_product": lambda c, a, r: c.update({"fusion.fusion_product.terms": len(r)}),
    "fusion.dimension": lambda c, a, r: c.update({"fusion.dimension.letters": len(a[0])}),
    "cli.run": lambda c, a, r: c.update({"cli.run.calls": 1, "cli.run.exit_nonzero": int(r != 0)}),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    def wrap(self, fn):
        name = span_name(fn)
        count = COUNTERS.get(name)
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else -1
            opened.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end - start, parent, op]) + "\n")


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans and counts of one traced run.

    ``<layer>.busy_s`` is the layer's self time: span durations minus the
    time covered by their direct child spans. Figures of a function the
    workload never called are 0.
    """
    durations = defaultdict(list)
    child_time = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    busy = Counter()
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        busy[name.split(".", 1)[0]] += end - start - child_time[index]

    c = tracer.counts

    def p50(name, scale):
        return _percentile(durations[name], 0.5) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    enum_time = sum(durations["partitions.enumerate_partitions"])
    diagrams = c["partitions.enumerate_partitions.diagrams"]
    builds = len(durations["tensor_maps.build_map"])
    entries = c["tensor_maps.build_map.entries"]
    nonzeros = c["tensor_maps.build_map.nonzeros"]
    scanned = c["decorated.decorated_hom_dimension.diagrams_scanned"]
    out = {
        "partitions.enumerate_partitions.us_per_diagram": (
            ratio(enum_time, diagrams) * 1e6, "us"),
        "partitions.enumerate_partitions.diagrams": (diagrams, "count"),
        "partitions.compose.us_p50": (p50("partitions.compose", 1e6), "us"),
        "partitions.from_dict.us_p50": (p50("partitions.from_dict", 1e6), "us"),
        "partitions.tensor.us_p50": (p50("partitions.tensor", 1e6), "us"),
        "partitions.adjoint.us_p50": (p50("partitions.adjoint", 1e6), "us"),
        "algebra.from_dict.us_p50": (p50("algebra.from_dict", 1e6), "us"),
        "algebra.is_delta_form.us_p50": (p50("algebra.is_delta_form", 1e6), "us"),
        "algebra.decompose_by_delta.us_p50": (p50("algebra.decompose_by_delta", 1e6), "us"),
        "tensor_maps.build_map.ms_p50": (p50("tensor_maps.build_map", 1e3), "ms"),
        "tensor_maps.build_map.ms_p99": (
            _percentile(durations["tensor_maps.build_map"], 0.99) * 1e3, "ms"),
        "tensor_maps.build_map.entries": (entries, "count"),
        "tensor_maps.build_map.nonzeros": (nonzeros, "count"),
        "tensor_maps.build_map.nonzero_ratio": (ratio(nonzeros, entries), "ratio"),
        "tensor_maps.build_map.bytes_computed": (
            ratio(c["tensor_maps.build_map.bytes"], builds), "B"),
        "tensor_maps.verify_composition.ms_p50": (
            p50("tensor_maps.verify_composition", 1e3), "ms"),
        "tensor_maps.gram_rank.ms_p50": (p50("tensor_maps.gram_rank", 1e3), "ms"),
        "tensor_maps.gram_rank.maps": (c["tensor_maps.gram_rank.maps"], "count"),
        "groups.parse_group_spec.us_p50": (p50("groups.parse_group_spec", 1e6), "us"),
        "groups.parse_word_text.us_p50": (p50("groups.parse_word_text", 1e6), "us"),
        "decorated.decorated_hom_dimension.ms_p50": (
            p50("decorated.decorated_hom_dimension", 1e3), "ms"),
        "decorated.decorated_hom_dimension.diagrams_scanned": (scanned, "count"),
        "decorated.decorated_hom_dimension.admissible_ratio": (
            ratio(c["decorated.decorated_hom_dimension.admissible"], scanned), "ratio"),
        "fusion.fusion_product.us_p50": (p50("fusion.fusion_product", 1e6), "us"),
        "fusion.fusion_product.terms": (c["fusion.fusion_product.terms"], "count"),
        "fusion.dimension.ms_p50": (p50("fusion.dimension", 1e3), "ms"),
        "fusion.dimension.letters": (c["fusion.dimension.letters"], "count"),
        "fusion.a_rep_trivial_multiplicity.ms_p50": (
            p50("fusion.a_rep_trivial_multiplicity", 1e3), "ms"),
        "fusion.free_product_fusion.us_p50": (p50("fusion.free_product_fusion", 1e6), "us"),
        "cli.run.ms_p50": (p50("cli.run", 1e3), "ms"),
        "cli.run.ms_p99": (_percentile(durations["cli.run"], 0.99) * 1e3, "ms"),
        "cli.run.calls": (c["cli.run.calls"], "count"),
        "cli.run.exit_nonzero": (c["cli.run.exit_nonzero"], "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (busy[layer], "s")
    return out
