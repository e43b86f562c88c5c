"""Span recorder for the traced benchmark run.

``traced(recorder)`` wraps the public entry points of every hypkob module
for the duration of a ``with`` block, from the benchmark's side: methods
on their classes, and module-level functions in every module that looks
them up by name (``cli`` imports from ``gromov``, ``kobayashi`` and
``dynamics``; ``boundary`` calls scipy's ``dijkstra``). Spans stay in
memory; ``layer_metrics`` turns them into the per-layer metrics.

A span's self time is its duration minus that of its direct children.
Each ``_s`` metric sums self times, so the layers partition the traced
time, except ``config.build_workspace_s``, which is inclusive: it is the
in-session counterpart of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """Spans as ``[name, start, end, parent, count]`` lists.

    ``parent`` is the index of the enclosing span, -1 for a root; the
    roots are the CLI commands, so a span's command is its root.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, count: float = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = count
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "count": c}
                for n, s, e, p, c in self.spans]


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _rows(X) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


def _dijkstra_rows(args, kwargs, out) -> int:
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    if indices is None:
        return int(args[0].shape[0])
    return int(np.atleast_1d(indices).size)


# (module, class or None, attribute, span name, count(args, kwargs, result))
TARGETS = [
    ("config", None, "build_workspace", "config.build_workspace", None),
    ("cli", None, "build_workspace", "config.build_workspace", None),
    ("domain", "HeightProjection", "project_batch", "domain.project_batch",
     lambda a, k, r: _rows(a[1])),
    ("config", None, "reach_details", "domain.reach", None),
    ("domain", "Domain", "sample_boundary", "domain.sample_boundary", None),
    ("boundary", "BoundaryGraph", "build", "boundary.build", None),
    ("boundary", "BoundaryGraph", "save", "boundary.save", None),
    ("boundary", "BoundaryGraph", "load", "boundary.load", None),
    ("boundary", "BoundaryGraph", "rows_from", "boundary.rows_from",
     lambda a, k, r: int(np.atleast_1d(a[1]).size)),
    ("boundary", None, "dijkstra", "boundary.dijkstra", _dijkstra_rows),
    ("boundary", "BoundaryGraph", "geodesic", "boundary.geodesic", None),
    ("boundary", "BoundaryGraph", "distance_local", "boundary.distance_local",
     None),
    ("boundary", "BoundaryGraph", "distance_local_batch",
     "boundary.distance_local", None),
    ("metrics", "MetricFamily", "prepare", "metrics.prepare",
     lambda a, k, r: len(r)),
    ("metrics", "MetricFamily", "g_pairs", "metrics.pair_kernels", None),
    ("metrics", "MetricFamily", "d_pairs", "metrics.pair_kernels", None),
    ("metrics", None, "path_length", "metrics.path_length", None),
    ("cli", None, "path_length", "metrics.path_length", None),
    ("metrics", "MetricFamily", "composite_upper_path",
     "metrics.composite_path", None),
    ("layered", "LayeredSolver", "__init__", "layered.assemble",
     lambda a, k, r: a[0].levels.size * a[0].graph.nodes.shape[0]),
    ("layered", "LayeredSolver", "distances", "layered.distances", None),
    ("kobayashi", None, "kobayashi_speed_batch", "kobayashi.speed_batch",
     None),
    ("kobayashi", None, "quasi_isometry_fit", "kobayashi.fit", None),
    ("cli", None, "quasi_isometry_fit", "kobayashi.fit", None),
    ("gromov", None, "distance_matrix", "gromov.distance_matrix", None),
    ("cli", None, "four_point_delta", "gromov.four_point",
     lambda a, k, r: r.n_quadruples),
    ("cli", None, "iterate_many", "dynamics.iterate",
     lambda a, k, r: sum(rec.n_steps for rec in r)),
    ("cli", None, "classify_orbit", "dynamics.classify", None),
    ("cli", None, "check_semicontraction", "dynamics.semicontraction", None),
    ("cli", None, "check_structure", "structures.checks", None),
    ("cli", None, "check_strict_convexity", "structures.checks", None),
    ("cli", None, "contact_batch", "structures.checks", None),
]


def _wrap(rec: Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        n = 0
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = count(args, kwargs, out)
            return out
        finally:
            rec.close(idx, n)
    return wrapper


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the block; restore the originals after."""
    saved = []
    try:
        for mod_name, cls_name, attr, name, count in TARGETS:
            mod = importlib.import_module(f"hypkob.{mod_name}")
            owner = getattr(mod, cls_name) if cls_name else mod
            raw = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(rec, name, raw.__func__, count))
            else:
                new = _wrap(rec, name, raw, count)
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

# (metric, unit, better); the order is the order of the report
PER_LAYER = [
    ("config.build_workspace_s", "s", "lower"),
    ("domain.project_batch_s", "s", "lower"),
    ("domain.project_calls", "count", "lower"),
    ("domain.points_projected", "count", "lower"),
    ("domain.us_per_point", "us", "lower"),
    ("domain.project_share", "ratio", "lower"),
    ("domain.reach_s", "s", "lower"),
    ("domain.sample_boundary_s", "s", "lower"),
    ("boundary.build_s", "s", "lower"),
    ("boundary.save_s", "s", "lower"),
    ("boundary.load_s", "s", "lower"),
    ("boundary.rows_from_s", "s", "lower"),
    ("boundary.rows_requested", "count", "lower"),
    ("boundary.dijkstra_s", "s", "lower"),
    ("boundary.dijkstra_rows", "count", "lower"),
    ("boundary.row_reuse", "ratio", "higher"),
    ("boundary.geodesic_s", "s", "lower"),
    ("boundary.geodesic_calls", "count", "lower"),
    ("boundary.distance_local_s", "s", "lower"),
    ("metrics.prepare_s", "s", "lower"),
    ("metrics.prepare_points", "count", "lower"),
    ("metrics.point_cache_hits", "ratio", "higher"),
    ("metrics.pair_kernels_s", "s", "lower"),
    ("metrics.path_length_s", "s", "lower"),
    ("metrics.composite_path_s", "s", "lower"),
    ("layered.assemble_s", "s", "lower"),
    ("layered.grid_nodes", "count", "lower"),
    ("layered.distances_s", "s", "lower"),
    ("kobayashi.speed_batch_s", "s", "lower"),
    ("kobayashi.fit_s", "s", "lower"),
    ("gromov.distance_matrix_s", "s", "lower"),
    ("gromov.four_point_s", "s", "lower"),
    ("gromov.quadruples", "count", "lower"),
    ("dynamics.iterate_s", "s", "lower"),
    ("dynamics.orbit_steps", "count", "lower"),
    ("dynamics.classify_s", "s", "lower"),
    ("dynamics.semicontraction_s", "s", "lower"),
    ("structures.checks_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def layer_metrics(rec: Recorder, traced_s: float,
                  untraced_s: float) -> dict:
    """Per-layer metrics over every span of the recorder.

    ``traced_s`` and ``untraced_s`` are the wall times of the traced
    session and of an untraced one; their ratio gives the overhead.
    """
    spans = rec.spans
    dur = [e - s for _, s, e, _, _ in spans]
    child = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            child[sp[3]] += dur[i]
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for i, (name, _, _, _, n) in enumerate(spans):
        self_s[name] += dur[i] - child[i]
        incl_s[name] += dur[i]
        calls[name] += 1
        counts[name] += n
    # work done on behalf of a parent layer: projection under prepare,
    # Dijkstra rows under rows_from
    under = defaultdict(float)
    for name, _, _, parent, n in spans:
        if parent >= 0:
            under[(spans[parent][0], name)] += n

    def ratio(num, den):
        return num / den if den else 0.0

    points = counts["domain.project_batch"]
    requested = counts["boundary.rows_from"]
    prepared = counts["metrics.prepare"]
    out = {
        "config.build_workspace_s": incl_s["config.build_workspace"],
        "domain.project_calls": calls["domain.project_batch"],
        "domain.points_projected": points,
        "domain.us_per_point": 1e6 * ratio(self_s["domain.project_batch"],
                                           points),
        "domain.project_share": ratio(self_s["domain.project_batch"],
                                      traced_s),
        "boundary.rows_requested": requested,
        "boundary.dijkstra_rows": counts["boundary.dijkstra"],
        "boundary.row_reuse": 1.0 - ratio(
            under[("boundary.rows_from", "boundary.dijkstra")], requested),
        "boundary.geodesic_calls": calls["boundary.geodesic"],
        "metrics.prepare_points": prepared,
        "metrics.point_cache_hits": 1.0 - ratio(
            under[("metrics.prepare", "domain.project_batch")], prepared),
        "layered.grid_nodes": counts["layered.assemble"],
        "gromov.quadruples": counts["gromov.four_point"],
        "dynamics.orbit_steps": counts["dynamics.iterate"],
        "cli.self_s": self_s["cli"],
        "trace.overhead": ratio(traced_s, untraced_s) - 1.0,
    }
    for metric, unit, _ in PER_LAYER:
        if metric not in out and unit == "s":
            out[metric] = self_s[metric[:-2]]
    return {m: {"value": float(out[m]), "unit": u} for m, u, _ in PER_LAYER}
