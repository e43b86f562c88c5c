"""The boundary-anchored metrics on the domain interior.

Two distances live here. The first, ``g``, is a closed formula in the
boundary distance of the nearest-point feet and the square-root heights of
the endpoints. The second, ``d``, is the geodesic distance of the collar
path family: inside the collar it has an exact closed form obtained by
optimizing over the peak height of boundary-parallel paths; deeper points
enter the collar along their normal rays at a cost equal to their depth
excess, except that two points on a common ray connect by the straight
segment.

The closed collar form makes ``d`` an exact pseudometric over snapped
feet: concatenation of optimal profiles is again an admissible profile, so
the triangle inequality holds to rounding, not to mesh resolution.

Path lengths are measured for ``g`` and the interior Finsler estimate only,
by dyadic refinement of a first-order rate quadrature with frames pinned
per original segment; ``d``'s value on a path is certified by its witness
construction (``composite_upper_paths``), not measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    HeightsDiffer,
    PointOutsideDomain,
    RefinementStalled,
)
from .boundary import BoundaryGraph
from .domain import HeightProjection

__all__ = [
    "Polyline",
    "PreparedPoints",
    "MetricFamily",
    "MetricFunctional",
    "path_length",
    "collar_profile_distance",
    "estimate_C",
]

FUNCTIONAL_KINDS = ("g", "d", "kobayashi_estimate", "euclidean")
# the kinds ``path_length`` measures
_RATE_KINDS = ("g", "kobayashi_estimate")


def _peak(w, ha, hb, eps):
    """Optimal profile height: ``w`` clipped into ``[max(ha, hb), sqrt(eps)]``."""
    return np.clip(w, np.maximum(ha, hb), math.sqrt(eps))


def collar_profile_distance(w, ha, hb, eps):
    """Optimal collar path cost for boundary separation ``w`` and heights.

    Over paths that rise from height ``ha`` to a peak ``P``, run the
    boundary separation at that height, and descend to ``hb``, the cost
    ``ln(P^2/(ha hb)) + 2 w / P`` is minimized at ``P = w`` clipped into
    the admissible interval ``[max(ha, hb), sqrt(eps)]``.
    """
    w = np.asarray(w, dtype=float)
    ha = np.asarray(ha, dtype=float)
    hb = np.asarray(hb, dtype=float)
    peak = _peak(w, ha, hb, eps)
    out = 2.0 * np.log(peak / np.sqrt(ha * hb))
    return out + np.where(w > 0, 2.0 * w / np.where(peak > 0, peak, 1.0), 0.0)


@dataclass
class Polyline:
    """A piecewise linear path with optional per-segment evaluation hints.

    ``frame_nodes`` pins the anisotropic frame used for the horizontal part
    of each original segment; ``vertical`` marks segments that run along a
    single normal ray, which ``path_length`` measures by their exact log
    form instead of the quadrature. Exact duplicate consecutive points are
    dropped on construction, so a fully degenerate input collapses to a
    single-point path of length zero. ``prepared`` holds the vertices' feet
    and depths where the construction knows them, so measuring the path
    projects none of its vertices.
    """

    points: np.ndarray
    frame_nodes: Optional[np.ndarray] = None
    vertical: Optional[np.ndarray] = None
    prepared: Optional["PreparedPoints"] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[0] < 1:
            raise ConfigError("a polyline needs at least one point")
        if (self.prepared is not None
                and len(self.prepared) != self.points.shape[0]):
            raise ConfigError("prepared vertices must match the points")
        gaps = np.linalg.norm(np.diff(self.points, axis=0), axis=-1)
        if np.any(gaps == 0.0):
            keep = gaps > 0.0
            self.points = np.vstack([self.points[:-1][keep], self.points[-1:]])
            if self.prepared is not None:
                self.prepared = self.prepared.take(np.append(np.flatnonzero(keep),
                                                             keep.size))
            if self.frame_nodes is not None and self.frame_nodes.shape[0] == keep.size:
                self.frame_nodes = self.frame_nodes[keep]
            if self.vertical is not None and self.vertical.shape[0] == keep.size:
                self.vertical = self.vertical[keep]

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1

    def params(self) -> np.ndarray:
        """Cumulative Euclidean parameter, starting at zero."""
        chords = np.linalg.norm(np.diff(self.points, axis=0), axis=-1)
        return np.concatenate([[0.0], np.cumsum(chords)])


@dataclass
class PreparedPoints:
    """Batched projection data of one ``owner`` family, whose graph the
    nodes index and whose collar width clips the heights."""

    points: np.ndarray
    feet: np.ndarray
    depth: np.ndarray     # Euclidean distance to the boundary
    height: np.ndarray    # sqrt of depth
    node: np.ndarray      # snapped node index of the foot
    heff: np.ndarray      # height clipped to the collar ceiling
    extra: np.ndarray     # depth excess beyond the collar, zero inside
    owner: Optional["MetricFamily"] = None

    def __len__(self):
        return self.points.shape[0]

    def take(self, idx) -> "PreparedPoints":
        idx = np.asarray(idx)
        return PreparedPoints(self.points[idx], self.feet[idx], self.depth[idx],
                              self.height[idx], self.node[idx], self.heff[idx],
                              self.extra[idx], self.owner)


class MetricFamily:
    """Evaluator for the boundary-anchored metrics over one domain setup."""

    def __init__(self, projection: HeightProjection, graph: BoundaryGraph):
        if graph.domain is not projection.domain:
            raise ConfigError("graph and projection must share one domain")
        self.projection = projection
        self.graph = graph
        self.eps = projection.epsilon

    # -- preparation ---------------------------------------------------------

    def prepare(self, X) -> PreparedPoints:
        """Project a batch and snap its feet; the result depends on ``X`` alone.

        Points built with known feet (samplers, witness paths) are passed
        along as the ``PreparedPoints`` of their construction instead.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        feet, depth = self.projection.project_batch(X)
        return self._prepare_known(X, feet, depth, self.graph.snap(feet))

    def as_prepared(self, X) -> PreparedPoints:
        """``X`` itself when this family prepared it, else ``prepare``
        of its coordinates (another family's nodes index another graph)."""
        if isinstance(X, PreparedPoints):
            if X.owner is self:
                return X
            X = X.points
        return self.prepare(X)

    def _prepare_known(self, X, feet, depth, node) -> PreparedPoints:
        """Points whose feet, depths and foot nodes are already known.

        A point at depth 0 or less lies on the boundary, not inside, and is
        refused: its height would be 0 and every distance to it infinite.
        """
        depth = np.asarray(depth, dtype=float)
        if np.any(depth <= 0):
            raise PointOutsideDomain("a point at depth 0 lies on the boundary, "
                                     "not in the open domain")
        height = np.sqrt(depth)
        heff = np.minimum(height, math.sqrt(self.eps))
        extra = np.maximum(depth - self.eps, 0.0)
        return PreparedPoints(np.asarray(X, dtype=float),
                              np.asarray(feet, dtype=float), depth, height,
                              np.asarray(node), heff, extra, self)

    def prepare_on_rays(self, node_idx, depths) -> PreparedPoints:
        """Points built at known depths on node normal rays, no solver pass.

        Valid while the depth stays under the collar width, where the node
        itself is the unique nearest boundary point.
        """
        node_idx = np.atleast_1d(np.asarray(node_idx, dtype=int))
        depths = np.broadcast_to(np.asarray(depths, dtype=float), node_idx.shape)
        if np.any(depths < 0) or np.any(depths > self.eps):
            raise ConfigError("ray depths must stay inside the collar")
        feet = self.graph.nodes[node_idx]
        n = self.graph.domain.outward_normal(feet)
        pts = feet - depths[:, None] * n
        return self._prepare_known(pts, feet, depths.copy(), node_idx.copy())

    # -- the two metrics ------------------------------------------------------

    def kernel(self, kind: str, W, A: PreparedPoints,
               B: PreparedPoints) -> np.ndarray:
        """Values of ``g`` or ``d`` from the boundary separations ``W``.

        ``A`` and ``B`` broadcast against ``W``: aligned batches, or one
        batch taken as a column and as a row for a pairwise table.
        ``g`` is ``2 log((W + max(h_a, h_b)) / sqrt(h_a h_b))``. ``d`` is the
        collar profile cost at the clipped heights plus the depth excess
        of each endpoint, except that a deep pair on one ray takes the
        straight segment. A point paired with itself, at separation zero,
        gives zero in both.
        """
        if kind == "g":
            hmax = np.maximum(A.height, B.height)
            return 2.0 * np.log((W + hmax) / np.sqrt(A.height * B.height))
        if kind != "d":
            raise ConfigError(f"no closed-form kernel for kind {kind!r}")
        core = collar_profile_distance(W, A.heff, B.heff, self.eps)
        out = A.extra + B.extra + core
        both_deep = (A.extra > 0) & (B.extra > 0)
        if np.any(both_deep):
            same_ray = both_deep & self.graph.domain.same_foot(A.feet, B.feet)
            if np.any(same_ray):
                direct = np.linalg.norm(A.points - B.points, axis=-1)
                out = np.where(same_ray, direct, out)
        return out

    def slope(self, kind: str, W, A: PreparedPoints,
              B: PreparedPoints) -> np.ndarray:
        """Derivative of ``kernel(kind, W, A, B)`` in the separation ``W``.

        For ``d`` this is the collar branch, whatever the depths.
        """
        if kind == "g":
            return 2.0 / (W + np.maximum(A.height, B.height))
        if kind != "d":
            raise ConfigError(f"no closed-form kernel for kind {kind!r}")
        return 2.0 / _peak(W, A.heff, B.heff, self.eps)

    def separations(self, A: PreparedPoints, B: PreparedPoints) -> np.ndarray:
        """Boundary separations of aligned batches: row ``A.node`` of the
        cached distance rows at column ``B.node``, one entry per pair.

        The one separation rule of ``g``, ``d``, their slopes and the
        witness paths; ``gromov.distance_matrix`` reads the same rows as a
        table.
        """
        return self.graph.rows_from(A.node, columns=B.node[:, None])[:, 0]

    def _aligned(self, kind: str, A: PreparedPoints,
                 B: PreparedPoints) -> np.ndarray:
        val = self.kernel(kind, self.separations(A, B), A, B)
        same = np.all(np.abs(A.points - B.points) < 1e-15, axis=-1)
        return np.where(same, 0.0, val)

    def g_pairs(self, A: PreparedPoints, B: PreparedPoints) -> np.ndarray:
        """Boundary-anchored log distance for aligned point batches."""
        return self._aligned("g", A, B)

    def d_pairs(self, A: PreparedPoints, B: PreparedPoints) -> np.ndarray:
        """Collar geodesic distance for aligned point batches."""
        return self._aligned("d", A, B)

    # -- scalar interface ------------------------------------------------------

    def g(self, x, y) -> float:
        return float(self.g_pairs(self.prepare(x), self.prepare(y))[0])

    def d(self, x, y) -> float:
        return float(self.d_pairs(self.prepare(x), self.prepare(y))[0])

    # -- structured paths ------------------------------------------------------

    def horizontal_path(self, x, y) -> Polyline:
        """Constant-height path over the graph geodesic between the feet.

        Both endpoints must sit at one height, within 1e-9·max(h, 1). The
        interior vertices are the geodesic nodes pushed inward to the
        shared depth, and every segment pins the frame its edge weight
        was built with, so the measured horizontal cost reproduces the
        graph distance between the snapped feet. The shell vertices carry
        their construction feet and depth, so measuring the path projects
        none of them. Coinciding feet give the degenerate single-point path.
        """
        A = self.prepare(np.asarray(x, dtype=float)[None])
        B = self.prepare(np.asarray(y, dtype=float)[None])
        if abs(A.height[0] - B.height[0]) > 1e-9 * max(A.height[0], 1.0):
            raise HeightsDiffer(
                f"heights {A.height[0]:.6g} and {B.height[0]:.6g} differ")
        if A.extra[0] > 0 or B.extra[0] > 0:
            raise ConfigError("horizontal paths are collar constructions")
        if self.graph.domain.same_foot(A.feet[0], B.feet[0]):
            return Polyline(A.points[0][None])
        h = float(A.height[0])
        t = h * h
        path = self.graph.geodesic_nodes(A.node[0], B.node[0])
        bndry = np.vstack([A.feet[0][None], self.graph.nodes[path],
                           B.feet[0][None]])
        shell = bndry - t * self.graph.domain.outward_normal(bndry)
        pts = np.vstack([A.points[0], shell, B.points[0]])
        frames = self.graph.snap(0.5 * (bndry[:-1] + bndry[1:]))
        # the hop onto and off the shell moves no foot; any frame works
        frames = np.concatenate([frames[:1], frames, frames[-1:]])
        known = self._prepare_known(
            pts, np.vstack([A.feet, bndry, B.feet]),
            np.concatenate([A.depth, np.full(len(shell), t), B.depth]),
            np.concatenate([A.node, A.node, path, B.node, B.node]))
        return Polyline(pts, frame_nodes=frames, prepared=known)

    def composite_upper_path(self, x, y) -> tuple[Polyline, float]:
        """Up-over-down witness path together with its exact cost.

        The one-pair case of ``composite_upper_paths``.
        """
        P = self.prepare(np.stack([x, y]))
        paths, dval = self.composite_upper_paths(P.take([0]), P.take([1]))
        return paths[0], float(dval[0])

    def composite_upper_paths(self, A: PreparedPoints, B: PreparedPoints
                              ) -> tuple[list, np.ndarray]:
        """Witness paths of aligned batches, with their exact costs ``d``.

        Each cost equals the composite distance for its pair, so the path
        certifies the value of ``d`` from above. A path climbs the normal
        ray of the first foot to the peak shell (or descends it, from a
        deep endpoint), follows the graph geodesic between the snapped feet
        on that shell and descends the second ray; a deep pair over one
        foot takes the straight segment, framed by that foot's node. Every
        vertex carries its foot and depth: the endpoints' from ``A`` and
        ``B``, the shell vertices' from the construction (a node or an
        endpoint foot at the peak depth), so measuring a path projects
        nothing.
        """
        n, dom = len(A), self.graph.domain
        dval = self.d_pairs(A, B)
        W = self.separations(A, B)
        peak = _peak(W, A.heff, B.heff, self.eps)
        tpk = peak * peak
        straight = (A.extra > 0) & (B.extra > 0)
        if np.any(straight):
            straight &= dom.same_foot(A.feet, B.feet)
        climb = np.abs(A.depth - tpk) > 1e-14
        descend = np.abs(B.depth - tpk) > 1e-14
        # the vertices of all paths, in order, as indices into the stacked
        # sources (A's rows, B's rows, the graph nodes); ``vert[v]`` marks
        # the segment into vertex ``v`` as one along a normal ray
        src, vert, starts = [], [], []
        for r in range(n):
            starts.append(len(src))
            src.append(r)
            vert.append(False)
            if not straight[r]:
                if climb[r]:
                    src.append(r)
                    vert.append(True)
                if W[r] > 0:
                    path = self.graph.geodesic_nodes(A.node[r], B.node[r])
                    src.extend((2 * n + path).tolist())
                    vert.extend([False] * path.size)
                if descend[r]:
                    src.append(n + r)
                    vert.append(False)
            src.append(n + r)
            vert.append(not straight[r])
        starts.append(len(src))
        src = np.array(src)
        shell = np.ones(src.size, dtype=bool)
        shell[starts[:-1]] = False
        shell[np.array(starts[1:]) - 1] = False
        row = np.repeat(np.arange(n), np.diff(starts))
        nodes = self.graph.nodes
        feet = np.vstack([A.feet, B.feet, nodes])[src]
        node = np.concatenate([A.node, B.node, np.arange(len(nodes))])[src]
        depth = np.concatenate([A.depth, B.depth, np.zeros(len(nodes))])[src]
        points = np.vstack([A.points, B.points, nodes])[src]
        depth[shell] = tpk[row[shell]]
        points[shell] = (feet[shell] - depth[shell, None]
                         * dom.outward_normal(feet[shell]))
        P = self._prepare_known(points, feet, depth, node)
        frames = self.graph.snap(0.5 * (feet[:-1] + feet[1:]))
        frames[np.array(starts[:-1])[straight]] = A.node[straight]
        vert = np.array(vert)
        paths = []
        for r in range(n):
            s, e = starts[r], starts[r + 1]
            paths.append(Polyline(points[s:e], frame_nodes=frames[s:e - 1],
                                  vertical=vert[s + 1:e],
                                  prepared=P.take(np.arange(s, e))))
        return paths, dval

    def functional(self, kind: str) -> "MetricFunctional":
        return MetricFunctional(kind=kind, family=self)


# where the values of the kinds without pair values come from
_PAIR_SOURCES = {
    "kobayashi_estimate": "its solver, LayeredSolver",
    "euclidean": "gromov.distance_matrix and, for dist, cli._batch_values",
}


@dataclass
class MetricFunctional:
    """Length functional over polylines for one of the named kinds.

    Also exposes the pairwise distance of ``g`` and ``d``; the other kinds
    refuse it and name where their pair values come from.
    """

    kind: str
    family: MetricFamily

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ConfigError(f"unknown length functional {self.kind!r}")

    def _require_pairs(self) -> None:
        if self.kind in _PAIR_SOURCES:
            raise ConfigError(f"pair values of {self.kind!r} come from "
                              f"{_PAIR_SOURCES[self.kind]}")

    def pair(self, x, y) -> float:
        """``pairs`` on one pair, whose points are prepared together."""
        self._require_pairs()
        P = self.family.prepare(np.stack([x, y]))
        return float(self.pairs(P.take([0]), P.take([1]))[0])

    def pairs(self, A: PreparedPoints, B: PreparedPoints) -> np.ndarray:
        """Vectorized pair values for aligned prepared batches."""
        self._require_pairs()
        if self.kind == "g":
            return self.family.g_pairs(A, B)
        return self.family.d_pairs(A, B)


# ---------------------------------------------------------------------------
# path length
# ---------------------------------------------------------------------------

def _refined_points(pl: Polyline, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Chord-split points at dyadic depth with original-segment ownership."""
    pts = pl.points
    nseg = pts.shape[0] - 1
    per = 2**depth
    frac = np.arange(per) / per
    a = pts[:-1]
    b = pts[1:]
    fine = a[:, None, :] + frac[None, :, None] * (b - a)[:, None, :]
    fine = fine.reshape(nseg * per, -1)
    fine = np.vstack([fine, pts[-1:]])
    owner = np.repeat(np.arange(nseg), per)
    return fine, owner


def _rate_sum(family: MetricFamily, pl: Polyline, P: PreparedPoints,
              pts: np.ndarray, owner: np.ndarray, frame_nodes: np.ndarray,
              kind: str) -> float:
    """First-order sum: per sub-chord rate at interpolated midpoints.

    The functional is intrinsic to the polyline data. Each original
    segment carries the anisotropic chord cost of its own endpoint feet
    in its pinned frame, spread evenly over its sub-chords; heights
    interpolate linearly along the segment, so refinement sharpens only
    the height weighting and never re-splits a boundary chord into
    cheaper arcs. Ray-aligned segments use the exact log form instead.
    ``P`` holds the polyline's prepared vertices.
    """
    h = P.height
    nseg = pl.n_segments
    per = owner.size // nseg
    vert = (np.zeros(nseg, dtype=bool) if pl.vertical is None
            else pl.vertical.astype(bool))
    total = 0.0
    if np.any(vert):
        # the ray length under g; the estimate's, A_N |log(t1/t0)|, is
        # 2 A_N times it
        logs = np.abs(np.log(h[1:] / h[:-1]))
        if kind == "kobayashi_estimate":
            from .kobayashi import A_N
            logs = 2.0 * A_N * logs
        total += float(logs[vert].sum())
    keep = ~vert
    if not np.any(keep):
        return total
    if kind == "g":
        w_seg = family.graph.chord_cost(P.feet[:-1], P.feet[1:], frame_nodes)
        dh = h[1:] - h[:-1]
        frac = (np.arange(owner.size) % per + 0.5) / per
        h_mid = h[:-1][owner] + frac * dh[owner]
        rates = (2.0 * w_seg[owner] + np.abs(dh[owner])) / (per * h_mid)
        total += float(rates[keep[owner]].sum())
    else:
        from .kobayashi import kobayashi_speed_batch
        sub = keep[owner]
        a = pts[:-1][sub]
        b = pts[1:][sub]
        midpts = 0.5 * (a + b)
        total += float(kobayashi_speed_batch(
            family.projection, family.graph.structure, midpts, b - a).sum())
    return total


def path_length(polyline: Polyline, functional: MetricFunctional,
                rel_tol: float = 1e-6, max_depth: int = 10) -> float:
    """Length of the polyline under ``g`` or the interior estimate.

    The rate kinds are the only ones measured; any other kind is refused
    (``ConfigError``). A single-point polyline has length zero. Otherwise
    a midpoint quadrature of the kind's infinitesimal form is refined
    dyadically until it settles, with ray segments (``vertical``) taking
    their exact log form. The vertices' feet and depths are read once,
    before refining: from ``polyline.prepared`` where the construction
    attached them (then no vertex is projected), otherwise from one
    ``prepare`` call. Failure to settle within the depth budget raises
    with the last two estimates attached.
    """
    kind = functional.kind
    if kind not in _RATE_KINDS:
        raise ConfigError(f"path lengths are measured under {_RATE_KINDS}, "
                          f"not {kind!r}")
    if polyline.n_segments == 0:
        return 0.0
    family = functional.family
    P = polyline.prepared
    if P is None:
        P = family.prepare(polyline.points)
    frame_nodes = polyline.frame_nodes
    if frame_nodes is None:
        mids = 0.5 * (polyline.points[:-1] + polyline.points[1:])
        feet, _ = family.projection.project_batch(mids)
        frame_nodes = family.graph.snap(feet)
    prev = None
    for depth in range(max_depth + 1):
        pts, owner = _refined_points(polyline, depth)
        cur = _rate_sum(family, polyline, P, pts, owner, frame_nodes, kind)
        if prev is not None and abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise RefinementStalled(f"rate quadrature did not settle at depth "
                            f"{max_depth}", (prev, cur))


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def estimate_C(family: MetricFamily, n_pairs: int = 2000,
               seed: int = 0) -> float:
    """Largest observed additive gap ``d - g`` over sampled collar pairs.

    Collar points are drawn on node rays and prepared without projection;
    their boundary separations span all three regimes relative to the
    common height: below it, between it and the collar roof, and beyond.
    """
    rng = np.random.default_rng(seed)
    m = family.graph.nodes.shape[0]
    idx = rng.integers(0, m, size=(n_pairs, 2))
    u = rng.random((n_pairs, 2))
    depths = family.eps * u**2
    A = family.prepare_on_rays(idx[:, 0], depths[:, 0])
    B = family.prepare_on_rays(idx[:, 1], depths[:, 1])
    gap = family.d_pairs(A, B) - family.g_pairs(A, B)
    return float(np.max(gap))
