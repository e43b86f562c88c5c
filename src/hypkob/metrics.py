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
from the feet and depths of a path's vertices. Under ``g`` a segment's rate
integrates in closed form, so its length is exact; the estimate is a dyadic
midpoint quadrature, exact on ray segments. ``d``'s value on a path is
certified by its witness construction (``composite_upper_paths``), not
measured.
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
# the module, not its names, so a wrapper set on ``kobayashi`` (a traced
# benchmark run) sees the calls from here
from . import kobayashi

__all__ = [
    "Polyline",
    "PreparedPoints",
    "MetricFamily",
    "path_length",
    "collar_profile_distance",
    "estimate_C",
]

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
    """A piecewise linear path, with its vertices' feet and depths if known.

    Exact duplicate consecutive points are dropped on construction, so a
    fully degenerate input collapses to a single-point path of length zero.
    ``prepared`` holds the vertices' feet and depths where the construction
    knows them, so measuring the path projects none of its vertices. A
    segment's geometry is read from its two feet alone: it runs along a
    normal ray when they coincide (``Domain.same_foot``).
    """

    points: np.ndarray
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
        return PreparedPoints(*(getattr(self, f)[idx] for f in _ROW_FIELDS),
                              self.owner)

    @staticmethod
    def concat(parts) -> "PreparedPoints":
        """The rows of ``parts``, in order, as one batch of their family."""
        return PreparedPoints(*(np.concatenate([getattr(p, f) for p in parts])
                                for f in _ROW_FIELDS), parts[0].owner)


# the per-point fields of ``PreparedPoints``, in order
_ROW_FIELDS = ("points", "feet", "depth", "height", "node", "heff", "extra")


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
        straight = self._straight(A, B)
        if np.any(straight):
            direct = np.linalg.norm(A.points - B.points, axis=-1)
            out = np.where(straight, direct, out)
        return out

    def _straight(self, A: PreparedPoints, B: PreparedPoints) -> np.ndarray:
        """The pairs ``d`` joins by the straight segment: both points past
        the collar, on one normal ray (their feet coincide)."""
        straight = (A.extra > 0) & (B.extra > 0)
        if np.any(straight):
            straight = straight & self.graph.domain.same_foot(A.feet, B.feet)
        return straight

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

    def _aligned(self, kind: str, W, A: PreparedPoints,
                 B: PreparedPoints) -> np.ndarray:
        """``kernel`` of aligned batches at the separations ``W``, with 0
        for a point paired with itself."""
        val = self.kernel(kind, W, A, B)
        same = np.all(np.abs(A.points - B.points) < 1e-15, axis=-1)
        return np.where(same, 0.0, val)

    def g_pairs(self, A: PreparedPoints, B: PreparedPoints) -> np.ndarray:
        """Boundary-anchored log distance for aligned point batches."""
        return self._aligned("g", self.separations(A, B), A, B)

    def d_pairs(self, A: PreparedPoints, B: PreparedPoints) -> np.ndarray:
        """Collar geodesic distance for aligned point batches."""
        return self._aligned("d", self.separations(A, B), A, B)

    def pairs(self, kind: str, A: PreparedPoints,
              B: PreparedPoints) -> np.ndarray:
        """``g_pairs`` or ``d_pairs`` by ``kind``; any other kind is refused.

        The estimate's pair values come from ``LayeredSolver``, euclidean
        ones from ``gromov.distance_matrix`` and ``cli._batch_values``.
        """
        if kind == "g":
            return self.g_pairs(A, B)
        if kind == "d":
            return self.d_pairs(A, B)
        raise ConfigError(f"pair values are those of g or d, not {kind!r}")

    # -- structured paths ------------------------------------------------------

    def horizontal_path(self, x, y) -> Polyline:
        """Constant-height path over the graph geodesic between the feet.

        Both endpoints must sit at one height, within 1e-9·max(h, 1). The
        interior vertices are the geodesic nodes pushed inward to the
        shared depth. A segment between two nodes is measured in the frame
        its edge weight was built with (the node nearest the midpoint of
        its feet), so its g-length is exactly ``2 w / h`` for edge weight
        ``w``, and the path's reproduces the graph distance between the
        snapped feet. The shell vertices carry their construction feet and
        depth, so measuring the path projects none of them. Coinciding feet
        give the degenerate single-point path.
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
        known = self._prepare_known(
            pts, np.vstack([A.feet, bndry, B.feet]),
            np.concatenate([A.depth, np.full(len(shell), t), B.depth]),
            np.concatenate([A.node, A.node, path, B.node, B.node]))
        return Polyline(pts, prepared=known)

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
        foot (``_straight``) takes the straight segment. An endpoint that
        already sits at the peak depth has no ray segment: the path hops
        on that shell between its foot and the geodesic's end node (or the
        other foot). Every vertex carries its foot and depth: the
        endpoints' from ``A`` and ``B``, the shell vertices' from the
        construction (a node or an endpoint foot at the peak depth), so
        measuring a path projects nothing.
        """
        n, dom = len(A), self.graph.domain
        dval = self.d_pairs(A, B)
        W = self.separations(A, B)
        peak = _peak(W, A.heff, B.heff, self.eps)
        tpk = peak * peak
        straight = self._straight(A, B)
        climb = np.abs(A.depth - tpk) > 1e-14
        descend = np.abs(B.depth - tpk) > 1e-14
        # the vertices of all paths, in order, as indices into the stacked
        # sources (A's rows, B's rows, the graph nodes)
        src, starts = [], []
        for r in range(n):
            starts.append(len(src))
            src.append(r)
            if not straight[r]:
                if climb[r]:
                    src.append(r)
                if W[r] > 0:
                    path = self.graph.geodesic_nodes(A.node[r], B.node[r])
                    src.extend((2 * n + path).tolist())
                if descend[r]:
                    src.append(n + r)
            src.append(n + r)
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
        paths = [Polyline(points[s:e], prepared=P.take(np.arange(s, e)))
                 for s, e in zip(starts[:-1], starts[1:])]
        return paths, dval


# ---------------------------------------------------------------------------
# path length
# ---------------------------------------------------------------------------

# the estimate's quadrature settles when two dyadic depths agree to this
# relative tolerance, and raises past this depth
_EST_REL_TOL = 1e-6
_EST_MAX_DEPTH = 14


def _mean_inverse_height(h: np.ndarray) -> np.ndarray:
    """Mean of ``1/h`` over each segment, ``h`` linear between vertices.

    That is ``log1p(dh/h0)/dh``, and ``1/h0`` where ``dh`` is 0. ``log1p``
    keeps it accurate for a rounding-sized ``dh``, where ``log(h1/h0)/dh``
    divides rounding noise by ``dh``.
    """
    h0, dh = h[:-1], np.diff(h)
    flat = dh == 0
    return (np.where(flat, 1.0, np.log1p(dh / h0))
            / np.where(flat, h0, dh))


def _rate_sum(family: MetricFamily, a: np.ndarray, b: np.ndarray,
              depth: int) -> float:
    """The estimate's first-order sum over the chords ``a[i] -> b[i]``.

    Each chord is split into ``2**depth`` equal sub-chords, and each
    sub-chord takes the estimate's speed at its midpoint along its own
    displacement.
    """
    per = 2 ** depth
    frac = (np.arange(per) + 0.5) / per
    mid = a[:, None, :] + frac[None, :, None] * (b - a)[:, None, :]
    step = np.repeat((b - a) / per, per, axis=0)
    return float(kobayashi.kobayashi_speed_batch(
        family.projection, family.graph.structure,
        mid.reshape(-1, a.shape[1]), step).sum())


def path_length(polyline: Polyline, family: MetricFamily, kind: str) -> float:
    """Length of the polyline under ``family``'s ``g`` or interior estimate.

    ``kind`` is ``"g"`` or ``"kobayashi_estimate"``, the rate kinds; any
    other kind is refused (``ConfigError``). A single-point polyline has
    length zero. The vertices' feet and depths come from
    ``polyline.prepared`` where the construction attached them (then no
    vertex is projected), otherwise from one ``prepare`` call, and each
    segment is read from its two vertices: heights run linearly between
    them, and the segment runs along a normal ray when their feet
    coincide (``Domain.same_foot``).

    Under ``g`` a segment costs ``(2 w + |dh|)`` times the mean of ``1/h``
    over it, where ``w`` is the chord cost of its feet in the frame of the
    node nearest their midpoint (0 on a ray): between two nodes that is
    the edge weight. This is the exact integral of g's rate, and on a ray
    it is ``|log(h1/h0)|``. The estimate takes ``2 A_N`` times that on ray
    segments, and on the others a midpoint quadrature refined dyadically
    until it settles to ``_EST_REL_TOL``; failure to settle by depth
    ``_EST_MAX_DEPTH`` raises with the last two estimates attached.
    """
    if kind not in _RATE_KINDS:
        raise ConfigError(f"path lengths are measured under {_RATE_KINDS}, "
                          f"not {kind!r}")
    if polyline.n_segments == 0:
        return 0.0
    P = polyline.prepared
    if P is None:
        P = family.prepare(polyline.points)
    ray = family.graph.domain.same_foot(P.feet[:-1], P.feet[1:])
    inv_h = _mean_inverse_height(P.height)
    rise = np.abs(np.diff(P.height))
    if kind == "g":
        w = np.where(ray, 0.0, family.graph.chord_cost(P.feet[:-1], P.feet[1:]))
        return float(np.sum((2.0 * w + rise) * inv_h))
    total = 2.0 * kobayashi.A_N * float(np.sum((rise * inv_h)[ray]))
    if np.all(ray):
        return total
    a, b = polyline.points[:-1][~ray], polyline.points[1:][~ray]
    prev = None
    for depth in range(_EST_MAX_DEPTH + 1):
        cur = total + _rate_sum(family, a, b, depth)
        if prev is not None and abs(cur - prev) <= _EST_REL_TOL * abs(cur):
            return cur
        prev = cur
    raise RefinementStalled(f"rate quadrature did not settle at depth "
                            f"{_EST_MAX_DEPTH}", (prev, cur))


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
