"""Interior Finsler estimate anchored to the contact splitting.

The pointwise norm charges the component of a tangent vector inside the
maximal complex tangent distribution at the nearest boundary point one
inverse height, and the transverse component (the span of the normal and
its rotation) one inverse height squared; past the collar roof both
weights continue with inverse-depth decay so the norm stays continuous
and the core carries a comparable fixed metric. Curve lengths are
``metrics.path_length`` under the ``kobayashi_estimate`` functional;
distances come from the layered shell solver. A fit routine compares
the resulting distance with the boundary-anchored log metric and
reports the smallest multiplicative-additive sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PointOutsideShellRegion, ZeroVector
from .domain import HeightProjection
from .structures import StructureField
from .boundary import BoundaryGraph
from .layered import LayeredSolver
from .metrics import MetricFamily

__all__ = [
    "TangentSplit",
    "split_vector",
    "kobayashi_speed",
    "kobayashi_speed_batch",
    "KobayashiMetric",
    "QIReport",
    "quasi_isometry_fit",
    "qi_check",
]


@dataclass
class TangentSplit:
    """Decomposition of a vector against the frame at the nearest foot.

    ``normal_basis`` holds the unit outward normal and the unit rotated
    normal as rows; ``horizontal_basis`` is an orthonormal basis of their
    complement, paired so the structure maps basis vectors into the span
    of the basis. ``v_N + v_H`` reconstructs the queried vector exactly.
    """

    point: np.ndarray
    normal_basis: np.ndarray
    horizontal_basis: np.ndarray
    v_N: np.ndarray
    v_H: np.ndarray


def _split_arrays(projection: HeightProjection, structure: StructureField,
                  X: np.ndarray, V: np.ndarray):
    """Batched split into horizontal and normal-plane components.

    The normal-plane part is the orthogonal projection onto the span of
    the outward normal and its image under the structure; the remainder is
    averaged with its twice-rotated, re-projected copy so the horizontal
    part tolerates mildly non-orthogonal structures.
    """
    feet, depth = projection.project_batch(X)
    n = projection.domain.outward_normal(feet)
    jn = structure.apply(feet, n)
    u = jn - np.sum(jn * n, axis=-1, keepdims=True) * n
    un = np.linalg.norm(u, axis=-1, keepdims=True)
    u = u / np.maximum(un, 1e-300)

    def off_plane(w):
        w = w - np.sum(w * n, axis=-1, keepdims=True) * n
        return w - np.sum(w * u, axis=-1, keepdims=True) * u

    r = off_plane(V)
    jr = off_plane(structure.apply(feet, r))
    rr = -structure.apply(feet, jr)
    vh = 0.5 * (r + rr)
    vn = V - vh
    return vh, vn, depth, feet, n, u


def _horizontal_basis(structure: StructureField, foot: np.ndarray,
                      n: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Orthonormal complement of {n, u}, paired under the structure."""
    rows = np.stack([n, u])
    _, _, vt = np.linalg.svd(rows)
    Q = vt[2:]
    chosen: list[np.ndarray] = []

    def drop(vec):
        vec = vec - np.dot(vec, n) * n - np.dot(vec, u) * u
        for b in chosen:
            vec = vec - np.dot(vec, b) * b
        return vec

    for q in Q:
        if len(chosen) == Q.shape[0]:
            break
        s = drop(q)
        ns = np.linalg.norm(s)
        if ns <= 1e-10:
            continue
        s = s / ns
        chosen.append(s)
        if len(chosen) == Q.shape[0]:
            break
        c = drop(structure.apply(foot[None], s[None])[0])
        nc = np.linalg.norm(c)
        if nc > 1e-8:
            chosen.append(c / nc)
    return np.stack(chosen)


def split_vector(projection: HeightProjection, structure: StructureField,
                 x, v) -> TangentSplit:
    """Split one vector at one collar point, with the full frame attached."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    vh, vn, depth, feet, n, u = _split_arrays(projection, structure,
                                              x[None], v[None])
    if depth[0] > projection.epsilon * (1 + 1e-9):
        raise PointOutsideShellRegion(
            f"split requested at depth {float(depth[0]):.6g}, collar ends at "
            f"{projection.epsilon:.6g}")
    basis = _horizontal_basis(structure, feet[0], n[0], u[0])
    return TangentSplit(point=x.copy(),
                        normal_basis=np.stack([n[0], u[0]]),
                        horizontal_basis=basis,
                        v_N=vn[0], v_H=vh[0])


def kobayashi_speed_batch(projection: HeightProjection,
                          structure: StructureField, X, V) -> np.ndarray:
    """Pointwise norm for aligned batches; zero vectors give zero."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    vnorm = np.linalg.norm(V, axis=-1)
    out = np.zeros(X.shape[0])
    nz = vnorm > 0
    if not np.any(nz):
        return out
    Xa, Va = X[nz], V[nz]
    vh, vn, depth, _, _, _ = _split_arrays(projection, structure, Xa, Va)
    h = np.sqrt(depth)
    inside = depth <= projection.epsilon * (1 + 1e-12)
    nh = np.linalg.norm(vh, axis=-1)
    nn = np.linalg.norm(vn, axis=-1)
    # past the collar roof both weights decay like 1/depth, scaled to
    # join the collar form continuously; the core then carries a fixed
    # comparable metric instead of a jump at the roof
    root = math.sqrt(projection.epsilon)
    val = np.where(inside, nh / h + nn / depth, (root * nh + nn) / depth)
    out[nz] = val
    return out


def kobayashi_speed(projection: HeightProjection, structure: StructureField,
                    x, v) -> float:
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0.0:
        raise ZeroVector("speed of the zero vector is not defined")
    return float(kobayashi_speed_batch(projection, structure,
                                       np.asarray(x, dtype=float)[None],
                                       v[None])[0])


class KobayashiMetric:
    """Distances of the interior estimate via the layered shell solver."""

    def __init__(self, projection: HeightProjection, graph: BoundaryGraph):
        self.projection = projection
        self.graph = graph
        self.solver = LayeredSolver(graph, projection, mode="kobayashi")

    def distance(self, x, y) -> float:
        return self.solver.distance(x, y)

    def distance_matrix(self, points) -> np.ndarray:
        return self.solver.distances(points)


# ---------------------------------------------------------------------------
# sandwich fit against the log metric
# ---------------------------------------------------------------------------

@dataclass
class QIReport:
    C: float
    Cprime: float
    n_pairs: int
    residual_q50: float
    residual_q90: float
    violations: int

    def ok(self, c_cap: float, cprime_cap: float) -> bool:
        return (self.violations == 0 and self.C <= c_cap
                and self.Cprime <= cprime_cap)


# multipliers scanned by the sandwich fit
_C_GRID = np.geomspace(1.0, 20.0, 241)


def quasi_isometry_fit(g_values, k_values) -> QIReport:
    """Smallest constants with ``k/C - C' <= g <= C k + C'`` over pairs.

    The multiplier grid ``_C_GRID`` is scanned upward from one; the first
    value whose closing additive constant is finite wins, and that
    additive constant is reported with it. Pairs where either side fails
    to be finite are counted as irreducible violations and excluded from
    the envelopes.
    """
    g = np.asarray(g_values, dtype=float).ravel()
    k = np.asarray(k_values, dtype=float).ravel()
    if g.size != k.size or g.size == 0:
        raise ConfigError("sandwich fit needs matching nonempty value arrays")
    finite = np.isfinite(g) & np.isfinite(k)
    violations = int(np.count_nonzero(~finite))
    gf = g[finite]
    kf = k[finite]
    if gf.size == 0:
        raise ConfigError("no finite pairs to fit")
    C = cp = None
    for cand in _C_GRID:
        over = float(np.max(gf - cand * kf, initial=0.0))
        under = float(np.max(kf / cand - gf, initial=0.0))
        closing = max(over, under, 0.0)
        if math.isfinite(closing):
            C, cp = float(cand), closing
            break
    resid = np.abs(gf - C * kf)
    return QIReport(
        C=C, Cprime=cp, n_pairs=int(g.size),
        residual_q50=float(np.quantile(resid, 0.5)),
        residual_q90=float(np.quantile(resid, 0.9)),
        violations=violations,
    )


def qi_check(family: MetricFamily, kmetric: KobayashiMetric,
             points) -> QIReport:
    """Fit the sandwich over all pairs from a pool of interior points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m < 2:
        raise ConfigError("need at least two pool points")
    K = kmetric.distance_matrix(pts)
    P = family.prepare(pts)
    iu, ju = np.triu_indices(m, k=1)
    G = family.g_pairs(P.take(iu), P.take(ju))
    return quasi_isometry_fit(G, K[iu, ju])
