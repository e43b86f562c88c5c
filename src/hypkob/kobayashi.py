"""Interior Finsler estimate anchored to the contact splitting.

The pointwise norm charges the component of a tangent vector inside the
maximal complex tangent distribution at the nearest boundary point one
inverse height, and the transverse component (the orthogonal projection
onto the span of the frame ``structures.transverse_frame`` gives at the
foot: the normal and ``J^T`` of it) one inverse height squared; past the
collar roof both weights continue with inverse-depth decay so the norm
stays continuous and the core carries a comparable fixed metric. The
split runs on batches only (``_split_arrays``), and
``kobayashi_speed_batch`` is the norm's one entry point. Curve lengths are
``metrics.path_length`` of kind ``kobayashi_estimate``; distances come
from ``layered.LayeredSolver`` in its ``kobayashi`` mode, whose queries
arrive prepared by its ``MetricFamily``. A fit routine compares the
resulting distance with the boundary-anchored log metric and
reports the smallest multiplicative-additive sandwich.

The weights live here and nowhere else: the constants ``A_H`` and
``A_N`` of the norm ``A_H |v_H| / sqrt(depth) + A_N |v_N| / depth``, and
``kobayashi_rate``, its value from the two component norms. The layered
solver (collar levels, rungs and query stubs) and the exact length of
ray-aligned segments in ``metrics`` read them from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .domain import HeightProjection
from .structures import StructureField, transverse_frame

__all__ = [
    "kobayashi_speed_batch",
    "QIReport",
    "quasi_isometry_fit",
    "qi_check",
]


def _split_arrays(projection: HeightProjection, structure: StructureField,
                  X: np.ndarray, V: np.ndarray, seed_feet=None):
    """Split vectors ``V`` at points ``X`` against the frame at their feet.

    Returns ``(v_H, v_N, depth, n, u)``: ``(n, u)`` is the frame of
    ``structures.transverse_frame`` at each foot, ``v_N`` the orthogonal
    projection of ``V`` onto its span, and ``v_H = V - v_N`` the part in
    its complement, the maximal complex tangent distribution.
    """
    feet, depth = projection.project_batch(X, seed_feet=seed_feet)
    n, u = transverse_frame(projection.domain, structure, feet)
    vn = (np.sum(V * n, axis=-1, keepdims=True) * n
          + np.sum(V * u, axis=-1, keepdims=True) * u)
    return V - vn, vn, depth, n, u


# weights of the horizontal and transverse parts of the estimate
A_H = 1.0
A_N = 1.0


def kobayashi_rate(nh, nn, depth, eps):
    """The estimate's speed from the component norms at a depth.

    ``nh`` and ``nn`` are the norms of the horizontal and transverse
    parts of a vector. Inside the collar (``depth <= eps``) the speed is
    ``A_H nh / sqrt(depth) + A_N nn / depth``; past the collar roof both
    weights decay like ``1/depth``, scaled to join the collar form
    continuously, so the core carries a fixed comparable metric instead
    of a jump at the roof. Along a normal ray the speed is
    ``A_N / depth`` at every depth, so a ray segment from ``t_lo`` to
    ``t_hi`` has length ``A_N log(t_hi / t_lo)``.
    """
    inside = depth <= eps * (1 + 1e-12)
    return np.where(inside, A_H * nh / np.sqrt(depth) + A_N * nn / depth,
                    (A_H * math.sqrt(eps) * nh + A_N * nn) / depth)


def kobayashi_speed_batch(projection: HeightProjection,
                          structure: StructureField, X, V,
                          seed_feet=None) -> np.ndarray:
    """Pointwise norm for aligned batches; zero vectors give zero.

    ``seed_feet``, aligned with ``X``, are known near-feet that the
    projection tries before its fallback (``HeightProjection``); the
    layered ladder passes each edge's boundary node.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    vnorm = np.linalg.norm(V, axis=-1)
    out = np.zeros(X.shape[0])
    nz = vnorm > 0
    if not np.any(nz):
        return out
    Xa, Va = X[nz], V[nz]
    seeds = None if seed_feet is None else np.atleast_2d(seed_feet)[nz]
    vh, vn, depth, _, _ = _split_arrays(projection, structure, Xa, Va,
                                        seed_feet=seeds)
    out[nz] = kobayashi_rate(np.linalg.norm(vh, axis=-1),
                             np.linalg.norm(vn, axis=-1), depth,
                             projection.epsilon)
    return out


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


def quasi_isometry_fit(g_values, k_values) -> QIReport:
    """Constants with ``k/C - C' <= g <= C k + C'`` over pairs.

    The multiplier is ``C = 1`` and the additive constant is
    ``C' = max |g - k|``: every kept pair is finite, so that constant
    closes the sandwich at ``C = 1`` and no larger multiplier is ever
    needed. Pairs where either side fails to be finite are counted as
    irreducible violations and excluded from the envelopes.
    """
    g = np.asarray(g_values, dtype=float).ravel()
    k = np.asarray(k_values, dtype=float).ravel()
    if g.size != k.size or g.size == 0:
        raise ConfigError("sandwich fit needs matching nonempty value arrays")
    finite = np.isfinite(g) & np.isfinite(k)
    violations = int(np.count_nonzero(~finite))
    if not np.any(finite):
        raise ConfigError("no finite pairs to fit")
    resid = np.abs(g[finite] - k[finite])
    return QIReport(
        C=1.0, Cprime=float(resid.max()), n_pairs=int(g.size),
        residual_q50=float(np.quantile(resid, 0.5)),
        residual_q90=float(np.quantile(resid, 0.9)),
        violations=violations,
    )


def qi_check(solver, points) -> QIReport:
    """Fit the sandwich over all pairs from a pool of interior points.

    ``solver`` is a ``layered.LayeredSolver``; ``g`` and its distances
    share the solver's family, so the ladder and ``g`` read one graph. A
    pool that family prepared (``MetricFamily.collar_sample``'s) is used
    as it is; any other is prepared once.
    """
    family = solver.family
    P = family.as_prepared(points)
    m = len(P)
    if m < 2:
        raise ConfigError("need at least two pool points")
    K = solver.distances(P)
    iu, ju = np.triu_indices(m, k=1)
    G = family.g_pairs(P.take(iu), P.take(ju))
    return quasi_isometry_fit(G, K[iu, ju])
