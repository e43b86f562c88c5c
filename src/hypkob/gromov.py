"""Hyperbolicity diagnostics over the interior metrics.

Four-point defects, and the Gromov product of two boundary points read
along their normal approach. Everything here takes a ``MetricFamily`` and
the kind of distance to read from it (``g``, ``d``, or ``euclidean``
where a table suffices); each function refuses the kinds it cannot
serve. Pair values come from ``MetricFamily.pairs``, and tables from
``distance_matrix``, which evaluates the closed-form kinds in vectorized
row blocks so large quadruple counts stay cheap. A point pool is a draw,
a function ``(n, seed)`` that returns coordinates or ``PreparedPoints``:
``Domain.sample_interior`` or ``MetricFamily.collar_sample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HypkobError, NotStabilized
from .metrics import MetricFamily, PreparedPoints

__all__ = [
    "HyperbolicityReport",
    "distance_matrix",
    "four_point_from_matrix",
    "four_point_delta",
    "boundary_product",
]


# ---------------------------------------------------------------------------
# pairwise matrices
# ---------------------------------------------------------------------------

# rows of the pairwise table evaluated at once; the kernel temporaries and
# the euclidean difference block stay this many rows tall
_BLOCK_ROWS = 64

# quadruples drawn and evaluated at once
_QUAD_CHUNK = 1 << 16


def _coords(points) -> np.ndarray:
    if isinstance(points, PreparedPoints):
        return points.points
    return np.atleast_2d(np.asarray(points, dtype=float))


def distance_matrix(family: MetricFamily, kind: str, points) -> np.ndarray:
    """Full pairwise table of ``points`` under ``kind``.

    ``kind`` is ``"g"``, ``"d"`` or ``"euclidean"``; any other kind is
    refused (``ConfigError``). The collar metrics take points that
    ``family`` prepared as they are, or prepare coordinates once, and
    evaluate through the boundary-graph row cache: the missing rows run
    in one Dijkstra call, their entries are gathered into the table, and
    ``family.kernel`` then overwrites the table in blocks of
    ``_BLOCK_ROWS`` rows, which are symmetrized in place; euclidean fills
    the same row blocks. Every entry is computed by the same elementwise
    operations as on the whole table at once, so the values are identical;
    the memory held is the table plus one block.
    """
    pts = _coords(points)
    m = pts.shape[0]
    blocks = [(s, min(s + _BLOCK_ROWS, m)) for s in range(0, m, _BLOCK_ROWS)]
    if kind == "euclidean":
        D = np.empty((m, m))
        for s, e in blocks:
            D[s:e] = np.linalg.norm(pts[s:e, None, :] - pts[None, :, :],
                                    axis=-1)
        return D
    if kind not in ("g", "d"):
        raise ConfigError(
            f"distance tables are those of g, d or euclidean, not {kind!r}")
    P = family.as_prepared(points)
    D = family.graph.rows_from(P.node, columns=P.node)
    idx = np.arange(m)
    B = P.take(idx[None, :])
    for s, e in blocks:
        D[s:e] = family.kernel(kind, D[s:e], P.take(idx[s:e, None]), B)
    np.fill_diagonal(D, 0.0)
    # max(D, D.T) a row block at a time: block s:e settles its pairs with
    # every later row, in both triangles
    for s, e in blocks:
        top = np.maximum(D[s:e, s:], D[s:, s:e].T)
        D[s:e, s:] = top
        D[s:, s:e] = top.T
    return D


# ---------------------------------------------------------------------------
# four-point condition
# ---------------------------------------------------------------------------

@dataclass
class HyperbolicityReport:
    """Sampled four-point constant with its worst witness."""

    delta: float
    n_quadruples: int
    worst_points: np.ndarray
    worst_defect: float
    kind: str
    seed: int
    defect_q99: float = 0.0
    failures: int = 0


def four_point_from_matrix(D: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Defects (L - M)/2 of index quadruples against a distance table.

    L and M are the largest and the middle of the three pair sums, taken
    exactly by comparisons; a ``nan`` sum gives a ``nan`` defect.
    """
    i, j, k, l = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    m = D.shape[1]
    flat = np.ascontiguousarray(D).ravel()
    im, jm = i * m, j * m
    s1 = flat.take(im + j) + flat.take(k * m + l)
    s2 = flat.take(im + k) + flat.take(jm + l)
    s3 = flat.take(im + l) + flat.take(jm + k)
    hi = np.maximum(s1, s2)
    mid = np.maximum(np.minimum(s1, s2), np.minimum(hi, s3))
    return np.maximum(0.5 * (np.maximum(hi, s3) - mid), 0.0)


def four_point_delta(family: MetricFamily, kind: str, draw,
                     n_quadruples: int, seed: int) -> HyperbolicityReport:
    """Sampled four-point constant of ``family``'s distance ``kind``.

    ``kind`` is one that ``distance_matrix`` tabulates, which refuses the
    others. Points come from one pool, ``draw(n_pool, seed)``, so one
    pairwise table serves every quadruple: coordinates (as
    ``Domain.sample_interior`` draws them) or a prepared pool (as
    ``MetricFamily.collar_sample`` builds it), which goes to the table as
    it is. The quadruple index draws are seeded with ``seed + 1``, apart
    from the pool, and both are deterministic. Quadruples whose defect is
    not finite are counted as failures, and the constant, its witness and
    its quantile are taken over the rest.

    Quadruples are drawn and evaluated in chunks of ``_QUAD_CHUNK``; the
    generator continues across chunks exactly as one draw of all of them,
    and the witness is the first quadruple of largest finite defect, so
    the report is the one of a single draw. Beside the table, only the
    defects, which the quantile then partitions in place, and one chunk
    are held.
    """
    if n_quadruples < 1:
        raise ConfigError("need at least one quadruple")
    n_pool = int(min(max(64, 4 * math.isqrt(n_quadruples)), 1600))
    pool = draw(n_pool, seed)
    pts = _coords(pool)
    D = distance_matrix(family, kind, pool)
    rng = np.random.default_rng(seed + 1)
    defects = np.empty(n_quadruples)
    worst, worst_quad = -1.0, None
    for s in range(0, n_quadruples, _QUAD_CHUNK):
        quads = rng.integers(0, pts.shape[0],
                             size=(min(_QUAD_CHUNK, n_quadruples - s), 4))
        chunk = defects[s:s + quads.shape[0]]
        chunk[:] = four_point_from_matrix(D, quads)
        # finite defects are at least 0, so -1 marks the others
        k = int(np.argmax(np.where(np.isfinite(chunk), chunk, -1.0)))
        if np.isfinite(chunk[k]) and chunk[k] > worst:
            worst, worst_quad = float(chunk[k]), quads[k]
    finite = np.isfinite(defects)
    failures = int(defects.size - np.count_nonzero(finite))
    if failures == defects.size:
        raise HypkobError(f"none of {failures} quadruples has a finite defect")
    if failures:
        defects = defects[finite]
    return HyperbolicityReport(
        delta=worst,
        n_quadruples=int(n_quadruples),
        worst_points=pts[worst_quad],
        worst_defect=worst,
        kind=kind,
        seed=int(seed),
        defect_q99=float(np.quantile(defects, 0.99, overwrite_input=True)),
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Gromov products of boundary points
# ---------------------------------------------------------------------------

# spread of the last three levels' products under which a boundary product
# counts as settled
_STABIL_TOL = 1e-3


def boundary_product(family: MetricFamily, kind: str, a, b, omega,
                     depth: int) -> float:
    """Gromov product (a|b) of two boundary points, based at ``omega``.

    Each point is approached along its inward normal at the dyadic
    heights ``eps * 2**-k``, k = 1, ..., ``depth``, and the half-sum
    product of the two approach points is taken at each level. The value
    must be Cauchy within ``_STABIL_TOL`` over the last three levels,
    otherwise ``NotStabilized`` carries the last six levels' products.
    """
    if kind not in ("g", "d"):
        raise ConfigError("boundary products need one of the collar metrics")
    if depth < 4:
        raise ConfigError("boundary products need depth at least 4")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.linalg.norm(a - b) == 0.0:
        raise ConfigError("boundary products need two distinct points")
    ts = family.eps * 0.5**np.arange(1, depth + 1)
    A = family.prepare(a - ts[:, None] * family.graph.domain.outward_normal(a))
    B = family.prepare(b - ts[:, None] * family.graph.domain.outward_normal(b))
    O = family.prepare(np.asarray(omega, dtype=float)[None]).take(
        np.zeros(depth, dtype=int))
    p = 0.5 * (family.pairs(kind, A, O) + family.pairs(kind, B, O)
               - family.pairs(kind, A, B))
    last = p[-3:]
    if np.max(last) - np.min(last) > _STABIL_TOL:
        raise NotStabilized(
            f"products still move by {float(np.max(last) - np.min(last)):.3e} "
            f"at depth {depth}", [float(v) for v in p[-6:]])
    return float(p[-1])
