"""Hyperbolicity diagnostics over the interior metrics.

Four-point defects, Gromov products, convergence at infinity along
normal-approach sequences, identification of the metric boundary with the
geometric boundary, and thin-triangle audits. Everything here takes a
``MetricFamily`` and the kind of distance to read from it (``g``, ``d``,
or ``euclidean`` where a table suffices); each function refuses the kinds
it cannot serve. Pair values come from ``MetricFamily.pairs``, and tables
from ``distance_matrix``, which evaluates the closed-form kinds in
vectorized row blocks so large quadruple counts stay cheap. A point pool
is a draw, a function ``(n, seed)`` that returns coordinates or
``PreparedPoints``: ``Domain.sample_interior`` or
``MetricFamily.collar_sample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HypkobError, NotStabilized, PrefixTooShort
from .metrics import MetricFamily, PreparedPoints

__all__ = [
    "HyperbolicityReport",
    "BoundaryPointRecord",
    "ConvergenceReport",
    "distance_matrix",
    "four_point_from_matrix",
    "four_point_delta",
    "gromov_product",
    "converges_at_infinity",
    "normal_record",
    "boundary_product",
    "boundary_identification",
    "triangle_thinness",
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
# Gromov products and the boundary at infinity
# ---------------------------------------------------------------------------

def gromov_product(family: MetricFamily, kind: str, x, y, omega) -> float:
    """Half-sum product (x, y) anchored at the basepoint.

    The three points are prepared together, and one ``pairs`` call gives
    the three distances.
    """
    P = family.prepare(np.stack([x, y, omega]))
    dxo, dyo, dxy = family.pairs(kind, P.take([0, 1, 0]), P.take([2, 2, 1]))
    return float(0.5 * (dxo + dyo - dxy))


@dataclass
class ConvergenceReport:
    verdict: str
    tail_min: float
    growth: float
    n_points: int
    products_min: list = field(default_factory=list)


def converges_at_infinity(family: MetricFamily, kind: str, sequence,
                          omega) -> ConvergenceReport:
    """Divergence audit of pairwise products along a sequence prefix.

    For each index the minimum product over later pairs is recorded; the
    verdict is diverging when that tail minimum climbs by more than ln 4
    from the first level to the last, bounded otherwise.
    """
    pts = np.atleast_2d(np.asarray(sequence, dtype=float))
    m = pts.shape[0]
    if m < 8:
        raise PrefixTooShort(f"need at least 8 points, got {m}")
    P = family.prepare(pts)
    O = family.prepare(np.asarray(omega, dtype=float)[None])
    D = distance_matrix(family, kind, P)
    to_omega = family.pairs(kind, P, O.take(np.zeros(m, dtype=int)))
    prod = 0.5 * (to_omega[:, None] + to_omega[None, :] - D)
    tail_mins = []
    for k in range(m - 1):
        block = prod[k:, k:]
        iu, ju = np.triu_indices(block.shape[0], k=1)
        tail_mins.append(float(block[iu, ju].min()))
    growth = tail_mins[-1] - tail_mins[0]
    verdict = "diverging" if growth > math.log(4.0) else "bounded"
    return ConvergenceReport(verdict=verdict, tail_min=tail_mins[-1],
                             growth=float(growth), n_points=int(m),
                             products_min=tail_mins)


@dataclass
class BoundaryPointRecord:
    """A geometric boundary point with its normal-approach representative."""

    point: np.ndarray
    sequence: np.ndarray
    omega: np.ndarray


def normal_record(family: MetricFamily, p, omega,
                  depth: int = 12) -> BoundaryPointRecord:
    """Normal-approach representative at dyadic heights for a boundary point."""
    p = np.asarray(p, dtype=float)
    n = family.graph.domain.outward_normal(p)
    ks = np.arange(1, depth + 1)
    ts = family.eps * 0.5**ks
    seq = p[None, :] - ts[:, None] * n[None, :]
    return BoundaryPointRecord(point=p.copy(), sequence=seq,
                               omega=np.asarray(omega, dtype=float))


def boundary_product(family: MetricFamily, kind: str, a, b, omega,
                     depth: int = 24, stabil_tol: float = 1e-3) -> float:
    """Product of two boundary points along normal representatives.

    Heights are dyadic; the value must be Cauchy within the tolerance
    over the last three levels, otherwise the trend is raised.
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
    if np.max(last) - np.min(last) > stabil_tol:
        raise NotStabilized(
            f"products still move by {float(np.max(last) - np.min(last)):.3e} "
            f"at depth {depth}", [float(v) for v in p[-6:]])
    return float(p[-1])


def boundary_identification(family: MetricFamily, kind: str, pairs, omega,
                            depth: int = 24) -> dict:
    """Ratio table comparing exponentiated products with the boundary metric.

    For each boundary pair the tabulated value is exp(-product) divided by
    the graph distance of the pair; the observed band and its spread are
    reported, and the check passes when the spread stays under four.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise ConfigError("pairs must be an array of point pairs")
    # the snapped boundary distance of each pair
    graph = family.graph
    ends = graph.snap(pairs.reshape(-1, pairs.shape[-1])).reshape(-1, 2)
    W = graph.rows_from(ends[:, 0], columns=ends[:, 1:])[:, 0]
    ratios = []
    seps = []
    prods = []
    for (a, b), w in zip(pairs, W.tolist()):
        if w <= 0:
            raise ConfigError("pair distance vanished; pick distinct nodes")
        prod = boundary_product(family, kind, a, b, omega, depth=depth)
        ratios.append(math.exp(-prod) / w)
        seps.append(w)
        prods.append(prod)
    ratios = np.asarray(ratios)
    lo = float(ratios.min())
    hi = float(ratios.max())
    return {
        "ratios": [float(r) for r in ratios],
        "d_H": [float(s) for s in seps],
        "products": [float(p) for p in prods],
        "band_lo": lo,
        "band_hi": hi,
        "spread": hi / lo,
        "ok": bool(hi <= 4.0 * lo),
        "n_pairs": int(pairs.shape[0]),
    }


# ---------------------------------------------------------------------------
# thin triangles
# ---------------------------------------------------------------------------

def _edge_nodes(family: MetricFamily, kind: str, x, y,
                subdiv: int) -> np.ndarray:
    if kind in ("g", "d"):
        pts = family.composite_upper_path(x, y)[0].points
    else:
        pts = np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    if pts.shape[0] < 2:
        return pts
    a = pts[:-1]
    b = pts[1:]
    frac = np.arange(subdiv) / subdiv
    fine = (a[:, None, :] + frac[None, :, None] * (b - a)[:, None, :])
    return np.vstack([fine.reshape(-1, pts.shape[1]), pts[-1:]])


def triangle_thinness(family: MetricFamily, kind: str, x, y, z,
                      subdiv: int = 8) -> float:
    """Largest distance from one side to the union of the other two.

    Sides are discretized geodesic polylines; the point-to-set distance is
    the node-to-node proxy, so results carry a slack of order the node
    spacing of the discretizations.
    """
    exy = _edge_nodes(family, kind, x, y, subdiv)
    eyz = _edge_nodes(family, kind, y, z, subdiv)
    ezx = _edge_nodes(family, kind, z, x, subdiv)
    pool = np.vstack([exy, eyz, ezx])
    D = distance_matrix(family, kind, pool)
    n1, n2, n3 = exy.shape[0], eyz.shape[0], ezx.shape[0]
    s1 = slice(0, n1)
    s2 = slice(n1, n1 + n2)
    s3 = slice(n1 + n2, n1 + n2 + n3)
    worst = 0.0
    for own, other_a, other_b in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
        others = np.concatenate([np.arange(*other_a.indices(pool.shape[0])),
                                 np.arange(*other_b.indices(pool.shape[0]))])
        sub = D[own, :][:, others]
        worst = max(worst, float(sub.min(axis=1).max()))
    return worst
