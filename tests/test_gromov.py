import math
import tracemalloc

import numpy as np
import pytest

from hypkob import (BoundaryGraph, ConfigError, HeightProjection,
                    HypkobError, MetricFamily, NotStabilized, boundary_product,
                    distance_matrix, four_point_delta, four_point_from_matrix)
from hypkob import gromov

from conftest import EPS, pair_values


def ray_point(foot, t):
    return foot * (1.0 - t)


# ---------------------------------------------------------------------------
# four-point condition
# ---------------------------------------------------------------------------

def test_degenerate_quadruples_have_zero_defect(family):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(12, 4)) * 0.3
    D = distance_matrix(family, "euclidean", pts)
    quads = np.array([[0, 0, 3, 7], [2, 5, 5, 9], [1, 4, 8, 8], [6, 6, 6, 6]])
    defects = four_point_from_matrix(D, quads)
    assert np.all(defects <= 1e-12)


def test_four_point_formula_matches_direct_evaluation():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(10, 3))
    D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    quads = rng.integers(0, 10, size=(40, 4))
    got = four_point_from_matrix(D, quads)
    for row, val in zip(quads, got):
        i, j, k, l = row
        sums = sorted([D[i, j] + D[k, l], D[i, k] + D[j, l],
                       D[i, l] + D[j, k]])
        assert abs(val - max(0.0, 0.5 * (sums[2] - sums[1]))) < 1e-12


def _sorted_defects(D, quads):
    """The four-point defects by sorting the three pair sums."""
    i, j, k, l = quads.T
    sums = np.sort(np.stack([D[i, j] + D[k, l], D[i, k] + D[j, l],
                             D[i, l] + D[j, k]], axis=-1), axis=-1)
    return np.maximum(0.5 * (sums[:, 2] - sums[:, 1]), 0.0)


def test_four_point_equals_sorted_form_on_non_finite_tables():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(60, 4))
    D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    quads = rng.integers(0, 60, size=(20000, 4))
    assert np.array_equal(four_point_from_matrix(D, quads),
                          _sorted_defects(D, quads))
    flat = D.reshape(-1)
    flat[rng.choice(D.size, 120, replace=False)] = np.inf
    flat[rng.choice(D.size, 120, replace=False)] = np.nan
    with np.errstate(invalid="ignore"):
        got = four_point_from_matrix(D, quads)
        want = _sorted_defects(D, quads)
    assert np.array_equal(got, want, equal_nan=True)
    bad = ~np.isfinite(got)
    assert np.count_nonzero(bad) == np.count_nonzero(~np.isfinite(want))
    assert np.any(np.isnan(got)) and np.any(np.isinf(got))


def test_four_point_delta_is_deterministic(family):
    r1 = four_point_delta(family, "g", family.collar_sample,
                          n_quadruples=4000, seed=3)
    r2 = four_point_delta(family, "g", family.collar_sample,
                          n_quadruples=4000, seed=3)
    assert r1.delta == r2.delta
    assert r1.worst_defect == r2.worst_defect
    assert r1.delta >= r1.defect_q99 >= 0.0
    assert r1.kind == "g"
    assert r1.worst_points.shape == (4, 4)


def test_four_point_delta_euclidean_square(ball):
    def square(n, seed):
        corners = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
                            [0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
        return np.tile(corners, (int(np.ceil(n / 4)), 1))[:n]

    # euclidean tables read no family
    rep = four_point_delta(None, "euclidean", square, n_quadruples=2000,
                           seed=0)
    # the flat square's worst quadruple is the full vertex set, where the
    # defect is (diagonal sum - side sum) / 2
    expect = 0.5 * (2 * 0.5 * math.sqrt(2.0) - 2 * 0.5)
    assert abs(rep.delta - expect) < 1e-12


def test_four_point_delta_counts_non_finite_defects(family):
    pool = np.random.default_rng(4).normal(size=(12, 4)) * 0.3
    pool[5] = np.nan

    rep = four_point_delta(family, "euclidean", lambda n, seed: pool,
                           n_quadruples=2000, seed=0)
    quads = np.random.default_rng(1).integers(0, 12, size=(2000, 4))
    clean = ~np.any(quads == 5, axis=1)
    D = distance_matrix(family, "euclidean", pool)
    assert rep.failures == int(np.count_nonzero(~clean)) > 0
    assert np.isfinite(rep.delta)
    assert rep.delta == np.max(four_point_from_matrix(D, quads[clean]))
    assert np.all(np.isfinite(rep.worst_points))
    assert rep.delta >= rep.defect_q99 >= 0.0
    with pytest.raises(HypkobError):
        four_point_delta(family, "euclidean",
                         lambda n, seed: np.full((12, 4), np.nan),
                         n_quadruples=100, seed=0)


def _one_shot_report(D, n_pool, n_quadruples, seed):
    """Delta, witness indices, q99 and failures of one draw of everything."""
    quads = np.random.default_rng(seed + 1).integers(
        0, n_pool, size=(n_quadruples, 4))
    with np.errstate(invalid="ignore"):
        defects = four_point_from_matrix(D, quads)
    finite = np.isfinite(defects)
    quads, defects = quads[finite], defects[finite]
    worst = int(np.argmax(defects))
    return (defects[worst], quads[worst], np.quantile(defects, 0.99),
            int(np.count_nonzero(~finite)))


def test_chunked_four_point_delta_equals_one_shot(family):
    # enough quadruples for the full 1,600-point pool
    n = 3 * gromov._QUAD_CHUNK + 12345
    for kind in ("g", "d"):
        rep = four_point_delta(family, kind, family.collar_sample,
                               n_quadruples=n, seed=7)
        pool = family.collar_sample(1600, 7)
        delta, quad, q99, failures = _one_shot_report(
            distance_matrix(family, kind, pool), 1600, n, 7)
        assert rep.delta == rep.worst_defect == delta
        assert np.array_equal(rep.worst_points, pool.points[quad])
        assert rep.defect_q99 == q99
        assert rep.failures == failures == 0
    # a pool with a nan point: failures spread over every chunk
    pool = np.random.default_rng(4).normal(size=(12, 4)) * 0.3
    pool[5] = np.nan

    rep = four_point_delta(family, "euclidean", lambda n, seed: pool,
                           n_quadruples=n, seed=0)
    delta, quad, q99, failures = _one_shot_report(
        distance_matrix(family, "euclidean", pool), 12, n, 0)
    assert rep.delta == delta
    assert np.array_equal(rep.worst_points, pool[quad])
    assert rep.defect_q99 == q99
    assert rep.failures == failures > 0


def test_blocked_distance_matrix_equals_whole_table(family, graph):
    assert 300 % gromov._BLOCK_ROWS != 0
    rng = np.random.default_rng(8)
    node = rng.integers(0, graph.nodes.shape[0], size=300)
    t = rng.uniform(0.005, 0.95, size=300)
    # deep pairs on one ray, split over different blocks
    node[[2, 140, 299]] = 17
    t[[2, 140, 299]] = [0.6, 0.75, 0.9]
    pts = graph.nodes[node] * (1.0 - t)[:, None]
    # repeats of a collar and a deep point in other blocks
    pts[[100, 250]] = pts[1]
    pts[[70, 200]] = pts[140]
    D = distance_matrix(family, "euclidean", pts)
    ref = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    assert np.array_equal(D, ref)
    P = family.prepare(pts)
    idx = np.arange(300)
    W = graph.rows_from(P.node)[:, P.node]
    for kind in ("g", "d"):
        ref = family.kernel(kind, W, P.take(idx[:, None]), P.take(idx[None, :]))
        np.fill_diagonal(ref, 0.0)
        ref = np.maximum(ref, ref.T)
        D = distance_matrix(family, kind, pts)
        assert np.array_equal(D, ref)
        assert D[1, 100] == D[250, 100] == 0.0


def test_four_point_delta_memory_is_one_table(ball, structure):
    # 1,600-point pool, so the table is 20.5 MB; the one-shot form of the
    # same run peaked at 104 MB (all 200k quadruples drawn at once, and
    # whole-table kernel temporaries)
    g = BoundaryGraph.build(ball, structure, n_nodes=300, k_neighbors=10,
                            anisotropy=8.0, seed=0)
    fam = MetricFamily(HeightProjection(ball, EPS), g)
    tracemalloc.start()
    try:
        four_point_delta(fam, "g", fam.collar_sample, n_quadruples=200_000,
                         seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45e6


# ---------------------------------------------------------------------------
# pairwise tables
# ---------------------------------------------------------------------------

def test_distance_matrix_matches_pair_values(family, graph):
    pts = [ray_point(graph.nodes[i], t)
           for i, t in [(3, 0.02), (90, 0.3), (222, 0.11), (409, 0.45)]]
    # a deep pair on one ray exercises the straight-chord branch
    pts.append(ray_point(graph.nodes[3], 0.7))
    pts.append(ray_point(graph.nodes[3], 0.9))
    # a deep point on another ray, and repeats of a collar and a deep point
    pts.append(ray_point(graph.nodes[222], 0.8))
    pts.append(pts[1].copy())
    pts.append(pts[4].copy())
    pts = np.array(pts)
    for k, kind in enumerate(("g", "d")):
        D = distance_matrix(family, kind, pts)
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                pair = pair_values(family, pts[i], pts[j])[k]
                assert abs(D[i, j] - pair) < 1e-9


# ---------------------------------------------------------------------------
# boundary products
# ---------------------------------------------------------------------------

def test_boundary_product_stabilizes_to_log_form(family, graph):
    a, b = graph.nodes[7], graph.nodes[131]
    omega = np.zeros(4)
    prod = boundary_product(family, "g", a, b, omega, depth=28)
    w_ab = graph.distance_nodes(*graph.snap(np.stack([a, b])))
    # at the flat base point both anchor separations enter through the
    # collar roof; the product is log((wa+1)(wb+1)/wab) up to the height
    # floor of the deepest level evaluated
    n0 = family.prepare(omega[None]).node[0]
    wa = float(graph.rows_from(np.array([n0]))[0, family.prepare(
        a[None] * (1 - 1e-6)).node[0]])
    wb = float(graph.rows_from(np.array([n0]))[0, family.prepare(
        b[None] * (1 - 1e-6)).node[0]])
    expect = math.log((wa + 1.0) * (wb + 1.0) / w_ab)
    assert abs(prod - expect) < 5e-3


def test_boundary_product_distinctness_guard(family, graph):
    a, b = graph.nodes[4], graph.nodes[9]
    # one point twice, a kind that is not a collar metric, too few levels
    for x, y, kind, depth in ((a, a, "g", 28), (a, b, "euclidean", 28),
                              (a, b, "g", 3)):
        with pytest.raises(ConfigError):
            boundary_product(family, kind, x, y, np.zeros(4), depth=depth)


def test_boundary_product_reports_trend_when_unstable(family, graph):
    # at depth 6 the last three products still move by 1.3e-2, above the
    # 1e-3 tolerance
    with pytest.raises(NotStabilized) as exc_info:
        boundary_product(family, "g", graph.nodes[7], graph.nodes[131],
                         np.zeros(4), depth=6)
    trail = exc_info.value.args[1]
    assert len(trail) == 6
    assert all(np.isfinite(v) for v in trail)
