import math

import numpy as np
import pytest

from hypkob import (BoundaryBiasedSampler, ConfigError, HeightsDiffer,
                    Polyline, RefinementStalled, check_semicontraction,
                    collar_profile_distance, distance_matrix, estimate_C,
                    four_point_delta, identity_map, metrics, path_length)
from hypkob.layered import LayeredSolver

from conftest import EPS, pair_values


def ray_point(foot, t):
    """Collar point at depth t on the inward ray of a unit-sphere foot."""
    return foot * (1.0 - t)


# ---------------------------------------------------------------------------
# closed collar profile
# ---------------------------------------------------------------------------

def test_profile_zero_separation_is_log_ratio():
    for ha, hb in [(0.1, 0.2), (0.3, 0.3), (0.05, 0.7)]:
        got = collar_profile_distance(0.0, ha, hb, EPS)
        assert abs(got - abs(math.log(ha / hb))) < 1e-14


def test_profile_monotone_in_separation():
    ws = np.linspace(0.0, 3.0, 200)
    vals = [collar_profile_distance(w, 0.1, 0.2, EPS) for w in ws]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_profile_case_formulas():
    ha, hb = 0.1, 0.2
    root = math.sqrt(EPS)
    # small separations peak at the larger height
    w = 0.15
    expect = 2.0 * math.log(hb / math.sqrt(ha * hb)) + 2.0 * w / hb
    assert abs(collar_profile_distance(w, ha, hb, EPS) - expect) < 1e-14
    # intermediate separations peak at their own scale
    w = 0.5
    expect = 2.0 * math.log(w / math.sqrt(ha * hb)) + 2.0
    assert abs(collar_profile_distance(w, ha, hb, EPS) - expect) < 1e-14
    # large separations ride the collar roof
    w = 2.0
    expect = 2.0 * math.log(root / math.sqrt(ha * hb)) + 2.0 * w / root
    assert abs(collar_profile_distance(w, ha, hb, EPS) - expect) < 1e-14


def test_profile_triangle_inequality():
    rng = np.random.default_rng(0)
    for _ in range(500):
        w1, w2 = rng.uniform(0.0, 1.5, size=2)
        ha, hb, hc = rng.uniform(0.02, math.sqrt(EPS), size=3)
        lhs = collar_profile_distance(w1 + w2, ha, hb, EPS)
        rhs = (collar_profile_distance(w1, ha, hc, EPS)
               + collar_profile_distance(w2, hc, hb, EPS))
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# pair values
# ---------------------------------------------------------------------------

def test_vertical_pair_closed_form(family, graph):
    f = graph.nodes[5]
    x = ray_point(f, 0.04)
    y = ray_point(f, 0.01)
    want = math.log(2.0)
    g, d = pair_values(family, x, y)
    assert abs(d - want) < 1e-6
    assert abs(g - want) < 1e-6
    assert abs(d - 2.0 * math.log(0.2 / math.sqrt(0.02))) < 1e-6


def test_g_le_d_with_additive_cap(family, graph):
    rng = np.random.default_rng(1)
    m = graph.nodes.shape[0]
    idx = rng.integers(0, m, size=(400, 2))
    u = rng.random((400, 2))
    A = family.prepare_on_rays(idx[:, 0], EPS * u[:, 0] ** 2)
    B = family.prepare_on_rays(idx[:, 1], EPS * u[:, 1] ** 2)
    gv = family.g_pairs(A, B)
    dv = family.d_pairs(A, B)
    assert np.all(dv >= gv - 1e-12)
    # the theoretical cap uses the largest node separation on the graph
    wmax = float(np.max(graph.rows_from(np.arange(min(m, 64)))))
    root = math.sqrt(EPS)
    reach = wmax + root
    cap = max(2.0, 2.0 * reach / root - 2.0 * math.log(reach / root))
    assert np.all(dv - gv <= cap + 1e-9)


def test_separation_slope_is_kernel_derivative(family):
    # one separation in each regime of the collar profile, away from the
    # kinks: below the larger height (0.2), up to the roof (sqrt(EPS)),
    # and beyond it
    A = family.prepare_on_rays([0, 0, 0], 0.01)
    B = family.prepare_on_rays([7, 7, 7], 0.04)
    W = np.array([0.1, 0.4, 1.5])
    step = 1e-6
    for kind in ("g", "d"):
        diff = (family.kernel(kind, W + step, A, B)
                - family.kernel(kind, W - step, A, B)) / (2.0 * step)
        slope = family.slope(kind, W, A, B)
        assert np.all(np.abs(slope - diff) <= 1e-6 * slope)
    assert np.allclose(family.slope("d", W, A, B),
                       [2.0 / 0.2, 2.0 / 0.4, 2.0 / math.sqrt(EPS)])


def test_equality_only_for_shared_ray(family, graph):
    f = graph.nodes[40]
    x, y = ray_point(f, 0.09), ray_point(f, 0.25)
    g, d = pair_values(family, x, y)
    assert abs(d - g) < 1e-9
    g2 = graph.nodes[int(np.argmin(graph.nodes @ f))]
    far_g, far_pair = pair_values(family, ray_point(f, 0.09),
                                  ray_point(g2, 0.09))
    assert far_pair > far_g + 0.05


def test_triangle_inequality_sampled(family, graph):
    rng = np.random.default_rng(2)
    m = graph.nodes.shape[0]
    idx = rng.integers(0, m, size=(1000, 3))
    u = rng.random((1000, 3))
    P = [family.prepare_on_rays(idx[:, k], EPS * np.maximum(u[:, k] ** 2, 1e-6))
         for k in range(3)]
    for pair in (family.g_pairs, family.d_pairs):
        ab = pair(P[0], P[1])
        bc = pair(P[1], P[2])
        ac = pair(P[0], P[2])
        assert np.all(ac <= ab + bc + 1e-9)


def test_symmetry(family, graph):
    x = ray_point(graph.nodes[3], 0.2)
    y = ray_point(graph.nodes[200], 0.05)
    gxy, dxy = pair_values(family, x, y)
    gyx, dyx = pair_values(family, y, x)
    assert abs(dxy - dyx) < 1e-12
    assert abs(gxy - gyx) < 1e-12
    assert pair_values(family, x, x) == (0.0, 0.0)


def test_deep_same_ray_pairs_are_euclidean(family, graph):
    f = graph.nodes[9]
    x = ray_point(f, 0.7)
    y = ray_point(f, 0.9)
    assert abs(pair_values(family, x, y)[1] - np.linalg.norm(x - y)) < 1e-9


# ---------------------------------------------------------------------------
# layered grid solver as an independent witness
# ---------------------------------------------------------------------------

def test_layered_collar_grid_dominates_profile(family, graph):
    solver = LayeredSolver(family, mode="collar")
    rng = np.random.default_rng(3)
    m = graph.nodes.shape[0]
    for _ in range(12):
        i, j = rng.integers(0, m, size=2)
        ta, tb = rng.uniform(0.02, 0.45, size=2)
        x, y = ray_point(graph.nodes[i], ta), ray_point(graph.nodes[j], tb)
        grid = float(solver.distances(np.stack([x, y]))[0, 1])
        val = pair_values(family, x, y)[1]
        assert grid >= val - 1e-9
        assert grid <= val + 1.5


# ---------------------------------------------------------------------------
# path constructors and length functionals
# ---------------------------------------------------------------------------

def test_ray_segment_length_is_exact(family, graph):
    # a segment whose feet coincide runs along a normal ray and takes the
    # exact log form under g; lengths are measured under the rate kinds only
    f = graph.nodes[11]
    x, y = ray_point(f, 0.36), ray_point(f, 0.04)
    pl = Polyline(np.stack([x, y]))
    want = abs(math.log(0.6 / 0.2))
    assert abs(path_length(pl, family, "g") - want) < 1e-12
    for kind in ("d", "euclidean"):
        with pytest.raises(ConfigError):
            path_length(pl, family, kind)


def test_horizontal_path_matches_boundary_distance(family, graph):
    i, j = 20, 180
    t = 0.09
    x, y = ray_point(graph.nodes[i], t), ray_point(graph.nodes[j], t)
    pl = family.horizontal_path(x, y)
    glen = path_length(pl, family, "g")
    w = graph.distance_nodes(i, j)
    assert abs(glen - 2.0 * w / 0.3) / (2.0 * w / 0.3) < 0.02


def test_horizontal_path_requires_equal_heights(family, graph):
    with pytest.raises(HeightsDiffer):
        family.horizontal_path(ray_point(graph.nodes[0], 0.09),
                               ray_point(graph.nodes[100], 0.16))
    with pytest.raises(ConfigError):
        family.horizontal_path(ray_point(graph.nodes[0], 0.8),
                               ray_point(graph.nodes[100], 0.8))


def test_degenerate_horizontal_path_is_a_point(family, graph):
    f = graph.nodes[33]
    x = ray_point(f, 0.16)
    pl = family.horizontal_path(x, x.copy())
    assert pl.n_segments == 0
    assert path_length(pl, family, "g") == 0.0


def test_composite_path_certifies_d(family, graph):
    rng = np.random.default_rng(4)
    m = graph.nodes.shape[0]
    for _ in range(6):
        i, j = rng.integers(0, m, size=2)
        x = ray_point(graph.nodes[i], rng.uniform(0.02, 0.4))
        y = ray_point(graph.nodes[j], rng.uniform(0.02, 0.4))
        pl, cost = family.composite_upper_path(x, y)
        assert abs(cost - pair_values(family, x, y)[1]) < 1e-12
        glen = path_length(pl, family, "g")
        assert abs(glen - cost) / max(cost, 1e-9) < 0.05
        assert np.allclose(pl.points[0], x, atol=1e-12)
        assert np.allclose(pl.points[-1], y, atol=1e-12)


def test_geodesic_polyline_realizes_distance(family, graph):
    x = ray_point(graph.nodes[60], 0.05)
    y = ray_point(graph.nodes[400], 0.2)
    pl, _ = family.composite_upper_path(x, y)
    glen = path_length(pl, family, "g")
    dv = pair_values(family, x, y)[1]
    assert abs(glen - dv) / dv < 0.05


def test_deep_same_ray_composite_is_straight(family, graph):
    f = graph.nodes[9]
    x, y = ray_point(f, 0.7), ray_point(f, 0.9)
    pl, cost = family.composite_upper_path(x, y)
    assert pl.points.shape[0] == 2
    assert abs(cost - np.linalg.norm(x - y)) < 1e-9


def test_refinement_stall_raises(family, graph, monkeypatch):
    # g's length is exact; the estimate's quadrature refines a slanted
    # chord, whose speed keeps moving between depths, so an absurd
    # tolerance with no depth budget cannot settle
    monkeypatch.setattr(metrics, "_EST_REL_TOL", 1e-15)
    monkeypatch.setattr(metrics, "_EST_MAX_DEPTH", 1)
    x = ray_point(graph.nodes[2], 0.25)
    y = ray_point(graph.nodes[390], 0.01)
    pl = Polyline(np.stack([x, y]))
    with pytest.raises(RefinementStalled) as exc_info:
        path_length(pl, family, "kobayashi_estimate")
    prev, last = exc_info.value.args[1]
    assert np.isfinite(prev) and np.isfinite(last)


def test_estimate_C_finite_and_stable(family):
    c1 = estimate_C(family, n_pairs=500, seed=0)
    assert np.isfinite(c1) and c1 >= 0.0
    c2 = estimate_C(family, n_pairs=500, seed=0)
    assert c1 == c2


def test_anisotropy_shift_is_controlled(ball, structure, projection, graph):
    # raising the transverse penalty can only lengthen boundary paths,
    # and per-edge weights grow by at most the penalty ratio; since the
    # collar form is monotone in the separation with slope 2/peak and
    # the log part is nonnegative, the increase is below half of d8
    from hypkob import BoundaryGraph, MetricFamily
    g12 = BoundaryGraph.build(ball, structure, n_nodes=500, k_neighbors=10,
                              anisotropy=12.0, seed=0)
    fam8 = MetricFamily(projection, graph)
    fam12 = MetricFamily(projection, g12)
    rng = np.random.default_rng(5)
    m = graph.nodes.shape[0]
    idx = rng.integers(0, m, size=(200, 2))
    u = rng.random((200, 2))
    A8 = fam8.prepare_on_rays(idx[:, 0], EPS * u[:, 0] ** 2)
    B8 = fam8.prepare_on_rays(idx[:, 1], EPS * u[:, 1] ** 2)
    d8 = fam8.d_pairs(A8, B8)
    A12 = fam12.prepare(A8.points)
    B12 = fam12.prepare(B8.points)
    d12 = fam12.d_pairs(A12, B12)
    assert np.min(d12 - d8) > -1e-9
    assert np.all(d12 - d8 <= (12.0 / 8.0 - 1.0) * d8 + 1e-9)


def test_kinds_are_refused_where_used(family):
    # each consumer refuses an unknown kind, and the real kinds it cannot
    # serve: pair values are those of g and d, tables and four-point
    # constants are not the estimate's, and the audit runs on g and d
    # (path_length's refusals of d and euclidean are checked with its ray
    # segment, the audit's of euclidean with its determinism)
    P = family.prepare(np.array([[0.1, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0]]))
    pl = Polyline(P.points, prepared=P)
    sampler = BoundaryBiasedSampler(family, seed=0)
    consumers = [
        (lambda k: family.pairs(k, P.take([0]), P.take([1])),
         ("kobayashi_estimate", "euclidean")),
        (lambda k: path_length(pl, family, k), ()),
        (lambda k: distance_matrix(family, k, P), ("kobayashi_estimate",)),
        (lambda k: four_point_delta(family, k, sampler, n_quadruples=10),
         ("kobayashi_estimate",)),
        (lambda k: check_semicontraction(identity_map(), family, k, n_pairs=8),
         ("kobayashi_estimate",)),
    ]
    for consume, kinds in consumers:
        for kind in ("nope",) + kinds:
            with pytest.raises(ConfigError, match=repr(kind)):
                consume(kind)
