import math

import numpy as np
import pytest

from hypkob import (ConfigError, LayeredSolver, kobayashi_speed_batch,
                    path_length, quasi_isometry_fit, qi_check)
from hypkob import kobayashi

from conftest import EPS


def ray_point(foot, t):
    return foot * (1.0 - t)


@pytest.fixture(scope="module")
def solver(family):
    return LayeredSolver(family, "kobayashi")


def pair_distance(solver, x, y):
    return float(solver.distances(np.stack([x, y]))[0, 1])


def speed(projection, structure, x, v):
    return float(kobayashi_speed_batch(projection, structure, x, v)[0])


# ---------------------------------------------------------------------------
# the splitting
# ---------------------------------------------------------------------------

def split(projection, structure, x, v):
    """``(v_H, v_N, n, u)`` of one vector, from the batched split."""
    vh, vn, _, n, u = kobayashi._split_arrays(projection, structure,
                                              np.asarray(x)[None],
                                              np.asarray(v)[None])
    return vh[0], vn[0], n[0], u[0]


def test_split_at_pole_separates_the_plane(projection, structure):
    x = np.array([0.99, 0.0, 0.0, 0.0])
    vh, vn, _, _ = split(projection, structure, x, np.array([1.0, 0, 0, 0]))
    assert np.linalg.norm(vn - np.array([1.0, 0, 0, 0])) < 1e-10
    assert np.linalg.norm(vh) < 1e-10
    vh, vn, _, _ = split(projection, structure, x, np.array([0.0, 0, 1.0, 0]))
    assert np.linalg.norm(vh - np.array([0.0, 0, 1.0, 0])) < 1e-10
    assert np.linalg.norm(vn) < 1e-10
    v = np.array([1.0, 0, 1.0, 0]) / math.sqrt(2.0)
    vh, vn, n, u = split(projection, structure, x, v)
    assert abs(np.linalg.norm(vn) - 1 / math.sqrt(2.0)) < 1e-12
    assert abs(np.linalg.norm(vh) - 1 / math.sqrt(2.0)) < 1e-12
    # the normal plane at the pole is the (e1, e2) coordinate plane
    assert abs(abs(n @ np.array([1.0, 0, 0, 0])) - 1) < 1e-10
    assert abs(abs(u @ np.array([0.0, 1.0, 0, 0])) - 1) < 1e-10


def test_split_is_orthogonal_and_reconstructs(projection, structure, graph):
    rng = np.random.default_rng(7)
    for _ in range(20):
        i = int(rng.integers(0, graph.nodes.shape[0]))
        t = float(0.02 + 0.4 * rng.random())
        x = ray_point(graph.nodes[i], t)
        v = rng.normal(size=4)
        vh, vn, n, u = split(projection, structure, x, v)
        assert np.linalg.norm(vn + vh - v) < 1e-10
        assert abs(vh @ n) < 1e-10
        assert abs(vh @ u) < 1e-10
        hh = np.linalg.norm(vh) ** 2 + np.linalg.norm(vn) ** 2
        assert abs(hh - np.linalg.norm(v) ** 2) < 1e-10


def test_structure_preserves_horizontal_span(projection, structure, graph):
    # J v_H stays in the complement of the frame (n, u)
    rng = np.random.default_rng(8)
    for i in rng.integers(0, graph.nodes.shape[0], size=8):
        x = ray_point(graph.nodes[int(i)], 0.1)
        v = rng.normal(size=4)
        vh, _, n, u = split(projection, structure, x, v)
        jh = structure.j(graph.nodes[int(i)]) @ vh
        assert math.hypot(jh @ n, jh @ u) < 1e-8


# ---------------------------------------------------------------------------
# the pointwise norm
# ---------------------------------------------------------------------------

def test_speed_rates_at_reference_height(projection, structure):
    x = np.array([0.99, 0.0, 0.0, 0.0])  # depth 0.01, height 0.1
    assert abs(speed(projection, structure, x,
                     np.array([0, 0, 1.0, 0])) - 10.0) < 1e-6
    assert abs(speed(projection, structure, x,
                     np.array([1.0, 0, 0, 0])) - 100.0) < 1e-4


def test_speed_is_homogeneous(projection, structure, graph):
    rng = np.random.default_rng(9)
    x = ray_point(graph.nodes[33], 0.07)
    v = rng.normal(size=4)
    s1 = speed(projection, structure, x, v)
    s3 = speed(projection, structure, x, 3.0 * v)
    assert abs(s3 - 3.0 * s1) < 1e-12 * max(s1, 1.0)


def test_zero_vector_has_zero_speed(projection, structure):
    X = np.array([[0.9, 0, 0, 0], [0.9, 0, 0, 0]])
    V = np.array([[0.0, 0, 0, 0], [0.0, 0, 1.0, 0]])
    got = kobayashi_speed_batch(projection, structure, X, V)
    assert got[0] == 0.0
    assert got[1] == speed(projection, structure, X[1], V[1]) > 0.0


def test_scaling_exponents_along_heights(projection, structure):
    ts = np.geomspace(1e-4, 0.4, 12)
    hs = np.sqrt(ts)
    vn = np.array([1.0, 0, 0, 0])
    vh = np.array([0.0, 0, 1.0, 0])
    sn, sh = [], []
    for t in ts:
        x = np.array([1.0 - t, 0, 0, 0])
        sn.append(speed(projection, structure, x, vn))
        sh.append(speed(projection, structure, x, vh))
    slope_n = np.polyfit(np.log(hs), np.log(sn), 1)[0]
    slope_h = np.polyfit(np.log(hs), np.log(sh), 1)[0]
    assert abs(slope_n - (-2.0)) < 0.05
    assert abs(slope_h - (-1.0)) < 0.05


# ---------------------------------------------------------------------------
# lengths and distances
# ---------------------------------------------------------------------------

def test_radial_length_matches_log_oracle(family):
    x = np.array([1.0 - 0.4, 0, 0, 0])
    y = np.array([1.0 - 0.04, 0, 0, 0])
    got = path_length(np.stack([x, y]), family, "kobayashi_estimate")
    assert abs(got - math.log(10.0)) < 1e-4


def test_length_is_reversal_invariant(family, graph):
    a = ray_point(graph.nodes[14], 0.3)
    b = ray_point(graph.nodes[288], 0.05)
    kind = "kobayashi_estimate"
    fwd = path_length(np.stack([a, b]), family, kind)
    bwd = path_length(np.stack([b, a]), family, kind)
    assert abs(fwd - bwd) < 1e-10 * max(fwd, 1.0)


def test_solver_distance_realizes_radial_oracle(solver, graph):
    f = graph.nodes[21]
    x = ray_point(f, 0.4)
    y = ray_point(f, 0.04)
    got = pair_distance(solver, x, y)
    assert abs(got - math.log(10.0)) < 1e-9
    assert abs(pair_distance(solver, y, x) - got) < 1e-12


def test_solver_distance_bounded_by_path_lengths(solver, family, graph):
    # the grid solver must never beat differences of admissible paths by
    # much, and never exceed the straight-chord quadrature
    a = ray_point(graph.nodes[60], 0.09)
    b = ray_point(graph.nodes[301], 0.09)
    direct = path_length(np.stack([a, b]), family, "kobayashi_estimate")
    got = pair_distance(solver, a, b)
    assert 0.0 < got <= direct * (1.0 + 1e-9)


def test_weights_have_one_owner(monkeypatch, projection, structure, graph,
                                family):
    # the speed, the layered ladder and ray-segment lengths all follow
    # the two constants of the kobayashi module
    x = np.array([0.99, 0.0, 0.0, 0.0])  # depth 0.01
    radial, horizontal = np.eye(4)[0], np.eye(4)[2]
    before = [speed(projection, structure, x, v)
              for v in (radial, horizontal)]
    scale_n, scale_h = 0.3 / kobayashi.A_N, 0.6 / kobayashi.A_H
    monkeypatch.setattr(kobayashi, "A_N", 0.3)
    monkeypatch.setattr(kobayashi, "A_H", 0.6)
    s_n, s_h = [speed(projection, structure, x, v)
                for v in (radial, horizontal)]
    assert abs(s_n - scale_n * before[0]) < 1e-12 * before[0]
    assert abs(s_h - scale_h * before[1]) < 1e-12 * before[1]
    f = graph.nodes[21]
    a, b = ray_point(f, 0.4), ray_point(f, 0.04)
    want = 0.3 * math.log(10.0)
    ladder = LayeredSolver(family, mode="kobayashi")
    assert abs(pair_distance(ladder, a, b) - want) < 1e-9
    # one foot under both ends: a ray segment, measured exactly
    got = path_length(np.stack([a, b]), family, "kobayashi_estimate")
    assert abs(got - want) < 1e-9


def test_layered_solver_mode_guards(family):
    with pytest.raises(ConfigError):
        LayeredSolver(family, mode="nope")


# ---------------------------------------------------------------------------
# the sandwich fit
# ---------------------------------------------------------------------------

def test_identical_values_fit_exactly():
    vals = np.linspace(0.5, 9.0, 40)
    rep = quasi_isometry_fit(vals, vals)
    assert rep.C == 1.0
    assert rep.Cprime == 0.0
    assert rep.violations == 0


def test_fit_reports_nonfinite_pairs_as_violations():
    g = np.array([1.0, 2.0, np.inf, 3.0])
    k = np.array([1.1, 2.2, 3.0, np.nan])
    rep = quasi_isometry_fit(g, k)
    assert rep.violations == 2
    assert rep.n_pairs == 4
    assert np.isfinite(rep.Cprime)


def test_fit_guards():
    with pytest.raises(ConfigError):
        quasi_isometry_fit([], [])
    with pytest.raises(ConfigError):
        quasi_isometry_fit([1.0, 2.0], [1.0])


def test_qi_check_over_small_pool(solver, graph):
    rng = np.random.default_rng(4)
    idx = rng.integers(0, graph.nodes.shape[0], size=8)
    ts = 0.02 + 0.3 * rng.random(8)
    pool = np.array([ray_point(graph.nodes[int(i)], float(t))
                     for i, t in zip(idx, ts)])
    rep = qi_check(solver, pool)
    assert rep.n_pairs == 28
    assert rep.violations == 0
    assert rep.C >= 1.0
    assert rep.Cprime >= 0.0
