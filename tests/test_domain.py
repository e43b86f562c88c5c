import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypkob import (Domain, HeightProjection, ConfigError, PointOutsideDomain, ball_field, ellipsoid_field,
                    polynomial_field, reach_details, superellipsoid_field)

from hypkob.domain import _NEWTON_TOL

from conftest import EPS, pair_values


def _project(proj, x):
    """Foot and height of one point, from a batch of one."""
    feet, dist = proj.project_batch(np.asarray(x, dtype=float)[None, :])
    return feet[0], float(np.sqrt(dist[0]))


def test_ball_height_closed_form(projection):
    rng = np.random.default_rng(3)
    u = rng.normal(size=(50, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.uniform(0.3, 0.95, size=50)
    X = r[:, None] * u
    feet, dist = projection.project_batch(X)
    h = np.sqrt(dist)
    assert np.allclose(h * h, 1.0 - r, atol=1e-8)
    assert np.allclose(dist, 1.0 - r, atol=1e-8)
    assert np.allclose(feet, u, atol=1e-7)


def test_projection_residual_is_distance(projection):
    rng = np.random.default_rng(4)
    u = rng.normal(size=(30, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    X = rng.uniform(0.55, 0.97, size=30)[:, None] * u
    feet, dist = projection.project_batch(X)
    gap = np.linalg.norm(X - feet, axis=1)
    assert np.allclose(gap, dist, atol=1e-10)
    h = np.sqrt(dist)
    assert np.allclose(h * h, dist, atol=1e-10)


def test_ellipsoid_nearest_point_oracle(ellipsoid):
    # for the axis point (1,0,0,0) inside x^2/4 + y^2 + z^2 + w^2 = 1 the
    # stationarity condition pins the foot at x = 4/3 with squared
    # distance 2/3, strictly better than the axis intersection (2,0,0,0)
    proj = HeightProjection(ellipsoid, 1.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    foot, h = _project(proj, x)
    assert abs(foot[0] - 4.0 / 3.0) < 1e-6
    assert abs(np.linalg.norm(x - foot) ** 2 - 2.0 / 3.0) < 1e-8
    assert abs(h - (2.0 / 3.0) ** 0.25) < 1e-7


def test_center_tie_break_deterministic(ball):
    proj = HeightProjection(ball, EPS)
    c = np.zeros(4)
    f1, h = _project(proj, c)
    f2, _ = _project(proj, c)
    assert np.array_equal(f1, f2)
    assert abs(np.linalg.norm(f1) - 1.0) < 1e-8
    assert abs(h - 1.0) < 1e-8


def test_deep_interior_shell_projects(projection):
    # near the center the feet nearly tie and the tangent block of the
    # Newton system, (1 - 2 lam) I = |x| I on the ball, nearly vanishes;
    # the fallback's Newton solves must still return boundary feet with the
    # right distance at every radius down to zero
    rng = np.random.default_rng(11)
    U = rng.normal(size=(12, 4))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    for c in (1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 1e-13):
        P, dist = projection.project_batch(c * U)
        assert np.abs(np.linalg.norm(P, axis=1) - 1.0).max() < 1e-9
        assert np.abs(dist - (1.0 - c)).max() < 5e-5


def test_segment_shares_projection(projection):
    u = np.array([0.2, -0.5, 0.7, 0.4])
    u /= np.linalg.norm(u)
    f1, _ = _project(projection, 0.5 * u)
    f2, _ = _project(projection, 0.8 * u)
    assert np.allclose(f1, f2, atol=1e-8)
    assert np.allclose(f1, u, atol=1e-8)


def test_squared_height_one_lipschitz(ellipsoid):
    proj = HeightProjection(ellipsoid, 0.4)
    rng = np.random.default_rng(11)
    X = ellipsoid.sample_interior(80, seed=7)
    Y = X + rng.normal(scale=0.02, size=X.shape)
    keep = ellipsoid.rho(Y) < -1e-9
    X, Y = X[keep], Y[keep]
    hx = np.sqrt(proj.project_batch(X)[1])
    hy = np.sqrt(proj.project_batch(Y)[1])
    dx = np.abs(hx ** 2 - hy ** 2)
    assert np.all(dx <= np.linalg.norm(X - Y, axis=1) + 1e-10)


def test_collar_membership(projection):
    u = np.array([1.0, 0.0, 0.0, 0.0])
    assert _project(projection, 0.6 * u)[1] ** 2 <= projection.epsilon
    assert not _project(projection, 0.05 * u)[1] ** 2 <= projection.epsilon


def test_outside_point_rejected(projection):
    with pytest.raises(PointOutsideDomain):
        _project(projection, np.array([1.5, 0.0, 0.0, 0.0]))


def test_exterior_tolerance_does_not_depend_on_the_batch(projection, ball):
    deep = np.array([0.0, 0.1, 0.0, 0.0])
    outside = np.sqrt(1.0 + 1.5e-12) * np.array([1.0, 0.0, 0.0, 0.0])
    assert ball.rho(outside) > 1.2e-12
    # refused alone, and refused next to a deep point, whose |rho| of
    # about 1 would widen a tolerance taken over the batch
    with pytest.raises(PointOutsideDomain):
        projection.project_batch(outside[None])
    with pytest.raises(PointOutsideDomain):
        projection.project_batch(np.stack([deep, outside]))
    # a point within the per-point tolerance is taken in both cases
    edge = np.sqrt(1.0 + 0.5e-12) * np.array([0.0, 0.0, 1.0, 0.0])
    assert 0.0 < ball.rho(edge) < 0.8e-12
    alone = projection.project_batch(edge[None])
    paired = projection.project_batch(np.stack([deep, edge]))
    assert np.allclose(alone[0][0], paired[0][1], atol=1e-10)


def test_diameter_estimate_memory_is_blocked():
    # the one-shot (1024, 1024, 4) difference tensor peaked at 42 MB
    dom = Domain.from_spec({"dimension": 4,
                            "defining_function": {"type": "ball"}})
    tracemalloc.start()
    try:
        diam = dom.diameter_estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6
    assert 1.99 < diam <= 2.0


@pytest.mark.parametrize("field", [
    {"type": "ball"},
    {"type": "ellipsoid", "semi_axes": [1.0, 1.0, 0.7, 0.7]},
    {"type": "superellipsoid", "semi_axes": [1.0, 1.2, 0.7, 0.9],
     "exponent": 4.0}])
def test_diameter_estimate_equals_the_blockwise_maximum(field):
    dom = Domain.from_spec({"dimension": 4, "defining_function": field})
    cloud = dom.boundary_cloud()
    sub = cloud[:: max(1, cloud.shape[0] // 1024)]
    assert sub.shape[0] == 1024
    # the estimate as it was first written: squared differences summed in
    # blocks of 64 rows, the largest kept
    d2 = max(float(np.sum((sub[s:s + 64, None, :] - sub[None, :, :]) ** 2,
                          axis=-1).max())
             for s in range(0, sub.shape[0], 64))
    assert dom.diameter_estimate() == float(np.sqrt(d2))


@pytest.mark.parametrize("semi_axes", [None, [1.0, 1.0, 0.7, 0.7]])
def test_cloud_tree_queries_equal_brute_force(semi_axes):
    field = ({"type": "ball"} if semi_axes is None
             else {"type": "ellipsoid", "semi_axes": semi_axes})
    dom = Domain.from_spec({"dimension": 4, "defining_function": field})
    cloud = dom.boundary_cloud()
    rng = np.random.default_rng(8)
    u = rng.normal(size=(300, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if semi_axes is not None:
        u *= np.asarray(semi_axes)
    r = np.concatenate([rng.uniform(0.05, 0.3, 100),    # deep
                        np.full(100, 3e-4),              # near the centre
                        rng.uniform(0.6, 0.99, 100)])    # collar
    X = r[:, None] * u
    brute = np.linalg.norm(X[:, None, :] - cloud[None], axis=-1)
    order = np.argsort(brute, axis=1, kind="stable")
    for k in (1, 24):
        dist, idx = dom.cloud_tree().query(X, k=k)
        idx, dist = idx.reshape(300, k), dist.reshape(300, k)
        assert np.array_equal(idx, order[:, :k])
        assert np.array_equal(dist, np.take_along_axis(brute, order[:, :k], 1))


def test_reach_estimate_ball(ball):
    est = reach_details(ball, n_samples=128, seed=2)
    assert abs(est.reach - 1.0) < 0.02
    eps = reach_details(ball, n_samples=128, seed=2).epsilon
    assert isinstance(eps, float)
    assert abs(eps - 0.5) < 0.02


def test_from_spec_round_trip(ball):
    assert ball.dim == 4
    assert abs(ball.rho(np.zeros(4)) + 1.0) < 1e-12
    with pytest.raises(ConfigError):
        Domain.from_spec({"dimension": 4})
    with pytest.raises(ConfigError):
        Domain.from_spec({"dimension": 1,
                          "defining_function": {"type": "ball"}})


@pytest.mark.parametrize("field", [
    ball_field(4, 0.9),
    ellipsoid_field([1.0, 1.2, 0.7, 0.9]),
    # exponent 4: at 2.5 the |x|^(p-2) Hessian is too rough near the
    # coordinate planes for a central difference to check it
    superellipsoid_field([1.0, 1.2, 0.7, 0.9], 4.0),
    polynomial_field(4, [(1.0, (4, 0, 0, 0)), (0.5, (0, 2, 2, 0)),
                         (2.0, (1, 0, 0, 3)), (-0.3, (0, 1, 1, 1)),
                         (1.0, (0, 0, 2, 0)), (-1.0, (0, 0, 0, 0))]),
], ids=lambda f: f.name)
def test_field_derivatives_match_central_differences(field):
    # the gradient against differences of the value (step 1e-5), the
    # Hessian against differences of the gradient (step 1e-4)
    X = np.random.default_rng(0).uniform(-0.8, 0.8, (50, 4))
    E = np.eye(4)
    G = np.stack([(field.value_fn(X + 1e-5 * e) - field.value_fn(X - 1e-5 * e))
                  / 2e-5 for e in E], axis=-1)
    H = np.stack([(field.grad_fn(X + 1e-4 * e) - field.grad_fn(X - 1e-4 * e))
                  / 2e-4 for e in E], axis=-1)
    assert np.abs(field.grad_fn(X) - G).max() < 1e-8
    assert np.abs(field.hess_fn(X) - H).max() < 1e-6


def test_boundary_sampler_on_surface(ellipsoid):
    pts = ellipsoid.sample_boundary(64, seed=5)
    assert pts.shape == (64, 4)
    assert np.abs(ellipsoid.rho(pts)).max() < 1e-8
    again = ellipsoid.sample_boundary(64, seed=5)
    assert np.array_equal(pts, again)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_singular_tangent_system_spares_its_neighbours(projection):
    # from the off-boundary seed p0 = (0.9, 0, 0, 0) of x = (0, 0.5, 0, 0),
    # x is orthogonal to p0, so lam = (p0 - x).p0 / |p0|^2 is exactly 1/2,
    # the (I - lam H) block of that row is exactly zero and its system
    # singular; the zero step retracts to (1, 0, 0, 0), which is no foot of
    # x and leaves its residual at 1/2. The other row must still take its
    # Newton steps and converge
    u = _unit([0.2, -0.5, 0.7, 0.4])
    X = np.stack([0.5 * u, [0.0, 0.5, 0.0, 0.0]])
    P0 = np.stack([_unit(u + [0.1, 0.1, 0.0, -0.1]), [0.9, 0.0, 0.0, 0.0]])
    P, ok = projection._newton_polish(X, P0, block=1)
    assert ok[0] and not ok[1]
    assert np.abs(P[0] - u).max() <= _NEWTON_TOL * 1.5
    assert np.array_equal(P[1], P0[1])


def test_unimprovable_point_stops_after_one_sweep(monkeypatch):
    # a zero step improves nothing (the singular row of the test above),
    # and repeating the sweep would repeat it exactly, so the stuck row
    # costs one Hessian evaluation, not 100
    ball = Domain.from_spec({"dimension": 4, "defining_function": {"type": "ball"}})
    proj = HeightProjection(ball, EPS)
    calls = []
    hess = ball.hess
    monkeypatch.setattr(ball, "hess", lambda p: calls.append(len(p)) or hess(p))
    P, ok = proj._newton_polish(np.array([[0.0, 0.5, 0.0, 0.0]]),
                                [[0.9, 0.0, 0.0, 0.0]], block=1)
    assert not ok[0]
    assert calls == [1]
    assert proj.counts["newton_sweeps"] == 1
    assert proj.counts["stuck_rows"] == 1


def test_deep_feet_do_not_depend_on_the_batch(projection):
    # endpoints like those of a deep ``dist``: 24 pairs with |x| in
    # [0.05, 0.3], 24 same-ray pairs and 8 near-centre pairs (x, x/2);
    # every point backtracks alone, so its foot and depth are bit-identical
    # whether it is projected with the others or by itself
    rng = np.random.default_rng(1)
    u = rng.standard_normal((72, 4))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    r = rng.uniform(0.05, 0.3, (48, 2))
    deep = np.vstack([r[:24, :1] * u[:24], r[:24, 1:] * u[24:48],
                      r[24:, :1] * u[48:72], r[24:, 1:] * u[48:72]])
    near = 3e-4 * u[:8]
    X = np.vstack([deep, near, 0.5 * near])
    P, dist = projection.project_batch(X)
    for i, x in enumerate(X):
        Pi, di = projection.project_batch(x[None])
        assert np.array_equal(P[i], Pi[0])
        assert dist[i] == di[0]


def test_fallback_trigger_compares_squared_distance(ball, monkeypatch):
    # the depth test is dist**2 > 1.25 eps, i.e. depth > sqrt(1.25 eps):
    # a ball point at depth 1.25 eps + 0.05 stays on the one-candidate
    # Newton path, one at depth sqrt(1.25 eps) + 0.05 polishes 24 candidates
    proj = HeightProjection(ball, EPS)
    calls = []
    polish = proj._newton_polish
    monkeypatch.setattr(proj, "_newton_polish",
                        lambda X, P0, **kw: calls.append(len(X)) or polish(X, P0, **kw))
    u = _unit([0.3, 0.1, -0.6, 0.5])
    for depth, rows in ((1.25 * EPS + 0.05, [1]),
                        (np.sqrt(1.25 * EPS) + 0.05, [1, 24])):
        calls.clear()
        _, dist = proj.project_batch(((1.0 - depth) * u)[None])
        assert calls == rows
        assert abs(dist[0] - depth) < 1e-9


_ELLIPSOID_AXES = np.array([1.0, 1.0, 0.7, 0.7])


@pytest.fixture(scope="module")
def complex_ellipsoid_projection():
    dom = Domain.from_spec({
        "dimension": 4,
        "defining_function": {"type": "ellipsoid",
                              "semi_axes": list(_ELLIPSOID_AXES)},
    })
    return HeightProjection(dom, 0.245)


def _boundary_point(draw, axes):
    """The boundary point on the ray through a drawn direction."""
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    u = np.array(draw(st.lists(coord, min_size=4, max_size=4)
                      .filter(lambda v: np.linalg.norm(v) > 0.1)))
    return u / np.sqrt(np.sum(u * u / axes**2))


@st.composite
def _mixed_batch(draw):
    """Collar points, deep points and the centre, on the ball or the ellipsoid.

    A point is s times the boundary point on a ray from the centre, with s
    in [0.75, 0.97] (collar) or [0, 0.4] (deep), or the centre itself.
    """
    on_ellipsoid = draw(st.booleans())
    axes = _ELLIPSOID_AXES if on_ellipsoid else np.ones(4)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["collar", "deep", "centre"]),
                              min_size=1, max_size=6)):
        if kind == "centre":
            rows.append(np.zeros(4))
            continue
        b = _boundary_point(draw, axes)
        lo, hi = (0.75, 0.97) if kind == "collar" else (0.0, 0.4)
        rows.append(draw(st.floats(lo, hi)) * b)
    return on_ellipsoid, np.array(rows)


@settings(max_examples=30)
@given(case=_mixed_batch())
def test_batch_projection_equals_pointwise(projection,
                                           complex_ellipsoid_projection, case):
    on_ellipsoid, X = case
    proj = complex_ellipsoid_projection if on_ellipsoid else projection
    P, dist = proj.project_batch(X)
    tol = _NEWTON_TOL * (1.0 + np.linalg.norm(X, axis=1))
    for i, x in enumerate(X):
        Pi, di = proj.project_batch(x[None])
        assert np.abs(P[i] - Pi[0]).max() <= tol[i]
        assert abs(dist[i] - di[0]) <= tol[i]
        if not np.any(x):
            # every foot ties at the centre: the same lexicographic pick
            assert np.array_equal(P[i], Pi[0])


def _near_centre_directions():
    """The 8 directions of the benchmark's near-centre rows (seed 2008)."""
    u = np.random.default_rng(2008).standard_normal((8, 4))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


@pytest.mark.parametrize("r", [3e-4, 1e-3])
def test_near_centre_feet_are_radial(projection, family, r):
    # an accepted foot has a Newton residual of max norm at most
    # tol = _NEWTON_TOL (1 + |x|), so its tangential part is at most 2 tol
    # long in R^4. On the ball that part is |x| sin(theta), theta the angle
    # between the foot and x/|x|, and |rho| <= tol puts the foot within
    # tol/2 of the sphere: the foot is within 2 tol/|x| + tol of x/|x|
    U = _near_centre_directions()
    X = r * U
    P, dist = projection.project_batch(X)
    tol = _NEWTON_TOL * (1.0 + r)
    assert np.linalg.norm(P - U, axis=1).max() <= 2.0 * tol / r + tol
    assert np.abs(dist - (1.0 - r)).max() <= tol
    # both points of (x, x/2) share one foot, so d is their chord
    for x in X:
        d = pair_values(family, x, 0.5 * x)[1]
        assert d == pytest.approx(0.5 * r, rel=1e-12)


@st.composite
def _interior_batch(draw):
    """Points s b on rays from the centre, b the ray's boundary point.

    On the ball s = 10^e with e in [-4, log10 0.97], so |x| reaches down
    to 1e-4; on the (1, 1, 0.7, 0.7) ellipsoid s is in [0, 0.97].
    """
    on_ellipsoid = draw(st.booleans())
    axes = _ELLIPSOID_AXES if on_ellipsoid else np.ones(4)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        b = _boundary_point(draw, axes)
        s = (draw(st.floats(0.0, 0.97)) if on_ellipsoid
             else 10.0 ** draw(st.floats(-4.0, np.log10(0.97))))
        rows.append(s * b)
    return on_ellipsoid, np.array(rows)


@settings(max_examples=40)
@given(case=_interior_batch())
def test_projected_feet_pass_the_newton_test(projection,
                                             complex_ellipsoid_projection,
                                             case):
    # every returned foot p is on rho = 0 and stationary for |p - x| to the
    # solver's tolerance, and the returned distance is |x - p|. The
    # solver's lam is not returned; the least-squares lam minimises the
    # 2-norm of p - x - lam grad(p), which is at most 2 tol in R^4 for the
    # solver's lam, so its max norm is at most 2 tol
    on_ellipsoid, X = case
    proj = complex_ellipsoid_projection if on_ellipsoid else projection
    dom = proj.domain
    P, dist = proj.project_batch(X)
    tol = _NEWTON_TOL * (1.0 + np.linalg.norm(X, axis=1))
    assert np.all(np.abs(dom.rho(P)) <= tol)
    g = dom.grad(P)
    lam = np.sum((P - X) * g, axis=1) / np.sum(g * g, axis=1)
    r1 = P - X - lam[:, None] * g
    assert np.all(np.abs(r1).max(axis=1) <= 2.0 * tol)
    chord = np.array([np.linalg.norm(x - p) for x, p in zip(X, P)])
    assert np.all(np.abs(dist - chord) <= 2.0 * np.spacing(chord))
