"""Seeded projection: callers that know a near-foot pass it as ``seed_feet``.

Only points bound for the 24-candidate fallback use the seeds; a seeded
foot is kept when its Newton solve converges and it is no farther than
the nearest cloud point, and every other point goes on to the fallback.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypkob import Domain, HeightProjection, affine_contraction, iterate_many
from hypkob import config
from hypkob.cli import main
from hypkob.domain import principal_curvatures

from conftest import EPS

_ELLIPSOID_AXES = [1.0, 1.0, 0.7, 0.7]
_ELLIPSOID_EPS = 0.245


class _CountingProjection(HeightProjection):
    """A projection that counts the points reaching the fallback."""

    fallback_points = 0

    def _fallback_feet(self, X):
        self.fallback_points += X.shape[0]
        return super()._fallback_feet(X)


@pytest.fixture(scope="module")
def counting_projections(ball):
    ellipsoid = Domain.from_spec({
        "dimension": 4,
        "defining_function": {"type": "ellipsoid",
                              "semi_axes": _ELLIPSOID_AXES},
    })
    return {False: _CountingProjection(ball, EPS),
            True: _CountingProjection(ellipsoid, _ELLIPSOID_EPS)}


@st.composite
def _deep_points_and_noise(draw):
    """Deep points with a single nearest foot, and per-coordinate seed noise.

    Ball points have 0.02 <= |x| <= 0.2: depth at least 0.8, past the
    fallback's sqrt(1.25 eps) = 0.79, and clear of the near-singular
    centre. Ellipsoid points have |(x1, x2)| <= 0.15 and
    0.05 <= |(x3, x4)| <= 0.12: depth at least 0.566, past 0.553, and
    off the medial disc x3 = x4 = 0, where the feet form a circle.
    """
    on_ellipsoid = draw(st.booleans())
    coord = st.floats(-1.0, 1.0, allow_nan=False)

    def direction(k):
        v = np.array(draw(st.lists(coord, min_size=k, max_size=k)
                          .filter(lambda v: np.linalg.norm(v) > 0.1)))
        return v / np.linalg.norm(v)

    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if on_ellipsoid:
            rows.append(np.concatenate([
                draw(st.floats(0.0, 0.15)) * direction(2),
                draw(st.floats(0.05, 0.12)) * direction(2)]))
        else:
            rows.append(draw(st.floats(0.02, 0.2)) * direction(4))
    noise = draw(st.lists(st.floats(-0.05, 0.05), min_size=4 * len(rows),
                          max_size=4 * len(rows)))
    return on_ellipsoid, np.array(rows), np.reshape(noise, (-1, 4))


@settings(max_examples=40)
@given(case=_deep_points_and_noise())
def test_perturbed_seeds_give_the_unseeded_projection(counting_projections,
                                                      case):
    on_ellipsoid, X, noise = case
    proj = counting_projections[on_ellipsoid]
    proj.fallback_points = 0
    P0, d0 = proj.project_batch(X)
    assert proj.fallback_points == X.shape[0]
    proj.fallback_points = 0
    P, dist = proj.project_batch(X, seed_feet=P0 + noise)
    assert proj.fallback_points == 0
    tol = proj.newton_tol * (1.0 + np.linalg.norm(X, axis=1))
    assert np.all(np.abs(dist - d0) <= tol)
    # each solve stops once its residual is below tol, and the foot moves
    # by up to the residual over 1 - dist * kappa_max, the smallest
    # eigenvalue of the tangent block of the Newton system (|x| on the
    # ball), so two converged feet agree to twice that
    cond = 1.0 - d0 * principal_curvatures(proj.domain, P0).max(axis=1)
    assert np.all(np.abs(P - P0).max(axis=1) <= 2.0 * tol / cond)


@pytest.mark.parametrize("on_ellipsoid, x, seed", [
    (False, 0.2 * np.array([0.6, 0.0, -0.8, 0.0]), np.array([-0.6, 0.0, 0.8, 0.0])),
    (True, np.array([0.0, 0.0, 0.05, 0.0]), np.array([0.0, 0.0, -0.7, 0.0])),
])
def test_seed_at_a_farther_critical_point_is_refused(counting_projections,
                                                     on_ellipsoid, x, seed):
    # the seed is an exact critical point of the distance, so its Newton
    # solve converges at once, but it lies farther than the nearest cloud
    # point: the point goes to the fallback as if no seed had been passed
    proj = counting_projections[on_ellipsoid]
    X = x[None]
    P_seed, ok = proj._newton_polish(X, seed[None])
    cd, _ = proj.domain.cloud_tree().query(X, k=1)
    assert ok[0] and np.linalg.norm(P_seed[0] - x) > cd[0] + 1e-9
    P0, d0 = proj.project_batch(X)
    proj.fallback_points = 0
    P, dist = proj.project_batch(X, seed_feet=seed[None])
    assert proj.fallback_points == 1
    assert np.array_equal(P, P0) and np.array_equal(dist, d0)


def test_contraction_orbit_reaches_fallback_only_at_step_zero(ball):
    # every later step is seeded with the previous step's feet; toward
    # (0.1, 0, 0, 0) the orbit points are deep after a few steps, and
    # without seeds each of the 200 steps would call the fallback
    proj = _CountingProjection(ball, EPS)
    starts = ball.sample_interior(20, seed=0)
    proj.project_batch(starts)
    step0 = proj.fallback_points
    assert step0 <= 20
    proj.fallback_points = 0
    recs = iterate_many(affine_contraction([0.1, 0.0, 0.0, 0.0], 0.5), proj,
                        starts, n_max=200)
    assert all(r.n_steps == 200 for r in recs)
    assert all(abs(r.heights[-1] ** 2 - 0.9) < 1e-9 for r in recs)
    assert proj.fallback_points == step0


def test_deep_orbit_manifest_records_the_fallback_points(tmp_path,
                                                          monkeypatch):
    # the deep benchmark's contraction toward (0.1, 0, 0, 0) at rate 0.5,
    # through the command line, with the workspace's projection counting
    # its fallback points by the override above; manifest.json carries the
    # projection's own count, and report.json replays byte for byte. Orbit
    # seed 1 draws one start at |x| = 0.108, deeper than the fallback
    # threshold, so step zero sends it to the fallback and the seeded
    # steps after it do not
    made = []

    class Recorded(_CountingProjection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(config, "HeightProjection", Recorded)
    cfg = tmp_path / "ball.json"
    cfg.write_text(json.dumps({
        "domain": {"dimension": 4, "defining_function": {"type": "ball"}},
        "epsilon": EPS, "graph": {"n_nodes": 160, "k_neighbors": 8},
        "seeds": {"orbits": 1}}))
    contraction = tmp_path / "contraction.json"
    contraction.write_text(json.dumps({"type": "affine_contraction",
                                       "p": [0.1, 0.0, 0.0, 0.0],
                                       "rate": 0.5}))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["orbit", "--config", str(cfg), "--map", str(contraction),
                     "--out", str(out)]) == 0
        counts = json.loads((out / "manifest.json").read_text())["counters"]
        runs.append(((out / "report.json").read_bytes(), counts["projection"]))
        assert counts["projection"] == made[-1].counts
        assert counts["projection"]["fallback_points"] == made[-1].fallback_points
    assert runs[0] == runs[1]
    counts = runs[0][1]
    assert 0 < counts["fallback_points"] < counts["points"]
    assert counts["seeded_accepted"] > 0
