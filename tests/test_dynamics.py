import numpy as np
import pytest

from hypkob import (ConfigError, Domain, DomainMap, HeightProjection,
                    MapEscapedDomain, PointOutsideDomain, affine_contraction,
                    check_semicontraction, classify_orbit, identity_map,
                    iterate_many, map_from_spec, rotation_map)
from hypkob import dynamics
from hypkob.domain import _NEWTON_TOL

from conftest import EPS


def ray_point(foot, t):
    return foot * (1.0 - t)


def spread_starts(graph, t=0.2, n=6):
    idx = np.linspace(0, graph.nodes.shape[0] - 1, n).astype(int)
    return np.array([ray_point(graph.nodes[i], t) for i in idx])


# ---------------------------------------------------------------------------
# maps and iteration
# ---------------------------------------------------------------------------

def test_map_from_spec_round_trip():
    m = map_from_spec({"type": "identity"})
    assert m.name == "identity"
    m = map_from_spec({"type": "affine_contraction",
                       "p": [0.0, 0.0, 0.0, 0.0], "rate": 0.5})
    assert m.params["rate"] == 0.5
    m = map_from_spec({"type": "rotation", "angles": [0.7, 0.3]})
    assert m.params["angles"] == [0.7, 0.3]
    with pytest.raises(ConfigError):
        map_from_spec({"type": "unknown"})
    with pytest.raises(ConfigError):
        map_from_spec({"angles": [0.1]})
    with pytest.raises(ConfigError):
        affine_contraction(np.zeros(4), 1.2)


def test_identity_orbit_is_flat(projection, graph):
    x0 = ray_point(graph.nodes[17], 0.2)
    rec = iterate_many(identity_map(), projection, x0[None], n_max=60)[0]
    assert rec.points.shape == (61, 4)
    assert rec.heights.shape == (61,)
    assert np.all(np.abs(rec.heights - rec.heights[0]) < 1e-12)
    assert not rec.stopped_early


def test_contraction_to_center_deepens_orbits(projection, graph):
    F = affine_contraction(np.zeros(4), 0.5)
    starts = spread_starts(graph)
    recs = iterate_many(F, projection, starts, n_max=60)
    for rec in recs:
        assert np.all(np.diff(rec.heights) > -1e-12)
        assert rec.heights[-1] > 0.99


def test_escaping_map_raises(projection, graph):
    F = map_from_spec({"type": "affine_contraction",
                       "p": [0.0, 0.0, 0.0, 0.0], "rate": 0.5})
    F.fn = lambda X: 1.5 * np.atleast_2d(X)
    with pytest.raises(MapEscapedDomain):
        iterate_many(F, projection, ray_point(graph.nodes[4], 0.2)[None],
                     n_max=10)


# ---------------------------------------------------------------------------
# orbits stepped in blocks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ellipsoid_projection():
    dom = Domain.from_spec({"dimension": 4,
                            "defining_function": {"type": "ellipsoid",
                                                  "semi_axes": [1, 1, 0.7, 0.7]}})
    return HeightProjection(dom, 0.245)


def _one_step_at_a_time(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_STEPS", 1)
        return iterate_many(*args, **kwargs)


def _stop_steps(recs, projection):
    floor = 1e-6 * projection.epsilon
    return [int(np.argmax(r.heights**2 < floor)) if r.stopped_early else None
            for r in recs]


@pytest.mark.parametrize("case", ["ball_rotation", "ellipsoid_rotation",
                                  "boundary_contraction", "deep_contraction",
                                  "deep_contraction_77"])
def test_blocks_give_the_one_step_records(monkeypatch, projection,
                                          ellipsoid_projection, case):
    proj = ellipsoid_projection if case.startswith("ellipsoid") else projection
    F = {"ball_rotation": rotation_map([0.9, 0.4]),
         "ellipsoid_rotation": rotation_map([0.9, 0.4]),
         # the starts reach the floor at different steps, so blocks are cut
         "boundary_contraction": affine_contraction([0.6, 0.0, 0.0, 0.8], 0.8),
         # deep steps take chained seeds from the step before
         "deep_contraction": affine_contraction([0.1, 0.0, 0.0, 0.0], 0.5),
         "deep_contraction_77": affine_contraction([0.1, 0.0, 0.0, 0.0], 0.5),
         }[case]
    n_max = 77 if case.endswith("77") else 200
    assert n_max % dynamics._BLOCK_STEPS != 0
    starts = proj.domain.sample_interior(20, seed=0)
    got = iterate_many(F, proj, starts, n_max=n_max)
    want = _one_step_at_a_time(monkeypatch, F, proj, starts, n_max=n_max)
    for a, b in zip(got, want):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.heights, b.heights)
        assert a.stopped_early == b.stopped_early
        assert a.n_steps == b.n_steps
    if case == "boundary_contraction":
        stops = _stop_steps(got, proj)
        assert None not in stops and len(set(stops)) > 1


def _radial(cap):
    # |x| grows by 2 % a step up to cap; from |x| = 0.5 the step that would
    # pass |x| = 1 is step 36, the fourth of the second block of 32
    def fn(X):
        r = np.linalg.norm(X, axis=1, keepdims=True)
        return X * (np.minimum(1.02 * r, cap) / r)
    return DomainMap(fn=fn, name="radial")


@pytest.mark.parametrize("cap, error", [
    (np.inf, MapEscapedDomain),
    # rho = 4e-11 passes the map's containment check but not the
    # projection's exterior test
    (1.0 + 2e-11, PointOutsideDomain),
])
def test_block_that_raises_gives_the_one_step_error(monkeypatch, projection,
                                                    graph, cap, error):
    starts = np.array([0.5 * graph.nodes[0], 0.4 * graph.nodes[9]])
    with pytest.raises(error) as got:
        iterate_many(_radial(cap), projection, starts, n_max=60)
    with pytest.raises(error) as want:
        _one_step_at_a_time(monkeypatch, _radial(cap), projection, starts,
                            n_max=60)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("with_seeds", [False, True])
def test_stacked_projection_equals_chained_calls(projection,
                                                 ellipsoid_projection,
                                                 with_seeds):
    # deep ball orbit points use the seeds; ellipsoid rotation points the
    # cloud-seeded solve alone
    cases = [(projection, affine_contraction([0.1, 0.0, 0.0, 0.0], 0.5)),
             (ellipsoid_projection, rotation_map([0.9, 0.4]))]
    for shared, F in cases:
        proj = HeightProjection(shared.domain, shared.epsilon)
        starts = proj.domain.sample_interior(12, seed=3)
        recs = iterate_many(F, proj, starts, n_max=20)
        X = np.stack([r.points[1:] for r in recs], axis=1)  # (20, 12, 4)
        seeds = proj.project_batch(starts)[0] if with_seeds else None
        proj.counts = dict.fromkeys(proj.counts, 0)
        feet, dist = proj.project_batch(X, seed_feet=seeds)
        stacked = dict(proj.counts)
        proj.counts = dict.fromkeys(proj.counts, 0)
        assert feet.shape == X.shape and dist.shape == X.shape[:2]
        prev = seeds
        for t in range(X.shape[0]):
            f, d = proj.project_batch(X[t], seed_feet=prev)
            assert np.array_equal(f, feet[t]) and np.array_equal(d, dist[t])
            prev = f
        for key in ("points", "stuck_rows", "seeded_accepted",
                    "seeded_rejected", "fallback_points"):
            assert stacked[key] == proj.counts[key]


# ---------------------------------------------------------------------------
# orbit dichotomy
# ---------------------------------------------------------------------------

def test_identity_and_rotation_classify_bounded(projection, graph, family):
    starts = spread_starts(graph)
    for F in (identity_map(), rotation_map([0.7, 0.3])):
        recs = iterate_many(F, projection, starts, n_max=200)
        verdict = classify_orbit(family, recs)
        assert verdict.kind == "Bounded"
        assert verdict.point is None
        assert min(verdict.evidence["tail_min_heights"]) >= 0.05 * np.sqrt(EPS)


def test_boundary_collapse_classifies_converges(projection, graph, family):
    b = graph.nodes[123]
    F = affine_contraction(b, 0.8)
    starts = spread_starts(graph)
    recs = iterate_many(F, projection, starts, n_max=200)
    assert all(r.stopped_early for r in recs)
    verdict = classify_orbit(family, recs)
    assert verdict.kind == "ConvergesTo"
    assert np.linalg.norm(verdict.point - b) < 0.05
    assert verdict.evidence["projection_spread"] <= 1e-2


def test_dichotomy_never_inconclusive_on_reference_maps(projection, graph,
                                                        family):
    starts = spread_starts(graph)
    maps = [identity_map(), rotation_map([1.1, 0.4]),
            affine_contraction(np.zeros(4), 0.7),
            affine_contraction(graph.nodes[321], 0.8)]
    for F in maps:
        recs = iterate_many(F, projection, starts, n_max=200)
        verdict = classify_orbit(family, recs)
        assert verdict.kind in ("Bounded", "ConvergesTo")


def test_classification_guards(projection, graph, family):
    starts = spread_starts(graph)
    recs = iterate_many(identity_map(), projection, starts, n_max=200)
    with pytest.raises(ConfigError):
        classify_orbit(family, recs[:4])
    short = iterate_many(identity_map(), projection, starts, n_max=30)
    with pytest.raises(ConfigError):
        classify_orbit(family, short)


# ---------------------------------------------------------------------------
# semicontraction audit
# ---------------------------------------------------------------------------

def test_identity_audit_has_zero_defect(family):
    for kind in ("g", "d"):
        rep = check_semicontraction(identity_map(), family, kind,
                                    n_pairs=128, seed=1)
        assert rep["pass"]
        assert rep["max_defect"] <= 1e-12
        assert rep["violations"] == 0


def test_rotation_audit_within_snapping_slack(family):
    rep = check_semicontraction(rotation_map([0.7, 0.3]), family, "d",
                                n_pairs=128, seed=2)
    assert rep["pass"]
    assert not rep["escaped"]
    assert 0.8 < rep["ratio_q50"] < 1.2


def test_escaping_map_audit_reports_instead_of_raising(family):
    F = identity_map()
    F.fn = lambda X: 1.5 * np.atleast_2d(X)
    rep = check_semicontraction(F, family, "d", n_pairs=32, seed=0)
    assert rep["escaped"]
    assert not rep["pass"]
    assert "error" in rep


def test_audit_determinism_and_kind_guard(family):
    r1 = check_semicontraction(identity_map(), family, "d",
                               n_pairs=64, seed=9)
    r2 = check_semicontraction(identity_map(), family, "d",
                               n_pairs=64, seed=9)
    assert r1 == r2
    with pytest.raises(ConfigError):
        check_semicontraction(identity_map(), family, "euclidean")


def test_orbit_heights_match_projection(projection, graph):
    # the records keep the heights computed while stepping, and an orbit
    # frozen at the floor carries its last point and height forward
    b = graph.nodes[123]
    F = affine_contraction(b, 0.8)
    starts = np.vstack([spread_starts(graph, n=4), -0.3 * b, (1.0 - 1e-3) * b])
    recs = iterate_many(F, projection, starts, n_max=40)
    assert [r.stopped_early for r in recs] == [False] * 5 + [True]
    frozen = recs[-1]
    assert frozen.heights[-1] ** 2 < 1e-6 * EPS
    assert np.array_equal(frozen.points[-2], frozen.points[-1])
    assert frozen.heights[-2] == frozen.heights[-1]
    for rec in recs:
        assert rec.heights.shape == (rec.points.shape[0],)
        tol = _NEWTON_TOL * (1.0 + np.linalg.norm(rec.points, axis=1))
        gap = np.abs(rec.heights
                     - np.sqrt(projection.project_batch(rec.points)[1]))
        assert np.all(gap <= tol)
