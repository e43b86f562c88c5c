import numpy as np
import pytest

from hypkob import (ConfigError, MapEscapedDomain, affine_contraction,
                    check_semicontraction, classify_orbit, identity_map,
                    iterate_many, map_from_spec, rotation_map)

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


def test_identity_orbit_is_flat(projection, graph, family):
    x0 = ray_point(graph.nodes[17], 0.2)
    fn = family.functional("g")
    rec = iterate_many(identity_map(), projection, x0[None], n_max=60,
                       functional=fn, omega=np.zeros(4))[0]
    assert rec.points.shape == (61, 4)
    assert rec.heights.shape == (61,)
    assert rec.base_trace.shape == (61,)
    assert np.all(np.abs(rec.heights - rec.heights[0]) < 1e-12)
    assert np.all(np.abs(rec.base_trace - rec.base_trace[0]) < 1e-12)
    assert not rec.stopped_early


def test_trace_requires_basepoint(projection, graph, family):
    with pytest.raises(ConfigError):
        iterate_many(identity_map(), projection,
                     ray_point(graph.nodes[0], 0.2)[None], n_max=60,
                     functional=family.functional("g"))


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
        rep = check_semicontraction(identity_map(), family.functional(kind),
                                    n_pairs=128, seed=1)
        assert rep["pass"]
        assert rep["max_defect"] <= 1e-12
        assert rep["violations"] == 0


def test_rotation_audit_within_snapping_slack(family):
    rep = check_semicontraction(rotation_map([0.7, 0.3]),
                                family.functional("d"), n_pairs=128, seed=2)
    assert rep["pass"]
    assert not rep["escaped"]
    assert 0.8 < rep["ratio_q50"] < 1.2


def test_escaping_map_audit_reports_instead_of_raising(family):
    F = identity_map()
    F.fn = lambda X: 1.5 * np.atleast_2d(X)
    rep = check_semicontraction(F, family.functional("d"), n_pairs=32, seed=0)
    assert rep["escaped"]
    assert not rep["pass"]
    assert "error" in rep


def test_audit_determinism_and_kind_guard(family):
    r1 = check_semicontraction(identity_map(), family.functional("d"),
                               n_pairs=64, seed=9)
    r2 = check_semicontraction(identity_map(), family.functional("d"),
                               n_pairs=64, seed=9)
    assert r1 == r2
    with pytest.raises(ConfigError):
        check_semicontraction(identity_map(), family.functional("euclidean"))


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
        tol = projection.newton_tol * (1.0 + np.linalg.norm(rec.points, axis=1))
        gap = np.abs(rec.heights
                     - np.sqrt(projection.project_batch(rec.points)[1]))
        assert np.all(gap <= tol)
