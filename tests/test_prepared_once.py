"""Each point is prepared once, and ``prepare`` keeps no state.

``MetricFamily.prepare`` is one ``project_batch`` and one ``snap``, so its
result depends on its input alone. Points built with known feet (the
boundary-biased sampler's) are passed along prepared, so ``delta`` and
``qi --metric d`` project none of them, and neither does the estimate's
``LayeredSolver``; a ``Bounded`` orbit verdict is read from the heights
alone.
"""

import json

import numpy as np

from hypkob import LayeredSolver, MetricFamily, affine_contraction, iterate_many
from hypkob.cli import main
from hypkob.dynamics import classify_orbit
from hypkob.gromov import BoundaryBiasedSampler, four_point_delta

from conftest import EPS


def _fields(P):
    return (P.points, P.feet, P.depth, P.height, P.node, P.heff, P.extra)


def test_prepare_is_history_independent(projection, graph):
    rng = np.random.default_rng(3)
    u = rng.standard_normal((40, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    Y = u * (1.0 - rng.uniform(0.01, 0.4, 40))[:, None]
    X = Y + 3e-13 * rng.standard_normal(Y.shape)
    fam = MetricFamily(projection, graph)
    fam.prepare(X)
    got = fam.prepare(Y)
    ref = MetricFamily(projection, graph).prepare(Y)
    for a, b in zip(_fields(got), _fields(ref)):
        assert np.array_equal(a, b)
    assert np.array_equal(got.depth,
                          np.linalg.norm(got.points - got.feet, axis=-1))


def test_four_point_delta_projects_no_pool_point(family):
    for kind in ("g", "d"):
        before = family.projection.counts["points"]
        rep = four_point_delta(family, kind,
                               BoundaryBiasedSampler(family, seed=4),
                               n_quadruples=2000, seed=4)
        assert np.isfinite(rep.delta)
        assert family.projection.counts["points"] == before


def test_prepared_pool_of_another_family_is_prepared_again(family, projection,
                                                           graph):
    pool = BoundaryBiasedSampler(family, seed=2).sample(30)
    assert family.as_prepared(pool) is pool
    other = MetricFamily(projection, graph)
    again = other.as_prepared(pool)
    assert again is not pool and again.owner is other
    assert np.array_equal(again.points, pool.points)


def test_solver_projects_only_a_foreign_pool(family, projection, graph,
                                            monkeypatch):
    solver = LayeredSolver(family, "kobayashi")
    own = BoundaryBiasedSampler(family, seed=2).sample(30)
    foreign = BoundaryBiasedSampler(MetricFamily(projection, graph),
                                    seed=2).sample(30)
    calls = []
    real = projection.project_batch

    def counted(X, seed_feet=None):
        calls.append(np.atleast_2d(X).shape[0])
        return real(X, seed_feet=seed_feet)

    monkeypatch.setattr(projection, "project_batch", counted)
    D = solver.distances(own)
    assert calls == []
    assert D.shape == (30, 30) and np.all(np.isfinite(D))
    solver.distances(foreign)
    assert calls == [30]


def test_qi_d_projects_nothing(tmp_path):
    cfg = tmp_path / "ball.json"
    cfg.write_text(json.dumps({
        "domain": {"dimension": 4, "defining_function": {"type": "ball"}},
        "epsilon": EPS, "graph": {"n_nodes": 200, "k_neighbors": 8}}))
    out = tmp_path / "qi"
    assert main(["qi", "--metric", "d", "--config", str(cfg),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert manifest["counters"]["projection"]["points"] == 0
    assert report["estimate_C"] == report["Cprime"]


def test_bounded_verdict_projects_nothing(family, projection, ball):
    starts = ball.sample_interior(8, seed=1)
    orbits = iterate_many(affine_contraction(np.zeros(4), 0.5), projection,
                          starts, n_max=60)
    before = projection.counts["points"]
    verdict = classify_orbit(family, orbits)
    assert verdict.kind == "Bounded"
    assert projection.counts["points"] == before
