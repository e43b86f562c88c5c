"""The composite witness path certifies ``d`` from above on collar pairs.

``dist --metric d`` reports the g-length of ``composite_upper_path`` as its
``upper`` column. On collar pairs that length is at least ``d``. Every
vertex of the path carries its foot and depth, so measuring it projects
nothing, and the construction depths agree with projected ones to well
within the quadrature tolerance.
"""

import numpy as np
import pytest

from hypkob import BoundaryGraph, Domain, HeightProjection, MetricFamily
from hypkob.metrics import Polyline, path_length

ELLIPSOID = {"dimension": 4,
             "defining_function": {"type": "ellipsoid",
                                   "semi_axes": [1.0, 1.0, 0.7, 0.7]}}
REL = 1e-9      # the rounding slack of the benchmark's d <= upper check


@pytest.fixture(scope="module")
def ellipsoid_family(structure):
    dom = Domain.from_spec(ELLIPSOID)
    graph = BoundaryGraph.build(dom, structure, n_nodes=600, k_neighbors=10,
                                anisotropy=8.0, seed=1)
    return MetricFamily(HeightProjection(dom, 0.245), graph)


def _collar_pairs(family, n, seed):
    """Boundary points moved inward along the normal by h^2, in pairs."""
    dom = family.graph.domain
    rng = np.random.default_rng(seed)
    feet = dom.sample_boundary(2 * n, seed=seed)
    h = rng.uniform(0.06, np.sqrt(0.9 * family.eps), 2 * n)
    pts = feet - (h * h)[:, None] * dom.outward_normal(feet)
    return pts[0::2], pts[1::2]


def _g_length(family, pl):
    return path_length(pl, family.functional("g"), rel_tol=1e-4, max_depth=8)


@pytest.mark.parametrize("which", ["ball", "ellipsoid"])
def test_witness_path_bounds_d_and_projects_nothing(family, ellipsoid_family,
                                                    which, monkeypatch):
    fam = family if which == "ball" else ellipsoid_family
    X, Y = _collar_pairs(fam, 40, seed=7)
    built = [fam.composite_upper_path(x, y) for x, y in zip(X, Y)]
    calls = []
    real = fam.projection.project_batch

    def counted(P, seed_feet=None):
        calls.append(np.atleast_2d(P).shape[0])
        return real(P, seed_feet=seed_feet)

    monkeypatch.setattr(fam.projection, "project_batch", counted)
    lengths = [_g_length(fam, pl) for pl, _ in built]
    assert calls == []
    monkeypatch.undo()
    for (pl, d), up in zip(built, lengths):
        assert d <= up + REL * max(1.0, d, up)
        # the same vertices, projected instead of carried
        bare = Polyline(pl.points, frame_nodes=pl.frame_nodes,
                        vertical=pl.vertical)
        assert abs(_g_length(fam, bare) - up) <= 1e-8 * up


def test_batched_witness_paths_equal_the_one_pair_calls(family):
    X, Y = _collar_pairs(family, 12, seed=3)
    paths, dval = family.composite_upper_paths(family.prepare(X),
                                               family.prepare(Y))
    for x, y, pl, d in zip(X, Y, paths, dval):
        one, d1 = family.composite_upper_path(x, y)
        assert d == d1
        assert np.array_equal(pl.points, one.points)
        assert np.array_equal(pl.frame_nodes, one.frame_nodes)
        assert np.array_equal(pl.vertical, one.vertical)
        assert np.array_equal(pl.prepared.depth, one.prepared.depth)
