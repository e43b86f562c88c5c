"""The composite witness path certifies ``d`` from above on collar pairs.

``dist --metric d`` reports the g-length of ``composite_upper_path`` as its
``upper`` column. On collar pairs that length is at least ``d``, and it is
the sum of the g-lengths of the path's segments, each measured alone.
Every vertex of the path carries its foot and depth, so measuring it
projects nothing, and the construction feet and depths agree with
projected ones.
"""

import numpy as np
import pytest

from hypkob import BoundaryGraph, Domain, HeightProjection, MetricFamily
from hypkob.metrics import path_length

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


def _hop_pairs(family, n, seed):
    """Ball pairs whose feet differ but snap to one node, the second point
    farther from the boundary: ``W`` is 0, so the peak is the second
    point's height, and its path climbs the first ray to that shell and
    ends with a hop on it between the two feet."""
    graph = family.graph
    rng = np.random.default_rng(seed)
    X, Y = [], []
    for k in rng.choice(graph.nodes.shape[0], n, replace=False):
        f = graph.nodes[k]
        v = rng.standard_normal((2, 4))
        v -= np.outer(v @ f, f)
        feet = f + 0.02 * v / np.linalg.norm(v, axis=-1, keepdims=True)
        feet /= np.linalg.norm(feet, axis=-1, keepdims=True)
        assert np.all(graph.snap(feet) == k)
        X.append((1.0 - 0.1 ** 2) * feet[0])
        Y.append((1.0 - 0.25 ** 2) * feet[1])
    return np.array(X), np.array(Y)


def _g_length(family, path):
    return path_length(path, family, "g")


@pytest.mark.parametrize("which", ["ball", "ellipsoid", "hop"])
def test_witness_path_bounds_d_and_projects_nothing(family, ellipsoid_family,
                                                    which, monkeypatch):
    fam = ellipsoid_family if which == "ellipsoid" else family
    if which == "hop":
        X, Y = _hop_pairs(fam, 8, seed=2)
    else:
        X, Y = _collar_pairs(fam, 40, seed=7)
    built = [fam.composite_upper_path(x, y) for x, y in zip(X, Y)]
    calls = []
    real = fam.projection.project_batch

    def counted(P, seed_feet=None):
        calls.append(np.atleast_2d(P).shape[0])
        return real(P, seed_feet=seed_feet)

    monkeypatch.setattr(fam.projection, "project_batch", counted)
    lengths = [_g_length(fam, path) for path, _ in built]
    assert calls == []
    monkeypatch.undo()
    for (path, d), up in zip(built, lengths):
        assert d <= up + REL * max(1.0, d, up)
        if which == "hop":
            assert len(path) == 3
        # each segment measured alone: a hop on the peak shell between two
        # feet costs its chord, wherever it sits in the path
        alone = sum(_g_length(fam, path.take([k, k + 1]))
                    for k in range(len(path) - 1))
        assert abs(alone - up) <= 1e-12 * up
        # the carried feet and depths are those projection gives; the
        # feet agree to Newton's tolerance, not bit for bit, and a shell
        # segment's midpoint sits near a tie between its two end nodes,
        # so a projected foot may pick the other frame
        P = fam.prepare(path.points)
        assert np.abs(P.feet - path.feet).max() <= 1e-9
        assert np.allclose(P.depth, path.depth, rtol=1e-12, atol=0)


def test_batched_witness_paths_equal_the_one_pair_calls(family):
    X, Y = _collar_pairs(family, 12, seed=3)
    paths, dval = family.composite_upper_paths(family.prepare(X),
                                               family.prepare(Y))
    for x, y, path, d in zip(X, Y, paths, dval):
        one, d1 = family.composite_upper_path(x, y)
        assert d == d1
        assert np.array_equal(path.points, one.points)
        assert np.array_equal(path.feet, one.feet)
        assert np.array_equal(path.depth, one.depth)
