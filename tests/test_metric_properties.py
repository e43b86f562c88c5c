"""Metric properties of ``g`` and ``d`` on random interior points.

``g`` and ``d`` are symmetric, and ``d`` satisfies the triangle
inequality, on the unit ball and on the (1, 1, 0.7, 0.7) ellipsoid. Points
are drawn anywhere in the domain: ``r a u`` for a unit direction ``u``,
the semi-axes ``a`` and a radius fraction ``r`` in ``[0, 1)``, so collar
points, deep points and the centre all occur. Both properties hold to
rounding only: a snapped separation reads Dijkstra's row of one endpoint
at the other, and the two directions of a shortest path sum its edges in
opposite orders.

A radius fraction just below 1 can round onto the boundary, at depth 0.
``prepare`` refuses such a point (``PointOutsideDomain``); the test then
checks that its depth really is 0 or less and rejects the draw.
``_ON_BOUNDARY`` pins one: the origin against a point whose radius
rounds to 1 on the ball, where ``g`` and ``d`` would be infinite both ways.
"""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from hypkob import (BoundaryGraph, Domain, HeightProjection, MetricFamily,
                    PointOutsideDomain, reach_details, standard_structure)

_AXES = {"ball": [1.0, 1.0, 1.0, 1.0], "ellipsoid": [1.0, 1.0, 0.7, 0.7]}
_FIELDS = {"ball": {"type": "ball"},
           "ellipsoid": {"type": "ellipsoid", "semi_axes": _AXES["ellipsoid"]}}

# relative rounding allowed in symmetry and in the triangle inequality
_REL = 1e-12


@pytest.fixture(scope="module", params=sorted(_AXES))
def setup(request):
    domain = Domain.from_spec({"dimension": 4,
                               "defining_function": _FIELDS[request.param]})
    graph = BoundaryGraph.build(domain, standard_structure(4), n_nodes=400,
                                k_neighbors=10, anisotropy=8.0, seed=0)
    projection = HeightProjection(domain, reach_details(domain).epsilon)
    return np.asarray(_AXES[request.param]), MetricFamily(projection, graph)


_unit = st.floats(-1.0, 1.0)
_direction = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda v: np.linalg.norm(v) > 1e-3)
_point = st.tuples(_direction, st.floats(0.0, 1.0, exclude_max=True))


_ON_BOUNDARY = (((1.0, 0.0, 0.0, 0.0), 0.0),
                ((0.0, 1.0, 1.0, 1.0), 0.9999999999999999))


def _prepare(setup, points):
    axes, fam = setup
    X = np.array([r * axes * np.asarray(u) / np.linalg.norm(u)
                  for u, r in points])
    prepared = []
    for x in X:
        try:
            prepared.append(fam.prepare(x))
        except PointOutsideDomain:
            assert fam.projection.project_batch(x)[1][0] <= 0
            reject()
    return fam, prepared


@settings(max_examples=60)
@given(points=st.tuples(_point, _point))
@example(points=_ON_BOUNDARY)
def test_g_is_symmetric(setup, points):
    fam, (a, b) = _prepare(setup, points)
    ab, ba = fam.g_pairs(a, b)[0], fam.g_pairs(b, a)[0]
    assert abs(ab - ba) <= _REL * max(abs(ab), 1.0)


@settings(max_examples=60)
@given(points=st.tuples(_point, _point))
@example(points=_ON_BOUNDARY)
def test_d_is_symmetric(setup, points):
    fam, (a, b) = _prepare(setup, points)
    ab, ba = fam.d_pairs(a, b)[0], fam.d_pairs(b, a)[0]
    assert abs(ab - ba) <= _REL * max(abs(ab), 1.0)


@settings(max_examples=60)
@given(points=st.tuples(_point, _point, _point))
def test_d_triangle_inequality(setup, points):
    fam, (x, y, z) = _prepare(setup, points)
    xy, yz, xz = (fam.d_pairs(p, q)[0] for p, q in ((x, y), (y, z), (x, z)))
    assert xz <= xy + yz + _REL * (xy + yz + 1.0)
