import pytest
from hypothesis import settings

from hypkob import (Domain, HeightProjection, BoundaryGraph, MetricFamily,
                    standard_structure)

EPS = 0.5

# every property test replays the same examples: no deadline, derandomized,
# no example database; each test sets only its own max_examples
settings.register_profile("hypkob", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("hypkob")


@pytest.fixture(scope="session")
def ball():
    return Domain.from_spec({"dimension": 4,
                             "defining_function": {"type": "ball"}})


@pytest.fixture(scope="session")
def structure():
    return standard_structure(4)


@pytest.fixture(scope="session")
def projection(ball):
    return HeightProjection(ball, EPS)


@pytest.fixture(scope="session")
def graph(ball, structure):
    return BoundaryGraph.build(ball, structure, n_nodes=500, k_neighbors=10,
                               anisotropy=8.0, seed=0)


@pytest.fixture(scope="session")
def family(projection, graph):
    return MetricFamily(projection, graph)


@pytest.fixture(scope="session")
def ellipsoid():
    return Domain.from_spec({
        "dimension": 4,
        "defining_function": {"type": "ellipsoid",
                              "semi_axes": [2.0, 1.0, 1.0, 1.0]},
    })
