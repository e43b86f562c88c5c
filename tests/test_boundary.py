import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from hypkob import (BoundaryGraph, BoundaryMap, ConfigError, Domain,
                    GraphDisconnected, ImageOffBoundary, lipschitz_details)
from hypkob import boundary
from hypkob.boundary import _farthest_point_subset


def _greedy_reference(cand, n, seed):
    """Unpruned greedy farthest-point loop: every step updates every candidate."""
    rng = np.random.default_rng(seed)
    m = cand.shape[0]
    if n >= m:
        return cand
    start = int(rng.integers(m))
    chosen = np.empty(n, dtype=int)
    chosen[0] = start
    mind = np.linalg.norm(cand - cand[start], axis=-1)
    for t in range(1, n):
        nxt = int(np.argmax(mind))
        chosen[t] = nxt
        np.minimum(mind, np.linalg.norm(cand - cand[nxt], axis=-1), out=mind)
    return cand[np.sort(chosen)]


def _ellipsoid_0707():
    return Domain.from_spec({
        "dimension": 4,
        "defining_function": {"type": "ellipsoid",
                              "semi_axes": [1.0, 1.0, 0.7, 0.7]},
    })


@pytest.fixture(scope="module")
def iso_graph(ball, structure):
    return BoundaryGraph.build(ball, structure, n_nodes=200, k_neighbors=8,
                               anisotropy=1.0, seed=3)


def test_unit_anisotropy_weights_are_chords(iso_graph):
    ii, jj, _, horiz, trans = iso_graph.edge_components()
    chords = np.linalg.norm(iso_graph.nodes[ii] - iso_graph.nodes[jj], axis=1)
    assert np.allclose(np.sqrt(horiz**2 + trans**2), chords, atol=1e-12)
    w = np.asarray(iso_graph.adjacency[ii, jj]).ravel()
    assert np.allclose(w, chords, atol=1e-12)


def test_weights_monotone_in_anisotropy(ball, structure, iso_graph):
    g8 = BoundaryGraph.build(ball, structure, n_nodes=200, k_neighbors=8,
                             anisotropy=8.0, seed=3)
    assert np.array_equal(g8.nodes, iso_graph.nodes)
    ii, jj = iso_graph.edge_components()[:2]
    w1 = np.asarray(iso_graph.adjacency[ii, jj]).ravel()
    w8 = np.asarray(g8.adjacency[ii, jj]).ravel()
    chords = np.linalg.norm(g8.nodes[ii] - g8.nodes[jj], axis=1)
    assert np.all(w8 >= w1 - 1e-12)
    assert np.all(w8 >= chords - 1e-12)
    i, j = int(ii[0]), int(jj[-1])
    assert g8.distance_nodes(i, j) >= iso_graph.distance_nodes(i, j) - 1e-12


def test_anisotropy_below_one_rejected(ball, structure):
    with pytest.raises(ConfigError):
        BoundaryGraph.build(ball, structure, n_nodes=64, k_neighbors=6,
                            anisotropy=0.5, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_farthest_point_subset_equals_greedy_loop(ball, seed):
    for dom in (ball, _ellipsoid_0707()):
        cand = dom.sample_boundary(1200, seed=seed, quasi=True)
        got = _farthest_point_subset(cand, 300, seed)
        assert np.array_equal(got, _greedy_reference(cand, 300, seed))


def _reflect(points, v):
    """Householder reflection by elementwise sums, so its rounding is portable."""
    v = np.asarray(v, dtype=float)
    H = np.eye(v.size) - 2.0 * v[:, None] * v[None, :] / np.sum(v * v)
    return np.sum(points[:, :, None] * H[None, :, :], axis=1)


def test_farthest_point_subset_equals_greedy_loop_on_ties():
    grid = np.arange(5.0)
    lattice = np.stack(np.meshgrid(grid, grid, grid, grid, indexing="ij"),
                       axis=-1).reshape(-1, 4)
    cube = np.array(list(itertools.product([0.0, 1.0], repeat=8)))
    cases = [
        # an integer lattice: many distances tie exactly, so the first
        # index of the largest value must win as in the full loop
        (lattice, [(300, 0), (300, 5), (624, 2)]),
        # the same lattice reflected: "equal" distances differ in the last
        # bits, so any other distance expression picks other nodes
        (_reflect(0.1 * lattice, [1, -2, 3, 1]), [(300, 0), (300, 5)]),
        # a reflected 8-cube: in 8 dimensions the tree's squared distances
        # round differently from the norm, and without the pruning margin
        # it leaves out a candidate whose minimum the full loop lowers
        (_reflect(0.3 * cube, [-3, 2, 1, 2, -4, 2, 5, 3]),
         [(110, 0), (80, 1), (255, 0)]),
    ]
    for cand, runs in cases:
        for n, seed in runs:
            got = _farthest_point_subset(cand, n, seed)
            assert np.array_equal(got, _greedy_reference(cand, n, seed))
        for n in (cand.shape[0], cand.shape[0] + 5):
            assert _farthest_point_subset(cand, n, 0) is cand


def test_rows_from_columns_gathers_the_stacked_entries(graph):
    rng = np.random.default_rng(12)
    m = graph.nodes.shape[0]
    src = rng.integers(0, m, size=40)
    dst = rng.integers(0, m, size=40)
    full = graph.rows_from(src)
    assert np.array_equal(graph.rows_from(src, columns=dst), full[:, dst])
    assert np.array_equal(graph.rows_from(src, columns=dst[:, None])[:, 0],
                          full[np.arange(40), dst])
    assert graph.distance_nodes(src[3], dst[5]) == full[3, dst[5]]


@pytest.mark.parametrize("which", ["ball", "ellipsoid"])
def test_rows_and_geodesics_equal_undirected_dijkstra(graph, structure, which):
    if which == "ball":
        src = graph
    else:
        src = BoundaryGraph.build(_ellipsoid_0707(), structure, n_nodes=300,
                                  k_neighbors=10, anisotropy=8.0, seed=4)
    # a fresh row cache, so every row below is computed here
    g = BoundaryGraph(src.domain, src.structure, src.nodes, src.adjacency,
                      src.params)
    m = g.nodes.shape[0]
    sources = np.arange(0, m, 7)
    ref = dijkstra(g.adjacency, directed=False, indices=sources)
    assert np.array_equal(g.rows_from(sources), ref)
    rng = np.random.default_rng(21)
    for i, j in rng.integers(0, m, size=(25, 2)):
        dist, pred = dijkstra(g.adjacency, directed=False, indices=int(i),
                              return_predecessors=True)
        path = [int(j)]
        while path[-1] != i:
            path.append(int(pred[path[-1]]))
        nodes, total = g.geodesic(g.nodes[i], g.nodes[j])
        assert np.array_equal(nodes, g.nodes[np.array(path[::-1])])
        assert total == dist[j]


def test_batched_dijkstra_predecessors_equal_single_source(ball, structure):
    # caching predecessors with the distance rows would keep geodesics
    # unchanged only if a batched call breaks ties as a single-source one
    g = BoundaryGraph.build(ball, structure, n_nodes=2000, k_neighbors=12,
                            anisotropy=8.0, seed=2)
    sources = np.random.default_rng(5).choice(2000, size=200, replace=False)
    dist, pred = dijkstra(g.adjacency, directed=True, indices=sources,
                          return_predecessors=True)
    for k, i in enumerate(sources):
        d1, p1 = dijkstra(g.adjacency, directed=True, indices=int(i),
                          return_predecessors=True)
        assert np.array_equal(pred[k], p1)
        assert np.array_equal(dist[k], d1)


@pytest.mark.parametrize("which", ["ball", "ellipsoid"])
def test_walk_back_equals_scipy_predecessor_paths(ball, structure, which):
    # the 2,000-node ball graph of the collar benchmark and a 1,200-node
    # (1, 1, 0.7, 0.7) ellipsoid graph; 50 sources x 20 targets each
    if which == "ball":
        g = BoundaryGraph.build(ball, structure, n_nodes=2000,
                                k_neighbors=12, anisotropy=8.0, seed=2)
    else:
        g = BoundaryGraph.build(_ellipsoid_0707(), structure, n_nodes=1200,
                                k_neighbors=12, anisotropy=8.0, seed=4)
    m = g.nodes.shape[0]
    rng = np.random.default_rng(17)
    sources = rng.choice(m, size=50, replace=False)
    _, pred = dijkstra(g.adjacency, directed=True, indices=sources,
                       return_predecessors=True)
    n_pairs = 0
    for k, i in enumerate(sources):
        for j in rng.choice(m, size=20, replace=False):
            ref = [int(j)]
            while ref[-1] != i:
                ref.append(int(pred[k, ref[-1]]))
            assert np.array_equal(g.geodesic_nodes(i, j), ref[::-1])
            n_pairs += 1
    assert n_pairs >= 1000


def test_geodesic_after_rows_from_runs_no_dijkstra(graph, monkeypatch):
    g = BoundaryGraph(graph.domain, graph.structure, graph.nodes,
                      graph.adjacency, graph.params)
    g.rows_from([5, 77])
    calls = []
    real = boundary.dijkstra

    def counted(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "dijkstra", counted)
    nodes, total = g.geodesic(g.nodes[5], g.nodes[300])
    path = g.geodesic_nodes(77, 12)
    assert calls == []
    assert total == g.rows_from([5])[0, 300]
    assert np.array_equal(nodes, g.nodes[g.geodesic_nodes(5, 300)])
    assert path[0] == 77 and path[-1] == 12
    # a source without a cached row computes it once, then reuses it
    g.geodesic_nodes(40, 12)
    g.geodesic_nodes(40, 300)
    assert calls == [[40]]


def test_geodesic_across_components_raises(ball, structure):
    # two chains of four nodes, symmetric and passed in directly
    nodes = ball.sample_boundary(8, seed=0)
    ii = np.array([0, 1, 2, 4, 5, 6])
    jj = ii + 1
    w = np.ones(ii.size)
    A = csr_matrix((np.concatenate([w, w]),
                    (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
                   shape=(8, 8))
    g = BoundaryGraph(ball, structure, nodes, A, {"anisotropy": 8.0})
    assert np.array_equal(g.geodesic_nodes(0, 3), [0, 1, 2, 3])
    with pytest.raises(GraphDisconnected):
        g.geodesic_nodes(1, 5)
    with pytest.raises(GraphDisconnected):
        g.geodesic(nodes[0], nodes[6])


def test_distance_dominates_straight_chord(graph):
    rng = np.random.default_rng(8)
    m = graph.nodes.shape[0]
    for _ in range(20):
        i, j = rng.integers(0, m, size=2)
        lo = np.linalg.norm(graph.nodes[i] - graph.nodes[j])
        assert graph.distance_nodes(int(i), int(j)) >= lo - 1e-12


def test_geodesic_matches_distance(graph):
    p = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1.0, 0.0])
    nodes, total = graph.geodesic(p, q)
    i, j = graph.snap(np.stack([p, q]))
    assert total == graph.distance_nodes(i, j)
    poly, _ = graph.geodesic(p, q)
    assert np.array_equal(poly, nodes)
    assert np.array_equal(nodes[0], graph.nodes[int(i)])
    assert np.array_equal(nodes[-1], graph.nodes[int(j)])
    # summed edge weights reproduce the Dijkstra total
    steps = [float(graph.adjacency[a, b]) for a, b in
             zip(graph.snap(nodes[:-1]), graph.snap(nodes[1:]))]
    assert abs(sum(steps) - total) < 1e-10


def test_distance_symmetry_and_identity(graph):
    assert graph.distance_nodes(17, 17) == 0.0
    assert abs(graph.distance_nodes(17, 311)
               - graph.distance_nodes(311, 17)) < 1e-9


def test_local_distance_resolves_small_scales(graph):
    base = np.array([1.0, 0.0, 0.0, 0.0])
    th = 0.01
    near = np.array([np.cos(th), np.sin(th), 0.0, 0.0])
    dloc = graph.distance_local(base, near)
    assert dloc > 0.0
    direct = float(graph.chord_cost(base[None], near[None])[0])
    assert dloc <= direct + 1e-12
    batch = graph.distance_local_batch(base[None], near[None])
    assert batch.shape == (1,)
    assert abs(batch[0] - graph.distance_local(base, near, k=6)) < 1e-9


def test_save_load_round_trip(graph, tmp_path):
    path = str(tmp_path / "graph.npz")
    graph.save(path)
    back = BoundaryGraph.load(path, graph.domain, graph.structure)
    assert np.array_equal(back.nodes, graph.nodes)
    assert back.params == graph.params
    assert back.distance_nodes(3, 77) == graph.distance_nodes(3, 77)


def test_refinement_increments_level(ball, structure):
    g = BoundaryGraph.build(ball, structure, n_nodes=100, k_neighbors=8,
                            anisotropy=8.0, seed=1)
    assert g.params.get("refinement_level", 0) == 0
    g2 = g.refine()
    assert g2.params["refinement_level"] == 1
    assert g2.nodes.shape[0] == 2 * g.nodes.shape[0]
    assert g2.params["anisotropy"] == g.params["anisotropy"]


def test_antipodal_distance_stabilizes(ball, structure):
    p = np.array([1.0, 0.0, 0.0, 0.0])
    g = BoundaryGraph.build(ball, structure, n_nodes=300, k_neighbors=10,
                            anisotropy=8.0, seed=2)
    d1, d2 = (h.distance_nodes(*h.snap(np.stack([p, -p])))
              for h in (g, g.refine()))
    assert np.isfinite(d1) and d1 >= 2.0 - 1e-9
    assert abs(d2 - d1) / d1 < 0.25


def test_lipschitz_identity_is_one(graph):
    ident = BoundaryMap(lambda X: X, name="identity")
    rep = lipschitz_details(graph, graph, ident, n_pairs=512, seed=0)
    assert rep.ratio == 1.0
    assert rep.n_pairs > 0
    assert lipschitz_details(graph, graph, ident, n_pairs=512,
                             seed=0).ratio == 1.0


def test_lipschitz_rotation_near_one(graph):
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s, 0, 0], [s, c, 0, 0],
                  [0, 0, c, -s], [0, 0, s, c]])
    rot = BoundaryMap(lambda X: X @ R.T, name="rotation")
    ratio = lipschitz_details(graph, graph, rot, n_pairs=1024, seed=1).ratio
    assert 0.5 < ratio < 2.0


def test_lipschitz_constant_map_collapses(graph):
    target = graph.nodes[0]
    const = BoundaryMap(lambda X: np.broadcast_to(target, X.shape).copy(),
                        name="constant")
    ratio = lipschitz_details(graph, graph, const, n_pairs=256, seed=0).ratio
    assert ratio == 0.0


def test_off_boundary_image_rejected(graph):
    shrink = BoundaryMap(lambda X: 0.8 * X, name="shrink")
    with pytest.raises(ImageOffBoundary):
        lipschitz_details(graph, graph, shrink, n_pairs=64, seed=0)
