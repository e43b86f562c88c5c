"""Dijkstra rows spread over forked children equal one serial call.

``boundary.shortest_rows`` cuts a large batch of sources into slices, one
per CPU, and forks a child per extra slice. Its rows must be those of one
``dijkstra(A, directed=True, indices=sources)`` call bit for bit, whether
a child works, fails or cannot be forked, and no child may outlive the
call. The tests pin two CPUs, so the forked path runs on any machine.
"""

import json
import os

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from hypkob import BoundaryGraph, LayeredSolver, boundary
from hypkob.cli import main


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture(scope="module")
def ball_graph(ball, structure):
    return BoundaryGraph.build(ball, structure, n_nodes=2000, k_neighbors=10,
                               anisotropy=8.0, seed=0)


@pytest.fixture(scope="module")
def ellipsoid_graph(ellipsoid, structure):
    return BoundaryGraph.build(ellipsoid, structure, n_nodes=1000,
                               k_neighbors=10, anisotropy=8.0, seed=1)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shared_mappings():
    """Shared writable mappings of this process (Linux), as map lines."""
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return [line for line in fh if line.split()[1].endswith("s")]


def sources_above_floor(A, seed=0):
    k = 2 * boundary._FORK_WORK // A.nnz + 1
    return np.random.default_rng(seed).choice(A.shape[0], size=k,
                                              replace=False)


def count_forks(monkeypatch):
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("which", ["ball_graph", "ellipsoid_graph"])
def test_rows_equal_one_serial_call(request, two_cpus, monkeypatch, which):
    A = request.getfixturevalue(which).adjacency
    src = sources_above_floor(A)
    forks = count_forks(monkeypatch)
    counts = boundary.dijkstra_counts()
    before = shared_mappings()
    got = boundary.shortest_rows(A, src, counts)
    assert_no_children()
    # the shared output buffer is unmapped before the call returns
    assert shared_mappings() == before
    want = dijkstra(A, directed=True, indices=src)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert forks == [1]
    assert counts == {"calls": 1, "rows": src.size,
                      "child_rows": src.size - src.size // 2}


def test_ladder_rows_equal_one_serial_call(family, two_cpus, monkeypatch):
    ladder = LayeredSolver(family, "kobayashi")
    graph = family.graph
    rng = np.random.default_rng(5)
    idx = rng.integers(0, graph.nodes.shape[0], size=24)
    pool = graph.nodes[idx] * (1.0 - (0.01 + 0.4 * rng.random((24, 1))))
    forked = ladder.distances(pool)
    assert_no_children()
    assert ladder.dijkstra_counts["child_rows"] == 12
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = ladder.distances(pool)
    assert ladder.dijkstra_counts == {"calls": 2, "rows": 48,
                                      "child_rows": 12}
    assert forked.tobytes() == serial.tobytes()


def test_failed_child_leaves_its_slice_to_the_parent(ball_graph, two_cpus,
                                                     monkeypatch):
    A = ball_graph.adjacency
    src = sources_above_floor(A, seed=1)
    want = dijkstra(A, directed=True, indices=src)
    parent = os.getpid()
    real = boundary.dijkstra

    def parent_only(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError("child fails")
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "dijkstra", parent_only)
    counts = boundary.dijkstra_counts()
    got = boundary.shortest_rows(A, src, counts)
    assert_no_children()
    assert got.tobytes() == want.tobytes()
    assert counts["child_rows"] == 0


def test_fork_that_raises_leaves_its_slice_to_the_parent(ball_graph,
                                                         two_cpus,
                                                         monkeypatch):
    A = ball_graph.adjacency
    src = sources_above_floor(A, seed=2)
    want = dijkstra(A, directed=True, indices=src)

    def no_fork():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", no_fork)
    counts = boundary.dijkstra_counts()
    got = boundary.shortest_rows(A, src, counts)
    assert_no_children()
    assert got.tobytes() == want.tobytes()
    assert counts["child_rows"] == 0


def test_parent_failure_reaps_the_children(ball_graph, two_cpus,
                                           monkeypatch):
    A = ball_graph.adjacency
    parent = os.getpid()
    real = boundary.dijkstra

    def child_only(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "dijkstra", child_only)
    with pytest.raises(KeyboardInterrupt):
        boundary.shortest_rows(A, sources_above_floor(A, seed=3))
    assert_no_children()


def test_batch_below_the_floor_never_forks(ball_graph, two_cpus,
                                           monkeypatch):
    A = ball_graph.adjacency
    k = boundary._FORK_WORK // A.nnz
    src = np.arange(k)
    forks = count_forks(monkeypatch)
    counts = boundary.dijkstra_counts()
    got = boundary.shortest_rows(A, src, counts)
    assert forks == []
    assert counts == {"calls": 1, "rows": k, "child_rows": 0}
    assert got.tobytes() == dijkstra(A, directed=True, indices=src).tobytes()


def test_one_cpu_never_forks(ball_graph, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forks = count_forks(monkeypatch)
    boundary.shortest_rows(ball_graph.adjacency,
                           sources_above_floor(ball_graph.adjacency))
    assert forks == []


@pytest.mark.parametrize("metric", ["d", "kob"])
def test_cli_report_is_the_serial_one_and_counts_the_children(
        tmp_path, monkeypatch, metric):
    cfg = {"domain": {"dimension": 4, "defining_function": {"type": "ball"}},
           "epsilon": 0.5, "graph": {"n_nodes": 600, "k_neighbors": 8}}
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    blobs, manifests = [], []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = tmp_path / f"out{len(cpus)}"
        assert main(["qi", "--metric", metric, "--config", str(path),
                     "--out", str(out)]) == 0
        assert_no_children()
        blobs.append((out / "report.json").read_bytes())
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert blobs[0] == blobs[1]
    forked, serial = (m["counters"]["dijkstra"] for m in manifests)
    for man in manifests:
        dij = man["counters"]["dijkstra"]
        assert dij["graph"]["rows"] == man["graph_rows"]["computed"]
        timings = dict(man["timings"])
        # the graph is built afresh; the cloud is sampled only when a
        # projection or the reach estimate asks for it
        build = timings.pop("graph_build")
        assert set(build) == {"sample_s", "thin_s", "connect_s"}
        assert set(timings) - {"cloud_s"} == {"workspace_s", "graph_s",
                                              "handler_s", "save_s"}
        assert all(v >= 0 for v in [*timings.values(), *build.values()])
        assert timings["workspace_s"] >= timings["graph_s"] >= sum(
            build.values())
    assert serial["graph"]["child_rows"] == 0
    if metric == "d":
        assert forked["graph"]["child_rows"] > 0
        assert "ladder" not in forked
    else:
        assert forked["ladder"] == {"calls": 1, "rows": 46, "child_rows": 23}
        assert serial["ladder"]["child_rows"] == 0
