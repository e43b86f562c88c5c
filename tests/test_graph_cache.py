"""The graph cache holds Dijkstra rows as well as the graph.

A saved graph carries its cached distance rows, a load puts them back
bit for bit, and a command that shares a cache computes only the rows no
earlier command stored. The cache is rewritten atomically, never with a
refined graph's rows, and a rows block that Dijkstra could not have
produced is refused with exit 2.
"""

import json
import os

import numpy as np
import pytest

from hypkob import BoundaryGraph, ConfigError, boundary, cli
from hypkob.cli import main
from hypkob.errors import HypkobError


def _count_dijkstra(monkeypatch):
    """Patch ``boundary.dijkstra``; the returned list gets each call's rows."""
    calls = []
    real = boundary.dijkstra

    def counted(*args, **kwargs):
        calls.append(list(kwargs["indices"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "dijkstra", counted)
    return calls


def _members(path):
    with np.load(path, allow_pickle=False) as z:
        return {key: z[key] for key in z.files}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def rig(tmp_path):
    cfg = {"domain": {"dimension": 4, "defining_function": {"type": "ball"}},
           "epsilon": 0.5, "graph": {"n_nodes": 160, "k_neighbors": 8}}
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rng = np.random.default_rng(2)
    u = rng.standard_normal((12, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    X = u * rng.uniform(0.6, 0.95, (12, 1))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("\n".join(",".join(repr(float(v)) for v in row)
                               for row in np.hstack([X[:6], X[6:]])),
                     encoding="utf-8")
    return {"root": tmp_path, "config": str(path), "pairs": str(pairs)}


def _cli(rig, cache, out, *cmd):
    argv = list(cmd) + ["--config", rig["config"], "--out",
                        str(rig["root"] / out), "--graph-cache", cache]
    return main(argv), str(rig["root"] / out)


def _dist(rig, cache, out="out_dist"):
    return _cli(rig, cache, out, "dist", "--metric", "d",
                "--pairs", rig["pairs"])


def _delta(rig, cache, out):
    return _cli(rig, cache, out, "delta", "--metric", "g",
                "--n-quadruples", "2000")


def test_saved_rows_load_bit_identical_without_dijkstra(graph, tmp_path,
                                                        monkeypatch):
    idx = [0, 3, 77, 150, 499]
    want = graph.rows_from(idx)
    path = str(tmp_path / "graph.npz")
    graph.save(path)
    calls = _count_dijkstra(monkeypatch)
    back = BoundaryGraph.load(path, graph.domain, graph.structure)
    got = back.rows_from(idx)
    assert calls == []
    assert got.tobytes() == want.tobytes()
    assert back.row_counts["loaded"] >= len(idx)
    assert back.row_counts["computed"] == 0
    assert back.geodesic_nodes(3, 77).tolist() == \
        graph.geodesic_nodes(3, 77).tolist()
    assert calls == []


def test_second_command_computes_only_the_rows_not_stored(rig, monkeypatch):
    shared = str(rig["root"] / "shared.npz")
    code, _ = _dist(rig, shared)
    assert code == 0
    stored = set(_members(shared)["row_index"].tolist())
    assert stored
    calls = _count_dijkstra(monkeypatch)
    code, out_shared = _delta(rig, shared, "out_shared")
    assert code == 0
    computed = [i for call in calls for i in call]
    calls.clear()
    code, out_fresh = _delta(rig, str(rig["root"] / "fresh.npz"), "out_fresh")
    assert code == 0
    needed = {i for call in calls for i in call}
    assert sorted(computed) == sorted(needed - stored)
    assert computed
    assert (_read(os.path.join(out_shared, "report.json"))
            == _read(os.path.join(out_fresh, "report.json")))
    with open(os.path.join(out_shared, "manifest.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["graph_rows"]
    assert rows == {"loaded": len(stored), "computed": len(computed),
                    "saved": len(stored) + len(computed)}
    assert set(_members(shared)["row_index"].tolist()) == stored | needed


def test_refined_run_leaves_the_cache_untouched(rig):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    before = _members(cache)
    blob = _read(cache)
    assert before["row_index"].size > 0
    code, out = _cli(rig, cache, "out_refined", "dist", "--metric", "d",
                     "--pairs", rig["pairs"], "--refine", "1")
    assert code == 0
    after = _members(cache)
    assert after.keys() == before.keys()
    for key in before:
        assert after[key].tobytes() == before[key].tobytes(), key
    assert _read(cache) == blob
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["graph_rows"]
    assert rows["loaded"] == 0 and rows["computed"] > 0 and rows["saved"] == 0


def _duplicate(m):
    m["row_index"][1] = m["row_index"][0]


def _out_of_range(m):
    m["row_index"][-1] = m["nodes"].shape[0]


def _off_zero(m):
    m["rows"][0, m["row_index"][0]] = 1e-3


def _negative(m):
    m["rows"][0, m["row_index"][0] - 1] = -1e-3


def _short(m):
    m["rows"] = m["rows"][:, :-1]


@pytest.mark.parametrize("corrupt", [_short, _duplicate, _out_of_range,
                                     _off_zero, _negative])
def test_malformed_rows_are_refused(rig, corrupt, capsys):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    members = _members(cache)
    assert members["row_index"].size > 1
    corrupt(members)
    bad = str(rig["root"] / "bad.npz")
    np.savez(bad, **members)
    blob = _read(bad)
    capsys.readouterr()
    code, _ = _dist(rig, bad, "out_bad")
    assert code == 2
    assert "distance rows" in capsys.readouterr().err
    assert _read(bad) == blob


def test_failed_save_keeps_the_old_cache(graph, tmp_path, monkeypatch):
    folder = tmp_path / "cache"
    folder.mkdir()
    path = str(folder / "graph.npz")
    graph.rows_from([1, 2])
    graph.save(path)
    blob = _read(path)

    def broken(fh, **arrays):
        fh.write(b"PK partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken)
    graph.rows_from([5])
    with pytest.raises(OSError):
        graph.save(path)
    monkeypatch.undo()
    assert os.listdir(folder) == ["graph.npz"]
    assert _read(path) == blob
    back = BoundaryGraph.load(path, graph.domain, graph.structure)
    assert back.row_counts["loaded"] == _members(path)["row_index"].size


def test_a_command_that_raises_writes_no_rows(rig, monkeypatch):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    blob = _read(cache)

    def failing(args, cfg, ws):
        ws.graph.rows_from(np.arange(ws.graph.nodes.shape[0]))
        raise HypkobError("late failure")

    monkeypatch.setitem(cli._HANDLERS, "dist", (failing, True))
    assert _dist(rig, cache, "out_fail")[0] == 3
    assert _read(cache) == blob


def test_cache_without_rows_loads_with_none(graph, tmp_path):
    path = str(tmp_path / "graph.npz")
    graph.save(path)
    members = _members(path)
    del members["rows"], members["row_index"]
    np.savez(path, **members)
    back = BoundaryGraph.load(path, graph.domain, graph.structure)
    assert back.row_counts["loaded"] == 0
    assert back.distance_nodes(3, 9) == graph.distance_nodes(3, 9)
    # one of the two members alone is refused
    members["rows"] = np.zeros((0, graph.nodes.shape[0]))
    np.savez(path, **members)
    with pytest.raises(ConfigError):
        BoundaryGraph.load(path, graph.domain, graph.structure)
