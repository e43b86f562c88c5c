"""The graph cache: a graph file written once and an append-only row store.

A saved graph carries its cached distance rows and its domain's boundary
cloud, a load puts both back bit for bit, and a command that shares a
cache computes only the rows no earlier command stored and appends only
those. The graph file is written only after a fresh build, never with a
refined graph's rows; a row store is read only with the graph file it was
written for; a failed save changes no byte; and rows or a cloud that the
program could not have produced are refused with exit 2.
"""

import json
import os
import shutil

import numpy as np
import pytest

from hypkob import BoundaryGraph, ConfigError, Domain, boundary, cli
from hypkob.boundary import cache_files
from hypkob.cli import main
from hypkob.config import build_workspace, load_config
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


def _store(cache):
    """Header bytes and records of a cache's row store: each record is an
    int64 node index followed by the node count's float64 distances."""
    n = _members(cache)["nodes"].shape[0]
    blob = _read(cache_files(cache)[1])
    head = boundary._HEADER.size
    dtype = np.dtype([("index", "<i8"), ("row", "<f8", (n,))])
    return blob[:head], np.frombuffer(blob[head:], dtype=dtype).copy()


def _manifest(out):
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


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


def _write_bad(rig, cache, arrays=None, header=None, records=None,
               body=None):
    """A copy of ``cache`` as bad.npz/bad.rows with the given parts
    replaced; returns its path."""
    bad = str(rig["root"] / "bad.npz")
    if arrays is None:
        shutil.copy(cache, bad)
    else:
        np.savez(bad, **arrays)
    if body is None:
        body = records.tobytes() if records is not None else None
    if header is not None:
        with open(cache_files(bad)[1], "wb") as fh:
            fh.write(header + body)
    else:
        shutil.copy(cache_files(cache)[1], cache_files(bad)[1])
    return bad


def test_saved_rows_load_bit_identical_without_dijkstra(graph, tmp_path,
                                                        monkeypatch):
    idx = [0, 3, 77, 150, 499]
    want = graph.rows_from(idx)
    path = str(tmp_path / "graph.npz")
    graph.save(path)
    calls = _count_dijkstra(monkeypatch)
    domain = Domain.from_spec({"dimension": 4,
                               "defining_function": {"type": "ball"}})
    back = BoundaryGraph.load(path, domain, graph.structure)
    got = back.rows_from(idx)
    assert calls == []
    assert got.tobytes() == want.tobytes()
    assert back.row_counts["loaded"] >= len(idx)
    assert back.row_counts["computed"] == 0
    assert back.geodesic_nodes(3, 77).tolist() == \
        graph.geodesic_nodes(3, 77).tolist()
    assert calls == []
    # the stored cloud is the one the domain would sample
    assert domain.cloud_source == "cache"
    assert (domain.boundary_cloud().tobytes()
            == graph.domain.boundary_cloud().tobytes())


def test_second_command_computes_only_the_rows_not_stored(rig, monkeypatch):
    shared = str(rig["root"] / "shared.npz")
    code, _ = _dist(rig, shared)
    assert code == 0
    stored = set(_store(shared)[1]["index"].tolist())
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
    man = _manifest(out_shared)
    assert man["graph_rows"] == {"loaded": len(stored),
                                 "computed": len(computed),
                                 "saved": len(stored) + len(computed),
                                 "appended": len(computed)}
    assert man["boundary_cloud"] == "cache"
    # stage timings of a fresh build and of a sampled cloud only
    assert not {"graph_build", "cloud_s"} & set(man["timings"])
    fresh = _manifest(out_fresh)
    assert fresh["boundary_cloud"] == "sampled"
    build = fresh["timings"]["graph_build"]
    assert set(build) == {"sample_s", "thin_s", "connect_s"}
    assert all(v > 0 for v in build.values())
    assert fresh["timings"]["cloud_s"] > 0
    index = _store(shared)[1]["index"]
    assert set(index.tolist()) == stored | needed
    assert index.size == len(stored | needed)


def test_refined_run_leaves_the_cache_untouched(rig):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    blobs = [_read(f) for f in cache_files(cache)]
    assert _store(cache)[1].size > 0
    code, out = _cli(rig, cache, "out_refined", "dist", "--metric", "d",
                     "--pairs", rig["pairs"], "--refine", "1")
    assert code == 0
    assert [_read(f) for f in cache_files(cache)] == blobs
    rows = _manifest(out)["graph_rows"]
    assert rows["loaded"] == 0 and rows["computed"] > 0
    assert rows["saved"] == 0 and rows["appended"] == 0


def _written():
    """Bytes this process has passed to write calls so far (Linux)."""
    with open("/proc/self/io", encoding="ascii") as fh:
        return int(next(ln for ln in fh if ln.startswith("wchar:")).split()[1])


def test_a_save_writes_bytes_in_proportion_to_its_new_rows(rig):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    graph_file, store = cache_files(cache)
    blob = _read(graph_file)
    ws = build_workspace(load_config(rig["config"]), graph_cache=cache)
    graph = ws.graph
    n = graph.nodes.shape[0]
    size = os.path.getsize(store)
    before = _written()
    graph.save(cache)
    assert _written() == before
    assert os.path.getsize(store) == size
    new = [i for i in range(n) if i not in graph._rows][:7]
    graph.rows_from(new)
    before = _written()
    graph.save(cache)
    assert _written() - before == len(new) * 8 * (n + 1)
    assert os.path.getsize(store) == size + len(new) * 8 * (n + 1)
    assert _read(graph_file) == blob
    assert graph.row_counts["appended"] == len(new)
    assert _store(cache)[1]["index"][-len(new):].tolist() == new


def test_store_is_read_only_with_its_graph_file(rig, tmp_path):
    cache = str(rig["root"] / "graph.npz")
    code, out = _dist(rig, cache)
    assert code == 0 and _manifest(out)["graph_rows"]["appended"] > 0
    # a store written for another graph is not read, and the next save
    # replaces it with this graph's rows
    other = json.loads(_read(rig["config"]))
    other["graph"] = dict(other["graph"], seed=1)
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(other), encoding="utf-8")
    other_cache = str(tmp_path / "other.npz")
    assert main(["dist", "--metric", "g", "--pairs", rig["pairs"],
                 "--config", str(other_cfg), "--out", str(tmp_path / "o"),
                 "--graph-cache", other_cache]) == 0
    shutil.copy(cache_files(other_cache)[1], cache_files(cache)[1])
    code, out = _delta(rig, cache, "out_foreign")
    assert code == 0
    rows = _manifest(out)["graph_rows"]
    assert rows["loaded"] == 0
    assert rows["appended"] == rows["saved"] == rows["computed"] > 0
    assert _store(cache)[1].size == rows["saved"]
    # deleting the graph file leaves nothing a later command reads: it
    # builds afresh, samples its cloud and replaces the leftover store
    os.remove(cache)
    code, out = _delta(rig, cache, "out_rebuilt")
    assert code == 0
    man = _manifest(out)
    assert man["graph_rows"]["loaded"] == 0
    assert man["boundary_cloud"] == "sampled"
    assert _store(cache)[1].size == man["graph_rows"]["saved"]


def test_store_header_holds_a_digest_of_the_graph(ball, structure, tmp_path):
    # equal setup hash (none) and node count: only the digest of the nodes
    # and adjacency tells the two stores apart
    for seed in (0, 1):
        graph = BoundaryGraph.build(ball, structure, n_nodes=120,
                                    k_neighbors=8, seed=seed)
        graph.rows_from([0, 1])
        graph.save(str(tmp_path / f"g{seed}.npz"))
    shutil.copy(tmp_path / "g1.rows", tmp_path / "g0.rows")
    back = BoundaryGraph.load(str(tmp_path / "g0.npz"), ball, structure)
    assert back.row_counts["loaded"] == 0


def test_repeated_bit_identical_rows_are_accepted(rig):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    cfg = load_config(rig["config"])
    # two commands that share the cache compute the same rows and both
    # append them
    first = build_workspace(cfg, graph_cache=cache).graph
    second = build_workspace(cfg, graph_cache=cache).graph
    new = [i for i in range(first.nodes.shape[0])
           if i not in first._rows][:5]
    for graph in (first, second):
        graph.rows_from(new)
        graph.save(cache)
    index = _store(cache)[1]["index"]
    assert index.size == len(set(index.tolist())) + len(new)
    back = build_workspace(cfg, graph_cache=cache).graph
    assert back.row_counts["loaded"] == len(set(index.tolist()))
    assert (back.rows_from(new).tobytes()
            == first.rows_from(new).tobytes())


def _duplicate(r):
    r["index"][1] = r["index"][0]


def _out_of_range(r):
    r["index"][-1] = r["row"].shape[1]


def _off_zero(r):
    r["row"][0, r["index"][0]] = 1e-3


def _negative(r):
    r["row"][0, r["index"][0] - 1] = -1e-3


def _short(r):
    # every row one value short: the records no longer fill the store
    return b"".join(rec["index"].tobytes() + rec["row"][:-1].tobytes()
                    for rec in r)


@pytest.mark.parametrize("corrupt", [_short, _duplicate, _out_of_range,
                                     _off_zero, _negative])
def test_malformed_rows_are_refused(rig, corrupt, capsys):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    header, records = _store(cache)
    assert records.size > 1
    body = corrupt(records)
    bad = _write_bad(rig, cache, header=header, records=records, body=body)
    blobs = [_read(f) for f in cache_files(bad)]
    capsys.readouterr()
    code, _ = _dist(rig, bad, "out_bad")
    assert code == 2
    assert "distance rows" in capsys.readouterr().err
    assert [_read(f) for f in cache_files(bad)] == blobs


def _wrong_shape(cloud):
    return cloud[:-1]


def _off_boundary(cloud):
    return cloud * 1.01


def _not_finite(cloud):
    cloud = cloud.copy()
    cloud[5, 2] = np.nan
    return cloud


@pytest.mark.parametrize("corrupt", [_wrong_shape, _off_boundary,
                                     _not_finite])
def test_malformed_cloud_is_refused(rig, corrupt, capsys):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    arrays = _members(cache)
    arrays["cloud"] = corrupt(arrays["cloud"])
    bad = _write_bad(rig, cache, arrays=arrays)
    capsys.readouterr()
    code, _ = _dist(rig, bad, "out_bad")
    assert code == 2
    assert "boundary cloud" in capsys.readouterr().err


def test_old_single_file_layout_is_refused(rig, capsys):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    arrays = _members(cache)
    _, records = _store(cache)
    del arrays["cloud"]
    arrays["row_index"], arrays["rows"] = records["index"], records["row"]
    bad = str(rig["root"] / "old.npz")
    np.savez(bad, **arrays)
    blob = _read(bad)
    capsys.readouterr()
    code, _ = _dist(rig, bad, "out_old")
    assert code == 2
    err = capsys.readouterr().err
    assert "old single-file layout" in err and "delete it" in err
    assert _read(bad) == blob


def test_failed_save_keeps_the_old_cache(ball, structure, tmp_path,
                                         monkeypatch):
    folder = tmp_path / "cache"
    folder.mkdir()
    path = str(folder / "graph.npz")
    graph = BoundaryGraph.build(ball, structure, n_nodes=120, k_neighbors=8)
    graph.rows_from([1, 2])
    graph.save(path)
    blobs = [_read(f) for f in cache_files(path)]
    real_write = os.write

    def broken(fd, data):
        real_write(fd, bytes(data)[:100])
        raise OSError("disk full")

    # an append that fails half way is cut back
    monkeypatch.setattr(os, "write", broken)
    graph.rows_from([5])
    with pytest.raises(OSError):
        graph.save(path)
    monkeypatch.undo()
    assert sorted(os.listdir(folder)) == ["graph.npz", "graph.rows"]
    assert [_read(f) for f in cache_files(path)] == blobs

    # so is a first save over an existing cache, file by file
    def partial(fh, **arrays):
        fh.write(b"PK partial archive")
        raise OSError("disk full")

    fresh = BoundaryGraph.build(ball, structure, n_nodes=120, k_neighbors=8)
    fresh.rows_from([7])
    monkeypatch.setattr(np, "savez", partial)
    with pytest.raises(OSError):
        fresh.save(path)
    monkeypatch.undo()
    assert sorted(os.listdir(folder)) == ["graph.npz", "graph.rows"]
    assert [_read(f) for f in cache_files(path)] == blobs
    back = BoundaryGraph.load(path, graph.domain, graph.structure)
    assert back.row_counts["loaded"] == 2


def test_a_command_that_raises_writes_no_rows(rig, monkeypatch):
    cache = str(rig["root"] / "graph.npz")
    assert _dist(rig, cache)[0] == 0
    blobs = [_read(f) for f in cache_files(cache)]

    def failing(args, cfg, ws):
        ws.graph.rows_from(np.arange(ws.graph.nodes.shape[0]))
        raise HypkobError("late failure")

    monkeypatch.setitem(cli._HANDLERS, "dist", (failing, True))
    assert _dist(rig, cache, "out_fail")[0] == 3
    assert [_read(f) for f in cache_files(cache)] == blobs


def test_cache_without_rows_loads_with_none(graph, tmp_path):
    path = str(tmp_path / "graph.npz")
    graph.save(path)
    store = cache_files(path)[1]
    header = _read(store)[:boundary._HEADER.size]
    os.remove(store)
    back = BoundaryGraph.load(path, graph.domain, graph.structure)
    assert back.row_counts["loaded"] == 0
    assert back.distance_nodes(3, 9) == graph.distance_nodes(3, 9)
    # an index without its row is refused
    with open(store, "wb") as fh:
        fh.write(header + np.array([3], dtype="<i8").tobytes())
    with pytest.raises(ConfigError):
        BoundaryGraph.load(path, graph.domain, graph.structure)
