"""``hypkob dist`` evaluates every metric over all rows in one batch.

One ``prepare`` call projects every row endpoint, one ``g_pairs`` call
evaluates ``g`` and, for ``d``, one ``composite_upper_paths`` call builds
every witness path with its value; the ``upper`` column is measured per
path. The
estimate runs ``LayeredSolver.distances`` over blocks of rows. The values
must be those of the per-row calls, a row the batch cannot evaluate must
mark only itself, and the deep fallback must run once per command instead
of once per row. ``hypkob geodesic`` runs on the same witness-path batch,
and its outputs must be those of a construction one pair at a time.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

from hypkob import Domain, HypkobError, LayeredSolver, MetricFamily
from hypkob._util import dump_json
from hypkob.cli import _KOB_BLOCK, _segment_separations, main
from hypkob.config import build_workspace, load_config
from hypkob.domain import HeightProjection
from hypkob.metrics import path_length

from conftest import pair_values

BALL = {"dimension": 4, "defining_function": {"type": "ball"}}
ELLIPSOID = {"dimension": 4,
             "defining_function": {"type": "ellipsoid",
                                   "semi_axes": [1.0, 1.0, 0.7, 0.7]}}
SETUPS = {"ball": (BALL, 0.5), "ellipsoid": (ELLIPSOID, 0.245)}


@pytest.fixture(scope="module")
def rigs(tmp_path_factory):
    """Config file and graph cache path per domain."""
    root = tmp_path_factory.mktemp("distbatch")
    out = {}
    for name, (spec, eps) in SETUPS.items():
        cfg = {"domain": spec, "epsilon": eps,
               "graph": {"n_nodes": 200, "k_neighbors": 8, "seed": 5}}
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out[name] = {"root": root, "config": str(path),
                     "cache": str(root / f"{name}_graph.npz")}
    return out


def _write_pairs(path, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,x3,x4,y1,y2,y3,y4\n")
        for r in rows:
            fh.write(r if isinstance(r, str)
                     else ",".join(repr(float(v)) for v in np.concatenate(r)))
            fh.write("\n")
    return str(path)


def _dist(rig, name, rows, metric="d"):
    """Run ``dist`` on ``rows``; returns the CSV body and the report."""
    pairs = _write_pairs(rig["root"] / f"{name}.csv", rows)
    out = str(rig["root"] / f"out_{name}")
    code = main(["dist", "--metric", metric, "--pairs", pairs,
                 "--config", rig["config"], "--out", out,
                 "--graph-cache", rig["cache"]])
    assert code == 0
    with open(os.path.join(out, "dist.csv"), newline="", encoding="utf-8") as fh:
        body = list(csv.reader(fh))[1:]
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return body, json.load(fh)


def _per_row(rig, rows):
    """(lower, value, upper) of each row from one-pair calls, in order."""
    ws = build_workspace(load_config(rig["config"]), graph_cache=rig["cache"])
    fam = ws.family
    out = []
    for x, y in rows:
        pl, _ = fam.composite_upper_path(x, y)
        out.append(pair_values(fam, x, y) + (path_length(pl, fam, "g"),))
    return out


def _directions(rng, n):
    v = rng.standard_normal((n, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _collar_rows(name, n, seed):
    """Pairs of collar points: a boundary point pushed in along its normal."""
    spec, eps = SETUPS[name]
    rng = np.random.default_rng(seed)
    if name == "ball":
        feet = _directions(rng, 2 * n)
        normals = feet
    else:
        dom = Domain.from_spec(spec)
        feet = dom.sample_boundary(2 * n, seed=seed)
        normals = dom.outward_normal(feet)
    depth = eps * rng.uniform(0.01, 0.8, 2 * n)
    pts = feet - depth[:, None] * normals
    return [(pts[2 * i], pts[2 * i + 1]) for i in range(n)]


def _deep_rows(n, seed):
    """Deep ball pairs, |x| in [0.05, 0.3]; every other pair on one ray."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        u, v = _directions(rng, 2)
        r1, r2 = rng.uniform(0.05, 0.3, 2)
        rows.append((r1 * u, r2 * (u if i % 2 else v)))
    return rows


@pytest.mark.parametrize("name", ["ball", "ellipsoid", "deep"])
def test_batched_collar_rows_equal_the_scalar_calls(rigs, name):
    # collar rows on each domain, and deep ball rows; every point
    # backtracks alone in its Newton solve, so the batch gives each row
    # the values of its one-pair calls exactly
    if name == "deep":
        rig, rows = rigs["ball"], _deep_rows(12, seed=4)
    else:
        rig, rows = rigs[name], _collar_rows(name, 30, seed=11)
    body, rep = _dist(rig, f"rows_{name}", rows)
    ref = _per_row(rig, rows)
    for rec, vals in zip(body, ref):
        assert rec[11] == ""
        assert rec[8:11] == [repr(float(v)) for v in vals]
    assert rep["n_errors"] == 0
    if name == "deep":
        # every other deep pair lies on one ray, where d is the chord
        for rec, (x, y) in list(zip(body, rows))[1::2]:
            assert math.isclose(float(rec[9]), np.linalg.norm(x - y),
                                rel_tol=1e-12)


def test_kob_rows_equal_the_solver_on_each_pair_alone(rigs):
    rig = rigs["ball"]
    rows = _deep_rows(40, seed=6)
    assert len(rows) > _KOB_BLOCK
    body, rep = _dist(rig, "deep_kob", rows, "kob")
    ws = build_workspace(load_config(rig["config"]), graph_cache=rig["cache"])
    solver = LayeredSolver(ws.family, "kobayashi")
    for rec, (x, y) in zip(body, rows):
        assert rec[9] == ""
        alone = solver.distances(np.stack([x, y]))[0, 1]
        assert rec[8] == repr(float(alone))
    assert rep["n_errors"] == 0


@pytest.mark.parametrize("metric", ["g", "d", "kob"])
def test_bad_rows_mark_only_themselves(rigs, metric):
    rig = rigs["ball"]
    good = _collar_rows("ball", 8, seed=3)
    outside = (np.array([1.01, 0.0, 0.0, 0.0]), good[0][1])
    rows = good[:3] + [outside] + good[3:6] + ["0.1,bad,0,0,0,0,0,0.3"] + good[6:]
    clean, rep_clean = _dist(rig, f"clean_{metric}", good, metric)
    body, rep = _dist(rig, f"mixed_{metric}", rows, metric)
    assert body[3][-1] == "PointOutsideDomain"
    assert body[7][-1] == "parse"
    rest = [rec for i, rec in enumerate(body) if i not in (3, 7)]
    assert rest == clean
    assert rep["n_errors"] == 2 and rep_clean["n_errors"] == 0
    for key in ("value_min", "value_max", "value_mean"):
        assert rep[key] == rep_clean[key]


def test_deep_dist_makes_one_fallback_call(rigs, monkeypatch):
    calls = []
    real = HeightProjection._fallback_feet

    def counted(self, X):
        calls.append(X.shape[0])
        return real(self, X)

    monkeypatch.setattr(HeightProjection, "_fallback_feet", counted)
    rows = _deep_rows(8, seed=9)
    body, _ = _dist(rigs["ball"], "deep_count", rows)
    assert all(rec[11] == "" for rec in body)
    assert len(calls) == 1


def test_same_ray_witness_path_projects_nothing(family, graph, monkeypatch):
    u = graph.nodes[23]
    x, y = 0.2 * u, 0.1 * u
    pl, _ = family.composite_upper_path(x, y)
    calls = []
    real = family.projection.project_batch

    def counted(X, seed_feet=None):
        calls.append(np.atleast_2d(X).shape[0])
        return real(X, seed_feet=seed_feet)

    monkeypatch.setattr(family.projection, "project_batch", counted)
    length = path_length(pl, family, "g")
    assert math.isfinite(length)
    assert calls == []


def _per_pair_geodesic(rig, rows, out):
    """``geodesic.csv`` and ``report.json`` of ``rows`` in ``out``, built one
    pair at a time: each row's witness path, its g-length and its segments'
    g values, a row that cannot be built marked with its error."""
    os.makedirs(out)
    ws = build_workspace(load_config(rig["config"]), graph_cache=rig["cache"])
    fam = ws.family
    entries = []
    with open(os.path.join(out, "geodesic.csv"), "w", newline="",
              encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["pair", "vertex", "x1", "x2", "x3", "x4", "param"])
        for i, row in enumerate(rows):
            if isinstance(row, str):
                entries.append({"pair": i, "error": "parse"})
                continue
            try:
                pl, dval = fam.composite_upper_path(*row)
                glen = path_length(pl, fam, "g")
                n = pl.points.shape[0]
                seg = fam.g_pairs(pl.prepared.take(np.arange(n - 1)),
                                  pl.prepared.take(np.arange(1, n)))
            except HypkobError as exc:
                entries.append({"pair": i, "error": type(exc).__name__})
                continue
            for j, t in enumerate(pl.params()):
                wr.writerow([i, j] + [repr(float(v)) for v in pl.points[j]]
                            + [repr(float(t))])
            entries.append({"pair": i, "n_points": n, "d_value": dval,
                            "g_length": glen, "segment_g": seg,
                            "points": pl.points})
    dump_json({"command": "geodesic", "n_pairs": len(rows),
               "n_errors": sum("error" in e for e in entries),
               "geodesics": entries, "csv": "geodesic.csv"},
              os.path.join(out, "report.json"))


def _read(out, name):
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name, mixed", [("ball", False), ("ellipsoid", False),
                                         ("ball", True)])
def test_geodesic_batch_equals_per_pair_construction(rigs, monkeypatch,
                                                     name, mixed):
    rig = rigs[name]
    rows = _collar_rows(name, 12, seed=8)
    if name == "ball" and not mixed:
        rows += _deep_rows(6, seed=2)
    if mixed:
        outside = (np.array([1.01, 0.0, 0.0, 0.0]), rows[0][1])
        rows = rows[:3] + [outside] + rows[3:6] + ["0.1,bad,0,0,0,0,0,0.3"] \
            + rows[6:]
    tag = f"geo_{name}_{'mixed' if mixed else 'clean'}"
    pairs = _write_pairs(rig["root"] / f"{tag}.csv", rows)
    out = str(rig["root"] / f"out_{tag}")
    calls = []
    real = MetricFamily.composite_upper_paths

    def counted(self, A, B):
        calls.append(len(A))
        return real(self, A, B)

    monkeypatch.setattr(MetricFamily, "composite_upper_paths", counted)
    assert main(["geodesic", "--pairs", pairs, "--config", rig["config"],
                 "--out", out, "--graph-cache", rig["cache"]]) == 0
    monkeypatch.undo()
    # one batch over all rows; with the exterior row, the batch raises in
    # ``prepare`` and every other parsed row goes alone
    assert calls == ([1] * (len(rows) - 2) if mixed else [len(rows)])
    ref = str(rig["root"] / f"ref_{tag}")
    _per_pair_geodesic(rig, rows, ref)
    for f in ("geodesic.csv", "report.json"):
        assert _read(out, f) == _read(ref, f)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    errors = {e["pair"]: e["error"] for e in rep["geodesics"] if "error" in e}
    assert errors == ({3: "PointOutsideDomain", 7: "parse"} if mixed else {})
    assert rep["n_errors"] == len(errors)


@pytest.mark.parametrize("name", ["ball", "ellipsoid"])
def test_geodesic_computes_the_rows_of_dist_d(rigs, name):
    # segment separations come from the adjacency, so geodesic runs no
    # Dijkstra row beyond those of the witness paths themselves
    rig = rigs[name]
    rows = _collar_rows(name, 10, seed=11)
    if name == "ball":
        rows += _deep_rows(4, seed=3)
    pairs = _write_pairs(rig["root"] / f"rows_{name}.csv", rows)
    computed = {}
    for cmd, extra in (("dist", ("--metric", "d")), ("geodesic", ())):
        out = str(rig["root"] / f"out_rows_{cmd}_{name}")
        assert main([cmd, *extra, "--pairs", pairs, "--config",
                     rig["config"], "--out", out]) == 0
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            computed[cmd] = json.load(fh)["graph_rows"]["computed"]
    assert computed["geodesic"] == computed["dist"] > 0


def test_segment_separations_read_the_adjacency_and_refuse_a_jump(rigs):
    graph = build_workspace(load_config(rigs["ball"]["config"])).graph
    A = graph.adjacency
    i = np.repeat(np.arange(5), 2)
    j = np.concatenate([[k, A.indices[A.indptr[k]]] for k in range(5)])
    W = _segment_separations(graph, i, j)
    assert np.array_equal(W[::2], np.zeros(5))
    assert np.array_equal(W[1::2], A.data[A.indptr[:5]])
    far = int(np.argmax(graph.rows_from([0])[0]))
    with pytest.raises(RuntimeError, match="not adjacent"):
        _segment_separations(graph, np.array([0, 0]), np.array([0, far]))
