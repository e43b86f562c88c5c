"""Quick test of the benchmark itself, at toy size.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest -q bench/test_bench.py`` (about 30 s).
It runs each workload's generator and one toy session through the same
checks the benchmark uses, and shows that the checks can fail.
"""

import csv
import filecmp
import math
import os

import numpy as np
import pytest

import checks
import run
import spans
import workloads


@pytest.fixture(scope="module")
def cli():
    return run._import_program()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    a = workloads.make_workload(name, 5, str(tmp_path / "a"), toy=True)
    b = workloads.make_workload(name, 5, str(tmp_path / "b"), toy=True)
    c = workloads.make_workload(name, 6, str(tmp_path / "c"), toy=True)
    for f in ("pairs.csv", "contraction.json", "rotation.json"):
        assert filecmp.cmp(tmp_path / "a" / f, tmp_path / "b" / f, shallow=False)
    assert not filecmp.cmp(tmp_path / "a" / "pairs.csv",
                           tmp_path / "c" / "pairs.csv", shallow=False)
    assert a.ops_per_session == b.ops_per_session == c.ops_per_session
    near = [r for r in a.rows if r.kind == "near_centre"]
    near_c = [r for r in c.rows if r.kind == "near_centre"]
    assert len(near) == (workloads.NEAR_CENTRE_ROWS if name == "deep" else 0)
    for r, s in zip(near, near_c):
        assert np.array_equal(r.x, s.x) and np.array_equal(r.y, s.y)


def test_ellipsoid_depth_matches_construction_and_brute_force():
    rng = np.random.default_rng(3)
    pts = workloads._ellipsoid_collar_points(rng, 50)
    a = np.asarray(workloads.ELLIPSOID_AXES)
    u = pts / np.sqrt(np.sum(pts**2 / a**2, axis=1, keepdims=True))
    for x in pts:
        t = checks.ellipsoid_depth(x)
        assert 0.0 < t < workloads.ELLIPSOID_EPS
    # no point of a dense boundary sample is nearer than the root's foot,
    # and the nearest one is close to it; for collar and for deep points
    v = rng.standard_normal((200000, 4))
    bnd = v / np.sqrt(np.sum(v**2 / a**2, axis=1, keepdims=True))
    for x in np.concatenate([pts[:5], 0.3 * u[:5], [[0.01, 0.0, 0.02, 0.0]]]):
        brute = np.min(np.linalg.norm(bnd - x, axis=1))
        assert brute - 0.02 < checks.ellipsoid_depth(x) <= brute + 1e-12


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_toy_session_passes_its_checks(name, tmp_path, cli):
    wl = workloads.make_workload(name, 1, str(tmp_path), toy=True)
    sess = run.Session(cli, wl)
    rec = spans.Recorder()
    with spans.traced(rec):
        times = sess.run(recorder=rec)
    assert sess.attempted == wl.ops_per_session
    assert sess.unexpected == []
    known = sum(r.kind == "near_centre" for r in wl.rows)
    assert sess.failed == known
    assert times["session_s"] >= sum(times[k] for k in
                                     ("dist_s", "delta_s", "qi_s", "orbit_s"))
    layers = spans.layer_metrics(rec, times["session_s"], times["session_s"])
    assert [m for m, _, _ in spans.PER_LAYER] == list(layers)
    assert all(math.isfinite(v["value"]) for v in layers.values())
    assert layers["domain.points_projected"]["value"] > 0
    assert layers["gromov.quadruples"]["value"] == workloads.TOY[name].n_quadruples
    # the wrappers are gone after the block
    from hypkob.domain import HeightProjection
    assert not hasattr(HeightProjection.project_batch, "__wrapped__")


def test_checks_can_fail(tmp_path, cli):
    wl = workloads.make_workload("collar", 2, str(tmp_path), toy=True)
    dist = next(c for c in wl.commands if c.name == "dist")
    assert cli.main(dist.argv) == 0
    problems, rows = checks.check_dist(wl, dist.out)
    assert problems == [] and rows == {}
    path = os.path.join(dist.out, "dist.csv")
    with open(path, newline="") as fh:
        recs = list(csv.reader(fh))
    recs[3][9] = repr(0.5 * float(recs[3][8]))       # row 2: d below g
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(recs)
    _, rows = checks.check_dist(wl, dist.out)
    assert 2 in rows
