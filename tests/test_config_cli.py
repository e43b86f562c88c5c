"""End-to-end runs of the command-line front end and config loading.

Every command goes through ``main(argv)`` with a small boundary graph
and a shared cache file, so the test module builds the graph once.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

from hypkob.boundary import BoundaryGraph
from hypkob.config import load_config
from hypkob.domain import Domain
from hypkob.structures import standard_structure
from hypkob.cli import main, read_pair_rows
from hypkob.errors import ConfigError


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    """Shared config file plus graph cache for the ball domain."""
    root = tmp_path_factory.mktemp("cliws")
    cfg = {
        "domain": {"dimension": 4, "defining_function": {"type": "ball"}},
        "structure": {"type": "standard"},
        "epsilon": 0.5,
        "graph": {"n_nodes": 160, "k_neighbors": 8},
        "out_dir": "out_default",
    }
    cfg_path = write_json(root / "ball.json", cfg)
    return {"root": root, "config": cfg_path,
            "cache": str(root / "graph160")}


def run(rig, cmd, out_name, *extra):
    out = os.path.join(str(rig["root"]), out_name)
    argv = [cmd, "--config", rig["config"], "--out", out,
            "--graph-cache", rig["cache"]] + list(extra)
    code = main(argv)
    return code, out


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def test_load_config_defaults_and_resolution(tmp_path):
    sub = tmp_path / "confdir"
    sub.mkdir()
    write_json(sub / "domain.json",
               {"dimension": 4, "defining_function": {"type": "ball"}})
    path = write_json(sub / "run.json", {"domain": "domain.json"})
    cfg = load_config(path)
    assert cfg.domain_spec["defining_function"]["type"] == "ball"
    assert cfg.structure_spec == {"type": "standard"}
    assert cfg.graph["n_nodes"] == 600
    assert cfg.seeds == {"sampler": 0, "pairs": 0, "quadruples": 0,
                         "orbits": 0}
    assert os.path.isabs(cfg.out_dir)
    assert os.path.basename(cfg.out_dir) == "hypkob_out"
    assert os.path.dirname(cfg.out_dir) == str(sub)
    assert cfg.epsilon is None
    assert len(cfg.hash()) == 64


def test_load_config_rejects_bad_entries(tmp_path):
    base = {"domain": {"dimension": 4,
                       "defining_function": {"type": "ball"}}}
    bad = [
        dict(base, graph={"n_noodles": 3}),
        # the Newton tolerance is a constant
        dict(base, tolerances={"newton_tol": 1e-10}),
        dict(base, tolerances={}),
        dict(base, seeds={"sampler": "zero"}),
        dict(base, epsilon=-0.5),
        dict(base, map=[1, 2]),
        {"structure": {"type": "standard"}},
        {"domain": "nowhere.json"},
        {"domain": 7},
    ]
    for i, raw in enumerate(bad):
        path = write_json(tmp_path / f"bad{i}.json", raw)
        with pytest.raises(ConfigError):
            load_config(path)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    text = tmp_path / "broken.json"
    text.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(text))
    listy = write_json(tmp_path / "list.json", [1, 2, 3])
    with pytest.raises(ConfigError):
        load_config(listy)


# what each key refuses beyond true: NaN and Infinity load as floats, the
# graph's counts take whole numbers, a node needs a neighbour, and numpy
# takes no negative seed. Let through, "anisotropy": NaN writes inf
# distances, "k_neighbors": 0 and -3 and a seed of -1 end in a traceback,
# and "n_nodes": 200.7 builds 200 nodes
_REFUSED = {
    (None, "epsilon"): [math.inf, math.nan],
    ("graph", "n_nodes"): [200.7, math.inf],
    ("graph", "k_neighbors"): [0, -3, 2.5],
    ("graph", "anisotropy"): [math.nan, math.inf],
    ("graph", "seed"): [0.5, -1],
    **{("seeds", key): [-1] for key in ("sampler", "pairs", "quadruples",
                                         "orbits")},
}


@pytest.mark.parametrize("block, key", [
    ("seeds", "sampler"), ("seeds", "pairs"), ("seeds", "quadruples"),
    ("seeds", "orbits"), ("tolerances", "newton_tol"), (None, "epsilon"),
    ("graph", "n_nodes"), ("graph", "k_neighbors"), ("graph", "anisotropy"),
    ("graph", "seed")])
def test_booleans_are_not_numbers(tmp_path, capsys, block, key):
    # JSON true loads as Python True, an int equal to 1
    raw = {"domain": {"dimension": 4, "defining_function": {"type": "ball"}}}
    for value in [True] + _REFUSED.get((block, key), []):
        if block is None:
            raw[key] = value
        else:
            raw[block] = {key: value}
        path = write_json(tmp_path / "bad.json", raw)
        capsys.readouterr()
        assert main(["check", "--config", path, "--out",
                     str(tmp_path / "out")]) == 2, value
        assert key in capsys.readouterr().err, value
        assert not os.path.exists(tmp_path / "out"), value


def test_main_maps_config_errors_to_exit_2(tmp_path):
    assert main(["check", "--config", str(tmp_path / "none.json")]) == 2
    path = write_json(tmp_path / "bad.json", {"domain": {"dimension": 4}})
    assert main(["check", "--config", path]) == 2
    # per-type keys missing from the domain or structure spec, or unreadable
    bad = [
        {"domain": {"dimension": 4, "defining_function": {
            "type": "ball", "radius": "large"}}},
        {"domain": {"dimension": 4, "defining_function": {
            "type": "superellipsoid", "semi_axes": [1.0, 1.0, 1.0, 1.0]}}},
        {"domain": {"dimension": 4,
                    "defining_function": {"type": "ellipsoid"}}},
        {"domain": {"dimension": 4, "defining_function": {"type": "ball"}},
         "structure": {"type": "matrix_polynomial"}},
        {"domain": {"dimension": 4, "box": [[-1] * 4, [1] * 4],
                    "defining_function": {"type": "polynomial", "terms": []}}},
        {"domain": {"dimension": 4, "defining_function": {"type": "ball"}},
         "structure": {"type": "matrix_polynomial", "constant": np.eye(4).tolist(),
                       "linear": [{"variable": 7,
                                   "matrix": np.eye(4).tolist()}]}},
        # structure types and graph keys that no longer exist
        {"domain": {"dimension": 4, "defining_function": {"type": "ball"}},
         "structure": {"type": "grid", "axes": [[-1.0, 1.0]] * 4,
                       "values": np.zeros((2,) * 4 + (4, 4)).tolist()}},
        {"domain": {"dimension": 4, "defining_function": {"type": "ball"}},
         "graph": {"selection": "farthest"}},
        # knobs that are constants: the Newton tolerance, the domain's
        # finite difference step
        {"domain": {"dimension": 4, "defining_function": {"type": "ball"}},
         "tolerances": {"newton_tol": 1e-10}},
        {"domain": {"dimension": 4, "defining_function": {"type": "ball"},
                    "fd_step": 1e-5}},
    ]
    for i, raw in enumerate(bad):
        path = write_json(tmp_path / f"bad_type{i}.json", raw)
        assert main(["check", "--config", path]) == 2
    # a negative seed override, which numpy refuses
    path = write_json(tmp_path / "ball.json", {"domain": {
        "dimension": 4, "defining_function": {"type": "ball"}}})
    assert main(["check", "--config", path, "--seed", "-1", "--out",
                 str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_ball_passes(rig):
    code, out = run(rig, "check", "out_check")
    assert code == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["command"] == "check"
    assert rep["ok"] is True
    assert rep["epsilon"] == 0.5
    assert rep["dimension"] == 4
    assert rep["checks"]["structure"]["ok"] is True
    conv = rep["checks"]["convexity"]
    assert conv["ok"] is True
    assert conv["min_eigenvalue"] > 0
    assert len(conv["worst_point"]) == 4
    assert rep["checks"]["contact"]["ok"] is True

    man = read_json(os.path.join(out, "manifest.json"))
    assert man["command"] == "check"
    assert man["config_hash"] == load_config(rig["config"]).hash()
    assert man["graph"] is None
    assert set(man["seeds"]) == {"sampler", "pairs", "quadruples", "orbits"}
    for key in ("hypkob", "numpy", "scipy", "python"):
        assert man["versions"][key]
    stamp = man["timestamp"]
    assert len(stamp) == 20 and stamp.endswith("Z") and stamp[4] == "-"


def test_check_flags_degenerate_domain(tmp_path):
    terms = [
        {"coefficient": 1.0, "exponents": [2, 0, 0, 0]},
        {"coefficient": 1.0, "exponents": [0, 2, 0, 0]},
        {"coefficient": 1.0, "exponents": [0, 0, 2, 0]},
        {"coefficient": 1.0, "exponents": [0, 0, 0, 2]},
        {"coefficient": -2.0, "exponents": [0, 0, 4, 0]},
        {"coefficient": 1.0, "exponents": [0, 0, 6, 0]},
        {"coefficient": -1.0, "exponents": [0, 0, 0, 0]},
    ]
    cfg = {
        "domain": {
            "dimension": 4,
            "defining_function": {"type": "polynomial", "terms": terms},
            "box": [[-1.8, -1.3, -1.8, -1.3], [1.8, 1.3, 1.8, 1.3]],
        },
        "epsilon": 0.25,
    }
    path = write_json(tmp_path / "peanut.json", cfg)
    out = str(tmp_path / "out")
    assert main(["check", "--config", path, "--out", out]) == 1
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["ok"] is False
    assert rep["checks"]["convexity"]["ok"] is False
    assert rep["checks"]["convexity"]["min_eigenvalue"] < 0


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def write_pairs(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,x3,x4,y1,y2,y3,y4\n")
        fh.write("# radial pair, identical pair, and two broken rows\n")
        for row in rows:
            fh.write(row + "\n")
    return str(path)


RADIAL = "0.7,0,0,0,0.95,0,0,0"
SAME = "0.2,0.3,0,0,0.2,0.3,0,0"


def test_dist_g_values_and_parse_errors(rig):
    pairs = write_pairs(rig["root"] / "pairs.csv",
                        [RADIAL, SAME, "0.1,bad,0,0,0,0,0,0.3", "0.1,0.2"])
    code, out = run(rig, "dist", "out_dist_g", "--metric", "g",
                    "--pairs", pairs)
    assert code == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["metric"] == "g"
    assert rep["n_rows"] == 4
    assert rep["n_errors"] == 2
    assert rep["csv"] == "dist.csv"

    rows = read_csv(os.path.join(out, "dist.csv"))
    assert rows[0] == ["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4",
                       "value", "error"]
    body = rows[1:]
    assert len(body) == 4
    # points on one ray a distance t from the boundary sit at height
    # sqrt(t), so the radial value is half the log of the depth ratio
    want = 0.5 * math.log(0.3 / 0.05)
    assert abs(float(body[0][8]) - want) < 1e-6
    assert body[0][9] == ""
    assert float(body[1][8]) == 0.0
    assert body[2][9] == "parse" and body[2][8] == ""
    assert body[3][9] == "parse"
    assert rep["value_min"] == 0.0
    assert abs(rep["value_max"] - want) < 1e-6


def test_dist_d_brackets_the_value(rig):
    pairs = write_pairs(rig["root"] / "pairs_d.csv", [RADIAL])
    code, out = run(rig, "dist", "out_dist_d", "--metric", "d",
                    "--pairs", pairs)
    assert code == 0
    rows = read_csv(os.path.join(out, "dist.csv"))
    assert rows[0][8:] == ["lower", "value", "upper", "error"]
    lo, val, up = (float(v) for v in rows[1][8:11])
    want = 0.5 * math.log(0.3 / 0.05)
    assert abs(val - want) < 1e-6
    assert lo <= val + 1e-9
    assert val <= up + 1e-9
    assert up - val < 1e-6


def test_header_after_a_comment_is_not_a_parse_error(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text("# pairs\n\nx1,x2,x3,x4,y1,y2,y3,y4\n"
                    "0.1,0,0,0,0,0.2,0,0\nx1,x2\n", encoding="utf-8")
    rows = read_pair_rows(str(path), 4)
    # only the first row that is neither a comment nor blank is a header
    assert [ok for ok, _, _ in rows] == [True, False]
    assert np.array_equal(rows[0][1], [0.1, 0, 0, 0])
    assert np.array_equal(rows[0][2], [0, 0.2, 0, 0])


def test_dist_euclid_is_plain_chord(rig):
    pairs = write_pairs(rig["root"] / "pairs_e.csv", [RADIAL])
    code, out = run(rig, "dist", "out_dist_e", "--metric", "euclid",
                    "--pairs", pairs)
    assert code == 0
    rows = read_csv(os.path.join(out, "dist.csv"))
    assert abs(float(rows[1][8]) - 0.25) < 1e-12


# ---------------------------------------------------------------------------
# delta and reproducibility
# ---------------------------------------------------------------------------

def test_delta_replay_is_byte_identical(rig):
    args = ("--metric", "g", "--n-quadruples", "1500", "--seed", "7")
    code1, out1 = run(rig, "delta", "out_delta_a", *args)
    code2, out2 = run(rig, "delta", "out_delta_b", *args)
    assert code1 == 0 and code2 == 0
    with open(os.path.join(out1, "report.json"), "rb") as fh:
        blob1 = fh.read()
    with open(os.path.join(out2, "report.json"), "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2
    rep = json.loads(blob1)
    assert rep["delta"] >= rep["defect_q99"] >= 0
    assert rep["n_quadruples"] == 1500
    assert rep["failures"] == 0
    assert rep["seed"] == 7
    assert np.asarray(rep["worst_points"]).shape == (4, 4)


@pytest.mark.parametrize("metric", ["g", "euclid"])
def test_delta_reads_the_quadruples_seed_not_the_sampler_seed(rig, metric):
    # the pool comes from seeds.quadruples and the quadruples from
    # seeds.quadruples + 1; with epsilon set, seeds.sampler reaches nothing
    blobs = {}
    for tag, seeds in (("base", {"sampler": 0, "quadruples": 0}),
                       ("sampler", {"sampler": 5, "quadruples": 0}),
                       ("quadruples", {"sampler": 0, "quadruples": 5})):
        cfg = dict(read_json(rig["config"]), seeds=seeds)
        name = f"seeds_{metric}_{tag}"
        out = os.path.join(str(rig["root"]), f"out_{name}")
        code = main(["delta", "--config",
                     write_json(rig["root"] / f"{name}.json", cfg),
                     "--out", out, "--graph-cache", rig["cache"],
                     "--metric", metric, "--n-quadruples", "1500"])
        assert code == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            blobs[tag] = fh.read()
    assert blobs["sampler"] == blobs["base"]
    assert blobs["quadruples"] != blobs["base"]


@pytest.mark.parametrize("cmd, extra, files", [
    ("check", (), ()),
    ("dist", ("--metric", "d", "--pairs", "PAIRS"), ("dist.csv",)),
    ("lipschitz", ("--map", "ROTATION"), ()),
    ("delta", ("--metric", "euclid", "--n-quadruples", "1500"), ()),
    ("delta", ("--metric", "d", "--n-quadruples", "1500"), ()),
    ("geodesic", ("--pairs", "PAIRS"), ("geodesic.csv",)),
    ("orbit", ("--map", "ROTATION"), ("orbits.csv",)),
    ("orbit", ("--map", "CONTRACTION"), ("orbits.csv",)),
    ("qi", ("--metric", "d"), ()),
], ids=["check", "dist-d", "lipschitz", "delta-euclid", "delta-d", "geodesic",
        "orbit", "orbit-contraction", "qi-d"])
def test_report_replay_is_byte_identical(rig, cmd, extra, files, request):
    # report.json, and the CSV a command writes its values to
    inputs = {
        "PAIRS": write_pairs(rig["root"] / "pairs_replay.csv",
                             [RADIAL, SAME, "0.3,0.1,0.2,0,-0.4,0.5,0,0.1"]),
        "ROTATION": write_json(rig["root"] / "rot_replay.json",
                               {"type": "rotation", "angles": [0.9, 0.4]}),
        # toward a boundary point, so the orbits converge there
        "CONTRACTION": write_json(rig["root"] / "contract_replay.json",
                                  {"type": "affine_contraction",
                                   "p": [1, 0, 0, 0], "rate": 0.8}),
    }
    extra = [inputs.get(a, a) for a in extra]
    blobs = []
    for tag in "ab":
        code, out = run(rig, cmd,
                        f"out_replay_{request.node.callspec.id}_{tag}", *extra)
        assert code == 0
        blobs.append([])
        for name in ("report.json",) + files:
            with open(os.path.join(out, name), "rb") as fh:
                blobs[-1].append(fh.read())
    assert blobs[0] == blobs[1]
    rep = json.loads(blobs[0][0])
    if "euclid" in extra:
        # the pool of ``Domain.sample_interior``: no other test or workload
        # reaches it
        assert math.isfinite(rep["delta"]) and rep["delta"] >= 0
        assert rep["failures"] == 0
    if request.node.callspec.id == "orbit-contraction":
        assert rep["verdict"] == "ConvergesTo"
    if cmd == "qi":
        assert rep["comparison"] == ["g", "d"] and rep["n_pairs"] == 1000


def test_kob_replay_is_byte_identical_and_counts_the_ladder(rig):
    pairs = write_pairs(rig["root"] / "pairs_k.csv", [RADIAL, SAME])
    for cmd, extra, sources in (
            ("qi", ("--metric", "kob"), 46),
            ("dist", ("--metric", "kob", "--pairs", pairs), 4)):
        blobs = []
        for tag in "ab":
            code, out = run(rig, cmd, f"out_{cmd}_kob_{tag}", *extra)
            assert code == 0
            with open(os.path.join(out, "report.json"), "rb") as fh:
                blobs.append(fh.read())
            counters = read_json(os.path.join(out, "manifest.json"))[
                "counters"]
            lay = counters["layered"]
            assert lay["levels"] >= 2
            assert lay["grid_nodes"] == lay["levels"] * 160
            assert lay["nnz"] > lay["grid_nodes"]
            assert lay["dijkstra_sources"] == sources
            assert counters["dijkstra"]["ladder"]["rows"] == sources
        assert blobs[0] == blobs[1]
        assert b"layered" not in blobs[0]
    _, out = run(rig, "dist", "out_dist_g_counters", "--metric", "g",
                 "--pairs", pairs)
    man = read_json(os.path.join(out, "manifest.json"))
    assert set(man["counters"]) == {"projection", "dijkstra"}
    assert set(man["counters"]["dijkstra"]) == {"graph"}


def test_seed_override_reaches_every_seed(rig):
    _, out = run(rig, "delta", "out_delta_a", "--metric", "g",
                 "--n-quadruples", "1500", "--seed", "7")
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["seeds"] == {"sampler": 7, "pairs": 7, "quadruples": 7,
                            "orbits": 7}
    assert man["graph"]["n_nodes"] == 160
    assert man["graph"]["k_neighbors"] >= 8


def test_graph_cache_file_is_created_and_reused(rig):
    cache = rig["cache"] + ".npz"
    assert os.path.exists(cache)
    before = os.path.getmtime(cache)
    _, out = run(rig, "dist", "out_cache_probe", "--metric", "g", "--pairs",
                 write_pairs(rig["root"] / "pairs_c.csv", [SAME]))
    assert os.path.getmtime(cache) == before
    man = read_json(os.path.join(out, "manifest.json"))
    assert man["graph"]["n_nodes"] == 160


def test_graph_cache_refuses_another_setup(rig, tmp_path):
    pairs = write_pairs(rig["root"] / "pairs_c.csv", [SAME])
    code, _ = run(rig, "dist", "out_cache_ball", "--metric", "g",
                  "--pairs", pairs)
    assert code == 0
    cache = rig["cache"] + ".npz"
    before = os.path.getmtime(cache)
    cfg = read_json(rig["config"])
    cfg["domain"] = {"dimension": 4, "defining_function": {
        "type": "ellipsoid", "semi_axes": [1.0, 1.0, 0.7, 0.7]}}
    ell = write_json(tmp_path / "ellipsoid.json", cfg)
    argv = ["dist", "--metric", "g", "--pairs", pairs, "--config", ell,
            "--out", str(tmp_path / "out_ell"), "--graph-cache", cache]
    assert main(argv) == 2
    assert os.path.getmtime(cache) == before
    # a cache written without the setup hash is refused as well
    ball = load_config(rig["config"])
    untagged = str(tmp_path / "untagged.npz")
    graph = BoundaryGraph.load(cache, Domain.from_spec(ball.domain_spec),
                               standard_structure(4))
    del graph.params["setup"]
    graph.save(untagged)
    argv = ["dist", "--metric", "g", "--pairs", pairs, "--config",
            rig["config"], "--out", str(tmp_path / "out_untagged"),
            "--graph-cache", untagged]
    assert main(argv) == 2


def test_graph_cache_refuses_asymmetric_adjacency(rig, tmp_path, capsys):
    pairs = write_pairs(rig["root"] / "pairs_s.csv", [SAME])
    code, _ = run(rig, "dist", "out_cache_sym", "--metric", "g",
                  "--pairs", pairs)
    assert code == 0
    with np.load(rig["cache"] + ".npz", allow_pickle=False) as z:
        arrays = {key: z[key] for key in z.files}
    # one direction of one edge changes; the setup hash stays valid
    arrays["data"] = arrays["data"].copy()
    arrays["data"][0] *= 2.0
    bad = str(tmp_path / "asymmetric.npz")
    np.savez_compressed(bad, **arrays)
    capsys.readouterr()
    argv = ["dist", "--metric", "g", "--pairs", pairs, "--config",
            rig["config"], "--out", str(tmp_path / "out_asym"),
            "--graph-cache", bad]
    assert main(argv) == 2
    assert "not symmetric" in capsys.readouterr().err


def test_delta_rejects_kobayashi_metric(rig):
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--config", rig["config"], "--metric", "kob"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# qi
# ---------------------------------------------------------------------------

def test_qi_d_reports_closing_envelope(rig):
    code, out = run(rig, "qi", "out_qi_d", "--metric", "d")
    assert code == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["comparison"] == ["g", "d"]
    assert rep["C"] >= 1.0
    assert rep["violations"] == 0
    assert rep["n_pairs"] == 1000
    assert rep["Cprime"] >= 0.0
    # the additive gap estimate runs over the very same pairs, and the
    # graph metric dominates the two-point formula, so the closing
    # constant at the fitted multiplier cannot exceed it
    assert rep["Cprime"] <= rep["estimate_C"] + 1e-9
    assert rep["residual_q50"] <= rep["residual_q90"] + 1e-12


# ---------------------------------------------------------------------------
# orbit and lipschitz
# ---------------------------------------------------------------------------

def test_orbit_with_config_map_classifies_bounded(rig, tmp_path):
    raw = read_json(rig["config"])
    raw["map"] = {"type": "affine_contraction", "p": [0.0, 0.0, 0.0, 0.0],
                  "rate": 0.5}
    path = write_json(tmp_path / "orbit.json", raw)
    out = str(tmp_path / "out_orbit")
    code = main(["orbit", "--config", path, "--out", out,
                 "--graph-cache", rig["cache"]])
    assert code == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["verdict"] == "Bounded"
    assert rep["point"] is None
    assert rep["map"]["type"] == "affine_contraction"
    assert rep["n_starts"] == 20
    assert rep["semicontraction"]["pass"] is True
    assert rep["semicontraction"]["escaped"] is False

    rows = read_csv(os.path.join(out, "orbits.csv"))
    assert rows[0] == ["orbit", "step", "x1", "x2", "x3", "x4", "height"]
    orbit_ids = {int(r[0]) for r in rows[1:]}
    assert orbit_ids == set(range(20))
    first = [r for r in rows[1:] if r[0] == "0"]
    heights = np.array([float(r[6]) for r in first])
    assert np.all(np.diff(heights) > -1e-12)


def test_orbit_requires_a_map(rig):
    code, _ = run(rig, "orbit", "out_orbit_nomap")
    assert code == 2


def test_lipschitz_rotation_stays_near_isometry(rig):
    spec = write_json(rig["root"] / "rot.json",
                      {"type": "rotation", "angles": [0.9, 0.4]})
    code, out = run(rig, "lipschitz", "out_lip", "--map", spec)
    assert code == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["ok"] is True
    assert 0.2 < rep["ratio"] < 5.0
    assert rep["floor"] > 0
    assert 0 < rep["n_pairs"] <= 4096


def test_lipschitz_rejects_interior_image(rig):
    spec = write_json(rig["root"] / "shrink.json",
                      {"type": "affine_contraction",
                       "p": [0.0, 0.0, 0.0, 0.0], "rate": 0.5})
    code, out = run(rig, "lipschitz", "out_lip_bad", "--map", spec)
    assert code == 1
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["ok"] is False
    assert rep["error"]


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

def test_geodesic_radial_pair_and_error_row(rig):
    pairs = write_pairs(rig["root"] / "pairs_geo.csv", [RADIAL, "1,2,3"])
    code, out = run(rig, "geodesic", "out_geo", "--pairs", pairs)
    assert code == 0
    rep = read_json(os.path.join(out, "report.json"))
    assert rep["n_pairs"] == 2
    assert rep["n_errors"] == 1
    good, bad = rep["geodesics"]
    assert bad == {"pair": 1, "error": "parse"}
    want = 0.5 * math.log(0.3 / 0.05)
    assert abs(good["d_value"] - want) < 1e-6
    assert abs(good["g_length"] - good["d_value"]) < 1e-6
    assert good["n_points"] == len(good["points"])
    assert len(good["segment_g"]) == good["n_points"] - 1

    rows = read_csv(os.path.join(out, "geodesic.csv"))
    assert rows[0] == ["pair", "vertex", "x1", "x2", "x3", "x4", "param"]
    params = [float(r[6]) for r in rows[1:]]
    assert params[0] == 0.0
    assert all(b >= a for a, b in zip(params, params[1:]))
