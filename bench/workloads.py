"""Seeded inputs and command sequences for the benchmark workloads.

A workload is a fixed list of ``hypkob`` CLI commands. ``make_workload``
writes every input those commands read (run config, pairs CSV, map
specs) into a run directory, derived only from the workload seed, and
returns the commands together with what the checks need to know about
the generated rows. The program sees nothing but these files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

WORKLOADS = ("collar", "deep", "ellipsoid")

BALL_SPEC = {"dimension": 4, "defining_function": {"type": "ball"}}
ELLIPSOID_AXES = (1.0, 1.0, 0.7, 0.7)
ELLIPSOID_SPEC = {"dimension": 4,
                  "defining_function": {"type": "ellipsoid",
                                        "semi_axes": list(ELLIPSOID_AXES)}}
# Reach of the (1, 1, 0.7, 0.7) ellipsoid is its smallest curvature
# radius b^2/a = 0.49; the program's default collar is half of its
# sampled estimate. Generated collar points stay below 0.9 of this.
ELLIPSOID_EPS = 0.5 * 0.49

# The near-centre rows of `deep` do not depend on the workload seed: they
# fail on every run today (see README), and a failure share that moved
# with the seed could not be compared between runs.
NEAR_CENTRE_SEED = 2008
NEAR_CENTRE_ROWS = 8
NEAR_CENTRE_RADIUS = 3e-4

ROTATION = {"type": "rotation", "angles": [0.9, 0.4]}
ORBIT_SEED = 0


@dataclass
class Sizes:
    """Input sizes of one workload; ``toy`` shrinks them for the quick test."""

    n_nodes: int
    k_neighbors: int
    triangles: int = 0          # collar triangles, three dist rows each
    deep_pairs: int = 0         # random deep pairs
    ray_pairs: int = 0          # deep pairs on one normal ray
    n_quadruples: int = 20000


FULL = {
    "collar": Sizes(n_nodes=2000, k_neighbors=12, triangles=100,
                    n_quadruples=1_000_000),
    "deep": Sizes(n_nodes=600, k_neighbors=10, deep_pairs=24, ray_pairs=24,
                  n_quadruples=1_000_000),
    "ellipsoid": Sizes(n_nodes=1200, k_neighbors=10, triangles=60,
                       n_quadruples=200_000),
}

TOY = {
    "collar": Sizes(n_nodes=200, k_neighbors=10, triangles=4,
                    n_quadruples=2000),
    "deep": Sizes(n_nodes=150, k_neighbors=10, deep_pairs=3, ray_pairs=3,
                  n_quadruples=2000),
    "ellipsoid": Sizes(n_nodes=200, k_neighbors=10, triangles=3,
                       n_quadruples=2000),
}


@dataclass
class Row:
    """One generated dist row and the properties its output must have."""

    x: np.ndarray
    y: np.ndarray
    kind: str                   # "collar", "deep", "ray" or "near_centre"
    triangle: Optional[int] = None


@dataclass
class Command:
    """One CLI invocation of a session.

    ``timer`` names the end-to-end metric the command's wall time adds to
    (None: it counts only in the session time); ``expect`` holds what the
    checks compare its report against.
    """

    name: str
    timer: Optional[str]
    argv: list
    out: str
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    domain: str                 # "ball" or "ellipsoid"
    config: str
    graph_cache: Optional[str]
    commands: list
    rows: list

    @property
    def ops_per_session(self) -> int:
        """Every command is one operation, and so is every dist row."""
        return len(self.commands) + len(self.rows)


# ---------------------------------------------------------------------------
# point generators
# ---------------------------------------------------------------------------

def _directions(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _ball_collar_points(rng, n: int) -> np.ndarray:
    """Ball points with heights uniform in [0.08, 0.67], |x| in [0.55, 0.994]."""
    h = rng.uniform(0.08, 0.67, n)
    return _directions(rng, n) * (1.0 - h * h)[:, None]


def _ellipsoid_collar_points(rng, n: int) -> np.ndarray:
    """Points at depth h^2 below random ellipsoid boundary points.

    Each point lies on the inward normal of a boundary point, at a depth
    below the reach, so that boundary point is its nearest one.
    """
    a = np.asarray(ELLIPSOID_AXES)
    u = _directions(rng, n)
    p = u / np.sqrt(np.sum(u * u / a**2, axis=1, keepdims=True))
    nrm = p / a**2
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    h = rng.uniform(0.06, math.sqrt(0.9 * ELLIPSOID_EPS), n)
    return p - (h * h)[:, None] * nrm


def _triangle_rows(points: np.ndarray, kind: str) -> list:
    rows = []
    for t in range(points.shape[0] // 3):
        a, b, c = points[3 * t: 3 * t + 3]
        rows += [Row(a, b, kind, t), Row(b, c, kind, t), Row(a, c, kind, t)]
    return rows


def _deep_rows(rng, sizes: Sizes) -> list:
    rows = []
    for _ in range(sizes.deep_pairs):
        x, y = _directions(rng, 2) * rng.uniform(0.05, 0.3, (2, 1))
        rows.append(Row(x, y, "deep"))
    for _ in range(sizes.ray_pairs):
        u = _directions(rng, 1)[0]
        r1, r2 = rng.uniform(0.05, 0.3, 2)
        rows.append(Row(r1 * u, r2 * u, "ray"))
    return rows


def near_centre_rows() -> list:
    """Same-ray pairs (x, x/2) with |x| = 3e-4, fixed for every seed."""
    rng = np.random.default_rng(NEAR_CENTRE_SEED)
    xs = _directions(rng, NEAR_CENTRE_ROWS) * NEAR_CENTRE_RADIUS
    return [Row(x, 0.5 * x, "near_centre") for x in xs]


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def _write_pairs(path: str, rows: list) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{i}" for i in range(1, 5)]
                          + [f"y{i}" for i in range(1, 5)]) + "\n")
        for r in rows:
            fh.write(",".join(repr(float(v)) for v in np.concatenate([r.x, r.y]))
                     + "\n")
    return path


def _seeds(seed: int, index: int) -> dict:
    """Per-task program seeds drawn from the workload seed.

    The orbit starts keep the program's default seed: a start deep enough
    for the per-point projection fallback costs 400 fallback projections
    in a rotation orbit, and where one fell on some seeds and not others
    it doubled `orbit_s` (0.72 s to 1.55 s on `ellipsoid`).
    """
    rng = np.random.default_rng([int(seed) % 2**63, index])
    keys = ("sampler", "pairs", "quadruples", "graph")
    seeds = {k: int(v) for k, v in zip(keys, rng.integers(0, 2**31, len(keys)))}
    seeds["orbits"] = ORBIT_SEED
    return seeds


def make_workload(name: str, seed: int, run_dir: str,
                  toy: bool = False) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``run_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    sizes = (TOY if toy else FULL)[name]
    os.makedirs(run_dir, exist_ok=True)
    index = WORKLOADS.index(name)
    seeds = _seeds(seed, index)
    rng = np.random.default_rng([int(seed) % 2**63, index, 1])
    graph_seed = seeds.pop("graph")

    config = {
        "domain": ELLIPSOID_SPEC if name == "ellipsoid" else BALL_SPEC,
        "graph": {"n_nodes": sizes.n_nodes, "k_neighbors": sizes.k_neighbors,
                  "anisotropy": 8.0, "seed": graph_seed},
        "seeds": seeds,
        "out_dir": "out",
    }
    if name != "ellipsoid":
        config["epsilon"] = 0.5
    cfg_path = _write_json(os.path.join(run_dir, "config.json"), config)

    if name == "collar":
        rows = _triangle_rows(_ball_collar_points(rng, 3 * sizes.triangles),
                              "collar")
        p, rate = [0.6, 0.0, 0.0, 0.8], 0.8
    elif name == "deep":
        rows = _deep_rows(rng, sizes) + near_centre_rows()
        p, rate = [0.1, 0.0, 0.0, 0.0], 0.5
    else:
        rows = _triangle_rows(_ellipsoid_collar_points(rng, 3 * sizes.triangles),
                              "collar")
        p, rate = [1.0, 0.0, 0.0, 0.0], 0.8
    pairs = _write_pairs(os.path.join(run_dir, "pairs.csv"), rows)
    rotation = _write_json(os.path.join(run_dir, "rotation.json"), ROTATION)
    contraction = _write_json(
        os.path.join(run_dir, "contraction.json"),
        {"type": "affine_contraction", "p": p, "rate": rate})

    graph_cache = (os.path.join(run_dir, "graph.npz")
                   if name == "ellipsoid" else None)
    commands = []

    def add(cmd_name, timer, argv, **expect):
        out = os.path.join(run_dir, "out", f"{len(commands):02d}_{cmd_name}")
        full = list(argv) + ["--config", cfg_path, "--out", out]
        if graph_cache and argv[0] != "check":
            full += ["--graph-cache", graph_cache]
        commands.append(Command(cmd_name, timer, full, out, expect))

    def dist():
        add("dist", "dist_s", ["dist", "--metric", "d", "--pairs", pairs])

    def delta(metric, **expect):
        add("delta", "delta_s", ["delta", "--metric", metric, "--n-quadruples",
                                 str(sizes.n_quadruples)],
            n_quadruples=sizes.n_quadruples, **expect)

    def orbit_rotation():
        add("orbit_rotation", "orbit_s", ["orbit", "--map", rotation],
            verdict="rotation")

    def orbit_contraction():
        add("orbit_contraction", "orbit_s", ["orbit", "--map", contraction],
            verdict="Bounded" if name == "deep" else "ConvergesTo", p=p)

    add("check", None, ["check"])
    if name == "collar":
        dist()
        delta("g", ln4=True)
        add("qi", "qi_s", ["qi", "--metric", "d"])
        orbit_rotation()
        orbit_contraction()
    elif name == "deep":
        add("qi", "qi_s", ["qi", "--metric", "kob"])
        dist()
        orbit_contraction()
        delta("d")
    else:
        dist()
        delta("d")
        add("qi", "qi_s", ["qi", "--metric", "d"])
        orbit_rotation()
        orbit_contraction()
    add("lipschitz", None, ["lipschitz", "--map", rotation])
    return Workload(name=name, domain="ellipsoid" if name == "ellipsoid"
                    else "ball", config=cfg_path, graph_cache=graph_cache,
                    commands=commands, rows=rows)
