"""Command-line front end.

Seven subcommands share one configuration format: structural checks,
batch distances, four-point constants, sandwich fits, orbit runs,
geodesic extraction, and boundary-map dilatation bounds. Reports are
JSON with sorted keys and no timestamps, so a rerun with the same
configuration and seeds reproduces them byte for byte; the per-run
manifest carries the config hash, seeds, library versions, and the
timestamp.

Exit codes: 0 pass, 1 analysis failure, 2 usage or configuration error,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
import traceback

import numpy as np
import scipy

from . import __version__
from .errors import (HypkobError, ConfigError, DegenerateContact,
                     ImageOffBoundary, MapEscapedDomain)
from ._util import dump_json
from .config import RunConfig, Workspace, load_config, build_workspace
from .structures import check_structure, check_strict_convexity, contact_batch
from .boundary import BoundaryMap, lipschitz_details
from .metrics import PreparedPoints, path_length
from .layered import LayeredSolver
from .kobayashi import qi_check, quasi_isometry_fit
from .gromov import BoxSampler, BoundaryBiasedSampler, four_point_delta
from .dynamics import (map_from_spec, iterate_many, classify_orbit,
                       check_semicontraction)

__all__ = ["main", "build_parser"]

_KIND = {"g": "g", "d": "d", "kob": "kobayashi_estimate", "euclid": "euclidean"}

# rows per ``LayeredSolver.distances`` call of ``dist --metric kob``: each
# call's Dijkstra output holds two sources per row over the whole grid
_KOB_BLOCK = 32


def _err(msg) -> None:
    print(f"hypkob: error: {msg}", file=sys.stderr)


def _fmt(v: float) -> str:
    return repr(float(v))


def _versions() -> dict:
    return {
        "hypkob": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------

def read_pair_rows(path: str, dim: int) -> list:
    """Rows of a pairs CSV as (ok, x, y) triples.

    Each data row holds the two endpoints flattened to ``2 * dim``
    numbers. Comment (``#``) and blank rows are skipped, and the first
    other row is treated as a header when it is not numeric; rows that
    fail to parse come back with ``ok`` false and are reported per row
    rather than aborting the run.
    """
    rows = []
    first = True
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for rec in csv.reader(fh):
            rec = [c.strip() for c in rec if c.strip() != ""]
            if not rec or rec[0].startswith("#"):
                continue
            header, first = first, False
            try:
                vals = [float(c) for c in rec]
            except ValueError:
                if not header:
                    rows.append((False, None, None))
                continue
            if len(vals) != 2 * dim:
                rows.append((False, None, None))
                continue
            arr = np.asarray(vals, dtype=float)
            rows.append((True, arr[:dim], arr[dim:]))
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args, cfg: RunConfig, ws: Workspace):
    seed = cfg.seeds["sampler"]
    bpts = ws.domain.sample_boundary(128, seed=seed)
    structure_rep = check_structure(ws.structure, bpts)
    conv = check_strict_convexity(ws.domain, ws.structure, n_samples=64,
                                  seed=seed)
    contact = {"ok": True, "n_points": int(min(64, bpts.shape[0])), "error": ""}
    try:
        contact_batch(ws.domain, ws.structure, bpts[:64])
    except DegenerateContact as exc:
        contact = {"ok": False, "n_points": int(min(64, bpts.shape[0])),
                   "error": str(exc)}
    checks = {
        "structure": structure_rep,
        "convexity": {
            "ok": bool(conv.ok),
            "min_eigenvalue": float(conv.min_eigenvalue),
            "n_points": int(conv.n_points),
            "worst_point": conv.worst_point,
        },
        "contact": contact,
    }
    ok = bool(structure_rep["ok"] and conv.ok and contact["ok"])
    report = {
        "command": "check",
        "ok": ok,
        "epsilon": float(ws.epsilon),
        "dimension": int(ws.domain.dim),
        "checks": checks,
    }
    return report, (0 if ok else 1)


def _upper(fam, pl) -> float:
    """The ``upper`` column of ``dist``: the exact g-length of a witness
    path."""
    return path_length(pl, fam, "g")


def _witness_paths(fam, X, Y) -> tuple:
    """Witness paths of row pairs, the one driver of ``dist --metric d``
    and ``geodesic``.

    One ``prepare`` call projects every endpoint, and one
    ``composite_upper_paths`` call builds every path with its ``d``; each
    path's g-length (``_upper``) is measured on its own. Returns the
    prepared endpoints ``A`` and ``B``, the paths, their ``d`` values and
    their g-lengths. Both commands call it once over all parsed rows and,
    when that raises, once per row, so a bad row marks only itself.
    """
    m = len(X)
    P = fam.prepare(np.concatenate([X, Y]))
    A, B = P.take(np.arange(m)), P.take(np.arange(m, 2 * m))
    paths, dval = fam.composite_upper_paths(A, B)
    return A, B, paths, dval, [_upper(fam, pl) for pl in paths]


def _batch_values(fam, kind: str, X, Y, solver=None) -> list:
    """The value columns of ``dist`` for each pair of rows.

    ``[g]`` for kind ``g``, ``[g, d, upper]`` for kind ``d``, ``[k]`` for
    the estimate and ``[|x - y|]`` for ``euclidean``, which prepares
    nothing. Otherwise one ``prepare`` call projects every endpoint: kind
    ``d`` runs ``_witness_paths``, and one ``g_pairs`` call evaluates
    ``g``. The estimate runs ``solver.distances`` over blocks of at most
    ``_KOB_BLOCK`` rows and reads each row's (x, y) entry. The per-row
    fallback of ``dist`` calls it on a single pair.
    """
    m = len(X)
    if kind == "euclidean":
        return [[float(np.linalg.norm(x - y))] for x, y in zip(X, Y)]
    if kind == "d":
        A, B, _, dval, upper = _witness_paths(fam, X, Y)
        cols = [fam.g_pairs(A, B), dval, upper]
        return [[float(c[k]) for c in cols] for k in range(m)]
    P = fam.prepare(np.concatenate([X, Y]))
    if kind == "kobayashi_estimate":
        out = []
        for lo in range(0, m, _KOB_BLOCK):
            idx = np.arange(lo, min(lo + _KOB_BLOCK, m))
            D = solver.distances(P.take(np.concatenate([idx, m + idx])))
            out += [[float(D[i, idx.size + i])] for i in range(idx.size)]
        return out
    g = fam.g_pairs(P.take(np.arange(m)), P.take(np.arange(m, 2 * m)))
    return [[float(v)] for v in g]


def _row_batch(rows, evaluate) -> dict:
    """``evaluate(X, Y)`` over every parsed row at once, keyed by row index.

    Empty when no row parsed or when the batch raises a toolkit error;
    the caller then evaluates the rows one at a time.
    """
    idx = [i for i, (ok, _, _) in enumerate(rows) if ok]
    if not idx:
        return {}
    try:
        return dict(zip(idx, evaluate([rows[i][1] for i in idx],
                                      [rows[i][2] for i in idx])))
    except HypkobError:
        return {}


def _cmd_dist(args, cfg: RunConfig, ws: Workspace):
    kind = _KIND[args.metric]
    rows = read_pair_rows(args.pairs, ws.domain.dim)
    fam = ws.family
    if kind == "kobayashi_estimate":
        ws.layered = LayeredSolver(fam, "kobayashi")
    batch = _row_batch(rows, lambda X, Y: _batch_values(fam, kind, X, Y,
                                                        ws.layered))
    dim = ws.domain.dim
    header = [f"x{i + 1}" for i in range(dim)] + [f"y{i + 1}" for i in range(dim)]
    if kind == "d":
        header += ["lower", "value", "upper", "error"]
    else:
        header += ["value", "error"]
    out_path = os.path.join(cfg.out_dir, "dist.csv")
    n_err = 0
    values = []
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for i, (ok, x, y) in enumerate(rows):
            if not ok:
                n_err += 1
                wr.writerow([""] * (2 * dim)
                            + [""] * (len(header) - 2 * dim - 1) + ["parse"])
                continue
            coords = [_fmt(v) for v in x] + [_fmt(v) for v in y]
            try:
                vals = (batch[i] if i in batch else
                        _batch_values(fam, kind, [x], [y], ws.layered)[0])
                # d's value column sits between its lower and upper columns
                values.append(float(vals[1] if kind == "d" else vals[0]))
                wr.writerow(coords + [_fmt(v) for v in vals] + [""])
            except HypkobError as exc:
                n_err += 1
                wr.writerow(coords + [""] * (len(header) - 2 * dim - 1)
                            + [type(exc).__name__])
    report = {
        "command": "dist",
        "metric": args.metric,
        "n_rows": len(rows),
        "n_errors": n_err,
        "csv": "dist.csv",
    }
    if values:
        arr = np.asarray(values)
        report["value_min"] = float(arr.min())
        report["value_max"] = float(arr.max())
        report["value_mean"] = float(arr.mean())
    return report, 0


def _cmd_delta(args, cfg: RunConfig, ws: Workspace):
    kind = _KIND[args.metric]
    if kind == "kobayashi_estimate":
        raise ConfigError("four-point sampling supports metrics g, d, euclid")
    if kind == "euclidean":
        sampler = BoxSampler(ws.domain, cfg.seeds["sampler"])
    else:
        sampler = BoundaryBiasedSampler(ws.family, cfg.seeds["sampler"])
    rep = four_point_delta(ws.family, kind, sampler,
                           n_quadruples=args.n_quadruples,
                           seed=cfg.seeds["quadruples"])
    report = {
        "command": "delta",
        "metric": args.metric,
        "delta": float(rep.delta),
        "worst_defect": float(rep.worst_defect),
        "defect_q99": float(rep.defect_q99),
        "n_quadruples": int(rep.n_quadruples),
        "failures": int(rep.failures),
        "seed": int(rep.seed),
        "worst_points": rep.worst_points,
    }
    return report, 0


def _cmd_qi(args, cfg: RunConfig, ws: Workspace):
    fam = ws.family
    # the sampler's points come prepared from their construction, so g
    # and d project none of them
    sampler = BoundaryBiasedSampler(fam, cfg.seeds["pairs"])
    if args.metric == "kob":
        pool = sampler.sample(46)
        ws.layered = LayeredSolver(fam, "kobayashi")
        rep = qi_check(ws.layered, pool)
        report = {
            "command": "qi",
            "comparison": ["g", "kob"],
            "n_pool": len(pool),
        }
    elif args.metric == "d":
        P = sampler.sample(1000)
        rng = np.random.default_rng(cfg.seeds["pairs"] + 1)
        Q = sampler.sample(1000, seed=int(rng.integers(1 << 31)))
        G = fam.g_pairs(P, Q)
        D = fam.d_pairs(P, Q)
        rep = quasi_isometry_fit(G, D)
        report = {
            "command": "qi",
            "comparison": ["g", "d"],
            "estimate_C": float(np.max(D - G)),
        }
    else:
        raise ConfigError("the sandwich fit compares d or kob against g")
    report.update({
        "C": float(rep.C),
        "Cprime": float(rep.Cprime),
        "n_pairs": int(rep.n_pairs),
        "residual_q50": float(rep.residual_q50),
        "residual_q90": float(rep.residual_q90),
        "violations": int(rep.violations),
    })
    return report, (0 if rep.violations == 0 else 1)


def _load_map_spec(args, cfg: RunConfig) -> dict:
    if getattr(args, "map", None):
        path = args.map
        if not os.path.exists(path):
            raise ConfigError(f"map spec file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"map spec is not valid JSON: {exc}") from exc
        return spec
    if cfg.map_spec is not None:
        return cfg.map_spec
    raise ConfigError("this command needs a map: pass --map or add a "
                      "'map' entry to the config")


def _cmd_orbit(args, cfg: RunConfig, ws: Workspace):
    spec = _load_map_spec(args, cfg)
    F = map_from_spec(spec)
    n_starts, n_max = 20, 200
    starts = ws.domain.sample_interior(n_starts, seed=cfg.seeds["orbits"])
    report = {"command": "orbit", "map": spec, "n_starts": n_starts,
              "n_max": n_max}
    try:
        orbits = iterate_many(F, ws.projection, starts, n_max=n_max)
    except MapEscapedDomain as exc:
        report.update({"verdict": "Escaped", "error": str(exc)})
        return report, 1
    verdict = classify_orbit(ws.family, orbits)
    semi = check_semicontraction(F, ws.family, "d", n_pairs=128,
                                 seed=cfg.seeds["pairs"])
    dim = ws.domain.dim
    out_path = os.path.join(cfg.out_dir, "orbits.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["orbit", "step"] + [f"x{i + 1}" for i in range(dim)]
                    + ["height"])
        for k, orb in enumerate(orbits):
            for step in range(orb.points.shape[0]):
                wr.writerow([k, step] + [_fmt(v) for v in orb.points[step]]
                            + [_fmt(orb.heights[step])])
    report.update({
        "verdict": verdict.kind,
        "point": verdict.point,
        "evidence": verdict.evidence,
        "semicontraction": semi,
        "csv": "orbits.csv",
    })
    return report, 0


def _segment_separations(graph, i, j) -> np.ndarray:
    """Separations of consecutive witness-path vertices on nodes ``i`` and
    ``j``: 0 where the nodes are one, else the weight of the edge between
    them, which is the Dijkstra entry of a shortest path's step. Any other
    pair means the path was built wrong, and raises ``RuntimeError``."""
    i, j = np.asarray(i), np.asarray(j)
    W = np.asarray(graph.adjacency[i, j], dtype=float).reshape(-1)
    bad = (W == 0) & (i != j)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise RuntimeError(f"witness path steps from node {int(i[k])} to "
                           f"node {int(j[k])}, which is not adjacent to it")
    return W


def _geodesic_values(fam, X, Y) -> list:
    """(path, d, g-length, segment g values) for each pair of rows.

    The paths come from ``_witness_paths``. Each segment's ``g`` takes its
    separation from the adjacency (``_segment_separations``), so no
    distance row is computed for it.
    """
    _, _, paths, dval, upper = _witness_paths(fam, X, Y)
    sizes = np.array([pl.points.shape[0] for pl in paths])
    V = PreparedPoints.concat([pl.prepared for pl in paths])
    # every vertex but a path's last starts one of its segments
    lo = np.delete(np.arange(len(V)), np.cumsum(sizes) - 1)
    A, B = V.take(lo), V.take(lo + 1)
    W = _segment_separations(fam.graph, A.node, B.node)
    seg = np.split(fam._aligned("g", W, A, B), np.cumsum(sizes - 1)[:-1])
    return list(zip(paths, dval, upper, seg))


def _cmd_geodesic(args, cfg: RunConfig, ws: Workspace):
    rows = read_pair_rows(args.pairs, ws.domain.dim)
    fam = ws.family
    batch = _row_batch(rows, lambda X, Y: _geodesic_values(fam, X, Y))
    dim = ws.domain.dim
    out_path = os.path.join(cfg.out_dir, "geodesic.csv")
    entries = []
    n_err = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["pair", "vertex"] + [f"x{i + 1}" for i in range(dim)]
                    + ["param"])
        for i, (ok, x, y) in enumerate(rows):
            if not ok:
                n_err += 1
                entries.append({"pair": i, "error": "parse"})
                continue
            try:
                pl, dval, glen, seg = (batch[i] if i in batch else
                                       _geodesic_values(fam, [x], [y])[0])
            except HypkobError as exc:
                n_err += 1
                entries.append({"pair": i, "error": type(exc).__name__})
                continue
            params = pl.params()
            for j in range(pl.points.shape[0]):
                wr.writerow([i, j] + [_fmt(v) for v in pl.points[j]]
                            + [_fmt(params[j])])
            entries.append({
                "pair": i,
                "n_points": int(pl.points.shape[0]),
                "d_value": float(dval),
                "g_length": float(glen),
                "segment_g": [float(v) for v in seg],
                "points": pl.points,
            })
    report = {
        "command": "geodesic",
        "n_pairs": len(rows),
        "n_errors": n_err,
        "geodesics": entries,
        "csv": "geodesic.csv",
    }
    return report, 0


def _cmd_lipschitz(args, cfg: RunConfig, ws: Workspace):
    spec = _load_map_spec(args, cfg)
    F = map_from_spec(spec)
    bmap = BoundaryMap(F, name=F.name)
    report = {"command": "lipschitz", "map": spec}
    try:
        rep = lipschitz_details(ws.graph, ws.graph, bmap, n_pairs=4096,
                                seed=cfg.seeds["pairs"])
    except ImageOffBoundary as exc:
        report.update({"ok": False, "error": str(exc)})
        return report, 1
    report.update({
        "ok": True,
        "ratio": float(rep.ratio),
        "n_pairs": int(rep.n_pairs),
        "floor": float(rep.floor),
    })
    return report, 0


_HANDLERS = {
    "check": (_cmd_check, False),
    "dist": (_cmd_dist, True),
    "delta": (_cmd_delta, True),
    "qi": (_cmd_qi, True),
    "orbit": (_cmd_orbit, True),
    "geodesic": (_cmd_geodesic, True),
    "lipschitz": (_cmd_lipschitz, True),
}


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--config", required=True, help="run configuration JSON")
    sp.add_argument("--seed", type=int, default=None,
                    help="override every configured seed")
    sp.add_argument("--out", default=None, help="output directory override")
    sp.add_argument("--graph-cache", default=None,
                    help="boundary graph cache file (.npz); its distance "
                    "rows go in a .rows file next to it")
    sp.add_argument("--refine", type=int, default=0,
                    help="graph refinement rounds after build or load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypkob",
        description="Boundary-anchored metrics on strictly pseudoconvex "
                    "domains: checks, distances, and orbit analyses.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="structural and convexity checks")
    _add_common(sp)

    sp = sub.add_parser("dist", help="batch distances for a pairs file")
    _add_common(sp)
    sp.add_argument("--metric", choices=["g", "d", "kob", "euclid"],
                    default="g")
    sp.add_argument("--pairs", required=True, help="CSV of point pairs")

    sp = sub.add_parser("delta", help="sampled four-point constant")
    _add_common(sp)
    sp.add_argument("--metric", choices=["g", "d", "euclid"], default="g")
    sp.add_argument("--n-quadruples", type=int, default=20000)

    sp = sub.add_parser("qi", help="sandwich fit against the log metric")
    _add_common(sp)
    sp.add_argument("--metric", choices=["d", "kob"], default="kob",
                    help="metric compared against g")

    sp = sub.add_parser("orbit", help="iterate a self-map and classify")
    _add_common(sp)
    sp.add_argument("--map", default=None, help="map spec JSON file")

    sp = sub.add_parser("geodesic", help="minimizing polylines for pairs")
    _add_common(sp)
    sp.add_argument("--pairs", required=True, help="CSV of point pairs")

    sp = sub.add_parser("lipschitz", help="boundary dilatation of a map")
    _add_common(sp)
    sp.add_argument("--map", default=None, help="map spec JSON file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seeds = {k: int(args.seed) for k in cfg.seeds}
        if args.out:
            cfg.out_dir = os.path.abspath(args.out)
    except (ConfigError, OSError) as exc:
        _err(exc)
        return 2
    handler, needs_graph = _HANDLERS[args.command]
    clock = time.perf_counter()
    try:
        ws = build_workspace(cfg, refine=args.refine,
                             graph_cache=args.graph_cache,
                             with_graph=needs_graph)
    except ConfigError as exc:
        _err(exc)
        return 2
    except HypkobError as exc:
        _err(exc)
        return 3
    # wall seconds of the command's stages; the graph's build or load is
    # part of the workspace's
    timings = {"workspace_s": time.perf_counter() - clock,
               "graph_s": ws.graph_s}
    if ws.graph is not None and ws.graph.build_timings is not None:
        timings["graph_build"] = dict(ws.graph.build_timings)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        clock = time.perf_counter()
        report, code = handler(args, cfg, ws)
        timings["handler_s"] = time.perf_counter() - clock
        # rows this command computed join the cache for later commands
        clock = time.perf_counter()
        if ws.graph_cache and ws.graph.row_counts["computed"]:
            ws.graph.save(ws.graph_cache)
        timings["save_s"] = time.perf_counter() - clock
    except ConfigError as exc:
        _err(exc)
        return 2
    except (HypkobError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _err(f"{type(exc).__name__}: {exc}")
        return 3
    except OSError as exc:
        _err(exc)
        return 2
    except Exception as exc:
        traceback.print_exc()
        _err(f"unexpected failure: {type(exc).__name__}")
        return 3
    dump_json(report, os.path.join(cfg.out_dir, "report.json"))
    if ws.domain.cloud_s is not None:
        timings["cloud_s"] = ws.domain.cloud_s
    counters = {"projection": dict(ws.projection.counts)}
    dijkstra = {}
    if ws.graph is not None:
        dijkstra["graph"] = dict(ws.graph.dijkstra_counts)
    if ws.layered is not None:
        counters["layered"] = dict(ws.layered.counts)
        dijkstra["ladder"] = dict(ws.layered.dijkstra_counts)
    if dijkstra:
        counters["dijkstra"] = dijkstra
    manifest = {
        "command": args.command,
        "config_hash": cfg.hash(),
        "seeds": cfg.seeds,
        "refine": int(args.refine),
        "graph": ws.graph.params if ws.graph is not None else None,
        "graph_rows": (dict(ws.graph.row_counts) if ws.graph is not None
                       else None),
        # "cache" or "sampled"; None when the command used no cloud
        "boundary_cloud": ws.domain.cloud_source,
        "counters": counters,
        "timings": timings,
        "versions": _versions(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    dump_json(manifest, os.path.join(cfg.out_dir, "manifest.json"))
    print(f"{args.command}: {'pass' if code == 0 else 'fail'} "
          f"(exit {code}); report in {cfg.out_dir}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
