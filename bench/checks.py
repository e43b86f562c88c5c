"""Output checks for one benchmark session, computed apart from hypkob.

Every command is an operation and so is every ``dist`` row. Each is
checked against a value the benchmark computes itself (heights, depths,
segment lengths, the classifier's verdict from independently computed
orbit heights) or against a property the method must have (``g <= d``,
the triangle inequality, finite constants). Nothing is compared with
stored output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.optimize import brentq

from workloads import ELLIPSOID_AXES

LN4 = math.log(4.0)
REL = 1e-9          # rounding slack for identities that hold exactly


def _slack(*vals) -> float:
    return REL * max(1.0, *(abs(float(v)) for v in vals))


# ---------------------------------------------------------------------------
# independent depths
# ---------------------------------------------------------------------------

def ellipsoid_depth(x, axes=ELLIPSOID_AXES) -> float:
    """Distance from an interior point to the ellipsoid boundary.

    The nearest point is ``p_i = a_i^2 x_i / (a_i^2 - t)`` with the
    multiplier ``t`` the root in ``[0, min a_i^2)`` of
    ``sum (a_i x_i / (a_i^2 - t))^2 = 1``; the left side increases in
    ``t`` there, so the root is unique and bracketed.
    """
    x = np.asarray(x, dtype=float)
    a2 = np.asarray(axes, dtype=float) ** 2

    def f(t):
        return float(np.sum(a2 * x * x / (a2 - t) ** 2) - 1.0)

    hi = float(a2.min())
    top = hi * (1.0 - 1e-15)
    if f(0.0) >= 0.0:
        raise ValueError("point is not interior")
    if f(top) <= 0.0:
        raise ValueError("multiplier root not bracketed")
    t = brentq(f, 0.0, top, xtol=1e-15, rtol=1e-15, maxiter=500)
    p = a2 * x / (a2 - t)
    return float(np.linalg.norm(p - x))


def depth(domain: str, x) -> float:
    if domain == "ball":
        return 1.0 - float(np.linalg.norm(x))
    return ellipsoid_depth(x)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def _report(out: str) -> dict:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _dist_rows(out: str) -> list:
    with open(os.path.join(out, "dist.csv"), newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        next(rd)
        return list(rd)


def _orbit_starts(out: str) -> np.ndarray:
    starts = []
    with open(os.path.join(out, "orbits.csv"), newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        next(rd)
        for rec in rd:
            if rec[1] == "0":
                starts.append([float(v) for v in rec[2:6]])
    return np.asarray(starts)


# ---------------------------------------------------------------------------
# per-command checks; each returns a list of problems (empty: passed)
# ---------------------------------------------------------------------------

def check_dist(wl, out: str) -> tuple[list, dict]:
    """Row checks; returns command problems and problems per row index."""
    recs = _dist_rows(out)
    rep = _report(out)
    problems = []
    if rep.get("n_rows") != len(wl.rows) or len(recs) != len(wl.rows):
        problems.append(f"dist returned {len(recs)} rows for {len(wl.rows)}")
        return problems, {}
    rows = {}
    d_vals = {}
    for i, (row, rec) in enumerate(zip(wl.rows, recs)):
        bad = []
        coords = np.array([float(v) for v in rec[:8]]) if all(rec[:8]) else None
        if coords is None or not np.array_equal(coords,
                                                np.concatenate([row.x, row.y])):
            bad.append("row does not echo its input pair")
        if rec[11]:
            bad.append(f"row error {rec[11]}")
        else:
            g, d, up = (float(v) for v in rec[8:11])
            d_vals[i] = d
            if not all(math.isfinite(v) for v in (g, d, up)) or g < 0:
                bad.append("non-finite or negative value")
            else:
                if g > d + _slack(g, d):
                    bad.append(f"g {g!r} > d {d!r}")
                # `upper` is the g-length of the composite witness path; it
                # bounds d only while the path stays in the collar, and
                # falls below d once an endpoint is deeper (see README)
                if row.kind == "collar" and d > up + _slack(d, up):
                    bad.append(f"d {d!r} > upper {up!r}")
                tx = depth(wl.domain, row.x)
                ty = depth(wl.domain, row.y)
                vert = 0.5 * abs(math.log(tx / ty))      # |ln(h_x / h_y)|
                if d < vert - _slack(d, vert):
                    bad.append(f"d {d!r} < |ln(h_x/h_y)| {vert!r}")
                if row.kind != "collar" and d < abs(tx - ty) - _slack(d):
                    bad.append(f"d {d!r} < |t_x - t_y| {abs(tx - ty)!r}")
                if row.kind in ("ray", "near_centre"):
                    seg = float(np.linalg.norm(row.x - row.y))
                    if abs(d - seg) > 1e-12 + REL * seg:
                        bad.append(f"same-ray d {d!r} != |x - y| {seg!r}")
        if bad:
            rows[i] = bad
    # triangle inequality: rows (a,b), (b,c), (a,c) of each triangle
    for i in range(0, len(wl.rows) - 2):
        r0, r2 = wl.rows[i], wl.rows[i + 2]
        if r0.triangle is None or r0.triangle != r2.triangle or \
                wl.rows[i + 1].triangle != r0.triangle:
            continue
        if not all(k in d_vals for k in (i, i + 1, i + 2)):
            continue
        ab, bc, ac = d_vals[i], d_vals[i + 1], d_vals[i + 2]
        if ac > ab + bc + _slack(ab, bc, ac):
            rows.setdefault(i + 2, []).append(
                f"triangle inequality: {ac!r} > {ab!r} + {bc!r}")
    return problems, rows


def check_delta(cmd, out: str) -> list:
    rep = _report(out)
    problems = []
    if rep["n_quadruples"] != cmd.expect["n_quadruples"]:
        problems.append(f"counted {rep['n_quadruples']} quadruples")
    delta = rep["delta"]
    if not (math.isfinite(delta) and delta >= 0):
        problems.append(f"delta {delta!r} not finite and >= 0")
    if rep.get("failures", 0) != 0:
        problems.append(f"{rep['failures']} failed quadruples")
    if cmd.expect.get("ln4") and delta > LN4 + 1e-9:
        problems.append(f"delta of g {delta!r} > ln 4")
    return problems


def check_qi(cmd, out: str) -> list:
    rep = _report(out)
    problems = []
    if rep["violations"] != 0:
        problems.append(f"{rep['violations']} violations")
    if not rep["C"] >= 1.0:
        problems.append(f"C {rep['C']!r} < 1")
    if not math.isfinite(rep["Cprime"]):
        problems.append("C' not finite")
    # at C = 1 the closing constant of d against g is sup(d - g) = estimate_C
    if "estimate_C" in rep and rep["C"] == 1.0 and \
            abs(rep["Cprime"] - rep["estimate_C"]) > _slack(rep["Cprime"]):
        problems.append(f"C' {rep['Cprime']!r} != estimate_C "
                        f"{rep['estimate_C']!r}")
    return problems


def check_orbit(wl, cmd, out: str) -> list:
    rep = _report(out)
    problems = []
    want = cmd.expect["verdict"]
    if want == "rotation":
        # A rotation keeps every height, so the tail heights are the start
        # heights; the classifier says Bounded exactly when all of them
        # clear its floor (0.05 sqrt(eps)), and Inconclusive otherwise.
        starts = _orbit_starts(out)
        h = np.sqrt([depth(wl.domain, x) for x in starts])
        tails = np.asarray(rep["evidence"]["tail_min_heights"])
        if tails.shape != h.shape or np.max(np.abs(tails - h)) > 1e-6:
            problems.append("rotation orbit heights drift from start heights")
        floor = rep["evidence"]["bounded_floor"]
        want = "Bounded" if np.all(h >= floor) else "Inconclusive"
    if rep.get("verdict") != want:
        problems.append(f"verdict {rep.get('verdict')!r}, expected {want!r}")
    elif want == "ConvergesTo":
        gap = float(np.linalg.norm(np.asarray(rep["point"])
                                   - np.asarray(cmd.expect["p"])))
        if gap > 0.05:
            problems.append(f"limit point {gap:.3g} from p")
    if not rep.get("semicontraction", {}).get("pass", False):
        problems.append("semicontraction audit failed")
    return problems


def check_command(wl, cmd, code: int) -> tuple[list, dict]:
    """Problems of one command and, for ``dist``, problems per row."""
    if code != 0:
        return [f"exit code {code}"], {}
    try:
        if cmd.name == "dist":
            return check_dist(wl, cmd.out)
        if cmd.name == "check":
            return ([] if _report(cmd.out)["ok"] else ["checks not ok"]), {}
        if cmd.name == "delta":
            return check_delta(cmd, cmd.out), {}
        if cmd.name == "qi":
            return check_qi(cmd, cmd.out), {}
        if cmd.name.startswith("orbit"):
            return check_orbit(wl, cmd, cmd.out), {}
        if cmd.name == "lipschitz":
            rep = _report(cmd.out)
            ok = rep.get("ok") and math.isfinite(rep.get("ratio", math.nan))
            return ([] if ok else ["lipschitz not ok"]), {}
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    raise ValueError(f"no check for command {cmd.name!r}")
