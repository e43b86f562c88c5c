"""Acceptance gate: ten contractual checks with pinned tolerances.

Each test is one criterion and prints one pass/fail line; run with
``pytest -v tests/test_acceptance.py`` to see the per-criterion verdicts.
The checks run on the unit ball in R^4 with a 2000-node boundary graph
and, where a criterion demands stability, the 4000-node graph built with
the same parameters.
"""

import math
import time

import numpy as np
import pytest

from hypkob.domain import Domain, HeightProjection
from hypkob.structures import standard_structure, contact_batch, levi_matrix
from hypkob.boundary import BoundaryGraph
from hypkob.metrics import MetricFamily, path_length, estimate_C
from hypkob.kobayashi import qi_check
from hypkob.layered import LayeredSolver
from hypkob.gromov import four_point_delta, boundary_product
from hypkob.dynamics import (affine_contraction, rotation_map, iterate_many,
                             classify_orbit)

EPS = 0.5
LOG4 = math.log(4.0)

VERTICAL_TOL = 1e-6          # criterion 1
HORIZONTAL_REL = 0.02        # criterion 2
FOUR_POINT_SLACK = 1e-9      # criterion 3
BRACKET_EPS = 1e-9           # criterion 4
CASE1_BOUND = 2.0 + 0.1      # criterion 4, explicit bound plus solver slack
FLAT_SCALE_REL = 0.20        # criterion 5
BAND_SPREAD_CAP = 10.0       # criterion 6
BAND_DRIFT = 0.25            # criterion 6
QI_DRIFT = 0.15              # criterion 7
CONTACT_REL = 1e-6           # criterion 8
SPREAD_TOL = 1e-2            # criterion 9
TAIL_FLOOR = 0.05 * math.sqrt(EPS)   # criterion 9
LAMBDA_RATIO = 12.0 / 8.0    # criterion 10
GAP_DRIFT = 0.25             # criterion 10


def _line(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    msg = f"criterion {num:02d}: {verdict}  {detail}"
    print(msg)
    assert ok, msg


def _took(ok: bool, elapsed: float) -> str:
    """A wall time for a failing line only, so that passing printouts of
    two runs compare byte for byte."""
    return "" if ok else f" in {elapsed:.1f}s"


@pytest.fixture(scope="module")
def acc():
    dom = Domain.from_spec({"dimension": 4,
                            "defining_function": {"type": "ball"}})
    st = standard_structure(4)
    proj = HeightProjection(dom, EPS)

    def build(n_nodes, anisotropy):
        return BoundaryGraph.build(dom, st, n_nodes=n_nodes, k_neighbors=12,
                                   anisotropy=anisotropy, seed=0)

    g8, g12 = build(2000, 8.0), build(2000, 12.0)
    r8, r12 = build(4000, 8.0), build(4000, 12.0)
    return {
        "domain": dom, "structure": st, "projection": proj,
        "graph8": g8, "graph12": g12, "ref8": r8, "ref12": r12,
        "fam8": MetricFamily(proj, g8), "fam12": MetricFamily(proj, g12),
        "fam8r": MetricFamily(proj, r8), "fam12r": MetricFamily(proj, r12),
    }


def test_criterion_01_vertical_distance_closed_form(acc):
    t0 = time.perf_counter()
    fam = acc["fam8"]
    rng = np.random.default_rng(10)
    idx = rng.integers(0, acc["graph8"].nodes.shape[0], 100)
    h1 = rng.uniform(0.05, 0.4, 100)
    h2 = rng.uniform(0.05, 0.4, 100)
    A = fam.prepare_on_rays(idx, h1**2)
    B = fam.prepare_on_rays(idx, h2**2)
    vals = fam.d_pairs(A, B)
    err = float(np.max(np.abs(vals - np.abs(np.log(h1 / h2)))))
    elapsed = time.perf_counter() - t0
    ok = err <= VERTICAL_TOL and elapsed < 30.0
    _line(1, ok, f"vertical pairs max err {err:.2e}{_took(ok, elapsed)}")


def _horizontal_errors(fam, seed):
    """Max relative mismatch of measured path length against 2 d_H / h."""
    rng = np.random.default_rng(seed)
    graph = fam.graph
    normals = graph.node_normals()
    m = graph.nodes.shape[0]
    out = []
    while len(out) < 50:
        i, j = (int(v) for v in rng.integers(0, m, 2))
        h = float(rng.uniform(0.05, 0.4))
        if i == j:
            continue
        x = graph.nodes[i] - h * h * normals[i]
        y = graph.nodes[j] - h * h * normals[j]
        length = path_length(fam.horizontal_path(x, y), fam, "g")
        _, w = graph.geodesic(graph.nodes[i], graph.nodes[j])
        target = 2.0 * w / h
        out.append(abs(length - target) / target)
    return float(np.max(out))


def test_criterion_02_horizontal_path_length(acc):
    base = _horizontal_errors(acc["fam8"], 11)
    on_refined = _horizontal_errors(acc["fam8r"], 11)
    ok = base <= HORIZONTAL_REL and on_refined <= max(base, 1e-6)
    _line(2, ok, f"horizontal rel err {base:.2e}, {on_refined:.2e} on "
                 f"refined graph")


def test_criterion_03_four_point_bound_for_g(acc):
    t0 = time.perf_counter()
    rep = four_point_delta(acc["fam8"], "g", acc["fam8"].collar_sample,
                           n_quadruples=100000, seed=13)
    elapsed = time.perf_counter() - t0
    ok = (rep.delta <= LOG4 + FOUR_POINT_SLACK and rep.failures == 0
          and elapsed < 300.0)
    _line(3, ok, f"delta {rep.delta:.4f} <= ln4 {LOG4:.4f} on "
                 f"{rep.n_quadruples} quadruples{_took(ok, elapsed)}")


def test_criterion_04_rough_isometry_bracket(acc):
    fam = acc["fam8"]
    graph = acc["graph8"]
    A = fam.collar_sample(1000, 14)
    B = fam.collar_sample(1000, 1414)
    gap = fam.d_pairs(A, B) - fam.g_pairs(A, B)
    lower_ok = float(np.min(gap)) >= -BRACKET_EPS
    sup = float(np.max(gap))

    # pairs engineered into the near regime: boundary separation below
    # the larger height, where the explicit additive bound applies
    rng = np.random.default_rng(144)
    src = rng.integers(0, graph.nodes.shape[0], 120)
    rows = graph.rows_from(src)
    normals = graph.node_normals()
    pts_x, pts_y = [], []
    for r, i in enumerate(src):
        cand = np.flatnonzero((rows[r] > 1e-9) & (rows[r] <= 0.3))
        if cand.size == 0:
            continue
        j = int(cand[rng.integers(0, cand.size)])
        hx, hy = rng.uniform(0.4, 0.7, 2)
        pts_x.append(graph.nodes[i] - hx * hx * normals[i])
        pts_y.append(graph.nodes[j] - hy * hy * normals[j])
    An = fam.prepare(np.array(pts_x))
    Bn = fam.prepare(np.array(pts_y))
    near_gap = fam.d_pairs(An, Bn) - fam.g_pairs(An, Bn)
    near_sup = float(np.max(near_gap))
    ok = (lower_ok and np.isfinite(sup) and near_sup <= CASE1_BOUND
          and len(pts_x) >= 50)
    _line(4, ok, f"g<=d ok={lower_ok}, sup(d-g)={sup:.3f}, near-regime "
                 f"sup={near_sup:.3f}<=2+slack on {len(pts_x)} pairs")


def _square(side: float):
    """The draw ``(n, seed)`` of uniform points on an axis-aligned square
    of side ``side``."""
    def draw(n: int, seed: int) -> np.ndarray:
        return side * np.random.default_rng(seed).random((int(n), 2))
    return draw


def test_criterion_05_hyperbolic_vs_flat_contrast(acc):
    fam = acc["fam8"]
    rep = four_point_delta(fam, "d", fam.collar_sample,
                           n_quadruples=20000, seed=16)
    c_est = estimate_C(fam, n_pairs=2000, seed=0)
    hyp_bound = LOG4 + 3.0 * c_est
    hyp_ok = rep.delta <= hyp_bound

    flat = [four_point_delta(fam, "euclidean", _square(s),
                             n_quadruples=20000, seed=18).delta
            for s in (1.0, 2.0, 4.0)]
    r2 = flat[1] / flat[0]
    r4 = flat[2] / flat[0]
    flat_ok = (abs(r2 - 2.0) <= FLAT_SCALE_REL * 2.0
               and abs(r4 - 4.0) <= FLAT_SCALE_REL * 4.0)
    _line(5, hyp_ok and flat_ok,
          f"delta_d {rep.delta:.3f} <= {hyp_bound:.3f}; flat deltas scale "
          f"x{r2:.2f}/x{r4:.2f} for sides 2/4")


def _band_pairs(graph, rng):
    """Fifty node pairs in one boundary cap at three separation scales.

    Targets are the nodes whose graph distance from each source comes
    closest to the nominal scale; below the graph's edge resolution this
    picks the nearest realizable separation.
    """
    anchor_row = graph.rows_from([100])[0]
    out, seen = [], set()
    for radius in (0.8, 1.0, 1.4, 2.0):
        cap = np.flatnonzero((anchor_row > 1e-9) & (anchor_row < radius))
        order = [int(v) for v in rng.permutation(cap)]
        out, seen = [], set()
        for scale, want in ((0.1, 17), (0.2, 17), (0.4, 16)):
            got = 0
            for src in order:
                if got >= want:
                    break
                row = graph.rows_from([src])[0]
                pos = np.flatnonzero(row > 1e-9)
                tgt = int(pos[np.argmin(np.abs(row[pos] - scale))])
                key = (min(src, tgt), max(src, tgt))
                if key in seen:
                    continue
                seen.add(key)
                out.append((graph.nodes[src], graph.nodes[tgt]))
                got += 1
        if len(out) == 50:
            return out
    raise AssertionError("could not collect 50 cap-local pairs")


def _band_ratios(fam, pairs):
    omega = np.zeros(4)
    ratios = []
    for a, b in pairs:
        # the endpoints lie on the boundary, where prepare refuses them
        na, nb = (int(v) for v in fam.graph.snap(np.stack([a, b])))
        w = float(fam.graph.rows_from([na])[0][nb])
        prod = boundary_product(fam, "g", a, b, omega, depth=30)
        ratios.append(math.exp(-prod) / w)
    return np.asarray(ratios)


def test_criterion_06_boundary_identification_band(acc):
    rng = np.random.default_rng(23)
    pairs = _band_pairs(acc["graph8"], rng)
    assert len(pairs) == 50
    base = _band_ratios(acc["fam8"], pairs)
    refined = _band_ratios(acc["fam8r"], pairs)
    spread_b = float(base.max() / base.min())
    spread_r = float(refined.max() / refined.min())
    center_b = float(np.exp(np.mean(np.log(base))))
    center_r = float(np.exp(np.mean(np.log(refined))))
    drift = abs(center_r / center_b - 1.0)
    ok = (spread_b <= BAND_SPREAD_CAP and spread_r <= BAND_SPREAD_CAP
          and drift <= BAND_DRIFT)
    _line(6, ok, f"band spread {spread_b:.2f} base / {spread_r:.2f} refined "
                 f"(cap {BAND_SPREAD_CAP:.0f}), center drift {drift:.1%}")


def test_criterion_07_kobayashi_qi_fit(acc):
    pool = acc["fam8"].collar_sample(46, 5)
    base = qi_check(LayeredSolver(acc["fam8"], "kobayashi"), pool)
    refined = qi_check(LayeredSolver(acc["fam8r"], "kobayashi"), pool)
    n_pairs = base.n_pairs
    finite = (np.isfinite(base.C) and np.isfinite(base.Cprime)
              and np.isfinite(refined.C) and np.isfinite(refined.Cprime))
    stable = (abs(refined.C - base.C) <= QI_DRIFT * base.C
              and abs(refined.Cprime - base.Cprime) <= QI_DRIFT * base.Cprime)
    ok = (finite and n_pairs >= 1000 and base.violations == 0
          and refined.violations == 0 and stable)
    _line(7, ok, f"(C, C') = ({base.C:.2f}, {base.Cprime:.2f}) on {n_pairs} "
                 f"pairs, refined ({refined.C:.2f}, {refined.Cprime:.2f}), "
                 f"0 violations")


def test_criterion_08_contact_identity_and_distribution(acc):
    dom, st = acc["domain"], acc["structure"]
    pts = dom.sample_boundary(200, seed=19)
    cds = contact_batch(dom, st, pts)
    rng = np.random.default_rng(190)
    rel_max = 0.0
    inv_max = 0.0
    dim_ok = True
    for cd in cds:
        dim_ok &= cd.basis.shape == (2, 4)
        c = rng.normal(size=2)
        X = c @ cd.basis
        JX = st.j(cd.point) @ X
        coeff = cd.basis @ JX
        inv_max = max(inv_max,
                      float(np.linalg.norm(JX - coeff @ cd.basis))
                      / float(np.linalg.norm(JX)))
        val = float(c @ cd.omega @ coeff)
        L = float(X @ levi_matrix(dom, st, cd.point) @ X)
        rel_max = max(rel_max, abs(val + L) / max(abs(L), 1.0))
    ok = rel_max <= CONTACT_REL and inv_max <= 1e-8 and dim_ok
    _line(8, ok, f"form-vs-curvature rel err {rel_max:.2e} over 200 points, "
                 f"2d distribution invariant to {inv_max:.1e}")


def test_criterion_09_orbit_dichotomy(acc):
    t0 = time.perf_counter()
    dom, proj, fam = acc["domain"], acc["projection"], acc["fam8"]
    p = acc["graph8"].nodes[777]
    starts = dom.sample_interior(20, seed=20)
    orbits = iterate_many(affine_contraction(p, 0.8), proj, starts, n_max=200)
    v = classify_orbit(fam, orbits)
    conv_ok = (v.kind == "ConvergesTo"
               and v.evidence["projection_spread"] <= SPREAD_TOL
               and float(np.linalg.norm(np.asarray(v.point) - p)) <= 0.05)
    orbits2 = iterate_many(rotation_map([0.9, 0.4]), proj, starts, n_max=200)
    v2 = classify_orbit(fam, orbits2)
    tail = float(np.min(v2.evidence["tail_min_heights"]))
    bounded_ok = v2.kind == "Bounded" and tail >= TAIL_FLOOR
    elapsed = time.perf_counter() - t0
    ok = conv_ok and bounded_ok and elapsed < 300.0
    _line(9, ok, f"contraction -> {v.kind} spread "
                 f"{v.evidence['projection_spread']:.1e}; rotation -> "
                 f"{v2.kind} tail {tail:.3f}{_took(ok, elapsed)}")


def test_criterion_10_anisotropy_stability(acc):
    g8, g12 = acc["graph8"], acc["graph12"]
    rng = np.random.default_rng(21)
    m = g8.nodes.shape[0]
    src = rng.integers(0, m, 200)
    tgt = rng.integers(0, m, 200)
    keep = src != tgt
    W8 = g8.rows_from(src)[np.arange(200), tgt][keep]
    W12 = g12.rows_from(src)[np.arange(200), tgt][keep]
    ratio = W12 / W8
    bilip = (float(ratio.min()) >= 1.0 - 1e-9
             and float(ratio.max()) <= LAMBDA_RATIO + 1e-9)

    X = acc["fam8"].collar_sample(1000, 22).points
    Y = acc["fam8"].collar_sample(1000, 2222).points

    def gap_sup(fa, fb):
        da = fa.d_pairs(fa.prepare(X), fa.prepare(Y))
        db = fb.d_pairs(fb.prepare(X), fb.prepare(Y))
        diff = db - da
        return float(np.max(np.abs(diff))), float(np.min(diff)), da

    sup_b, mono_b, d8 = gap_sup(acc["fam8"], acc["fam12"])
    sup_r, mono_r, _ = gap_sup(acc["fam8r"], acc["fam12r"])
    sandwich = bool(np.isfinite(sup_b)) and mono_b >= -1e-9
    drift = abs(sup_r - sup_b) / sup_b
    ok = bilip and sandwich and drift <= GAP_DRIFT
    _line(10, ok, f"node ratio [{ratio.min():.3f},{ratio.max():.3f}] within "
                  f"[1,{LAMBDA_RATIO}], additive gap {sup_b:.2f} base / "
                  f"{sup_r:.2f} refined (drift {drift:.1%})")
