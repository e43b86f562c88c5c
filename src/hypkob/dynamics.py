"""Iteration of interior self-maps and the orbit dichotomy audit.

Orbits are advanced together by ``iterate_many``, with a per-step
containment check, in blocks of steps projected by one call each. Each
``OrbitRecord`` holds an orbit's points and heights. Records carry no
verdict: ``classify_orbit`` sorts a family of orbits into the two
qualitative behaviours, staying a definite fraction of the shell depth
away from the boundary or collapsing onto one boundary point common to
all starts, and returns an ``OrbitVerdict``. A semicontraction audit
compares pair distances before and after one application of the map
against a discretization-aware slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, HypkobError, MapEscapedDomain
from .domain import Domain, HeightProjection
from .metrics import MetricFamily

__all__ = [
    "DomainMap",
    "OrbitRecord",
    "OrbitVerdict",
    "identity_map",
    "affine_contraction",
    "rotation_map",
    "map_from_spec",
    "iterate_many",
    "check_semicontraction",
    "classify_orbit",
]


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

@dataclass
class DomainMap:
    """A self-map of the domain interior, batched over row stacks."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "map"
    params: dict = field(default_factory=dict)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=float)


def identity_map() -> DomainMap:
    return DomainMap(fn=lambda X: X, name="identity")


def affine_contraction(p, rate: float) -> DomainMap:
    """The map x -> p + rate (x - p); commutes with any constant structure."""
    p = np.asarray(p, dtype=float)
    if not (0.0 < rate < 1.0):
        raise ConfigError("the contraction rate must lie in (0, 1)")
    return DomainMap(fn=lambda X: p[None, :] + rate * (np.atleast_2d(X) - p[None, :]),
                     name="affine_contraction",
                     params={"p": [float(v) for v in p], "rate": float(rate)})


def rotation_map(angles) -> DomainMap:
    """Block rotation acting in each coordinate plane of the standard pairing.

    One angle per plane; the matrix commutes with the standard structure,
    so the map is an isometry of every construction tied to it on the
    round ball.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    dim = 2 * angles.size
    R = np.zeros((dim, dim))
    for k, a in enumerate(angles):
        c, s = math.cos(a), math.sin(a)
        R[2 * k, 2 * k] = c
        R[2 * k, 2 * k + 1] = -s
        R[2 * k + 1, 2 * k] = s
        R[2 * k + 1, 2 * k + 1] = c
    return DomainMap(fn=lambda X: np.atleast_2d(X) @ R.T, name="rotation",
                     params={"angles": [float(a) for a in angles]})


def map_from_spec(spec: dict) -> DomainMap:
    """Build one of the named test maps from a plain dictionary."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("a map spec needs a 'type' key")
    kind = spec["type"]
    if kind == "identity":
        return identity_map()
    if kind == "affine_contraction":
        return affine_contraction(spec["p"], float(spec["rate"]))
    if kind == "rotation":
        return rotation_map(spec["angles"])
    raise ConfigError(f"unknown map type {kind!r}")


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

# largest defining-function value a map step may reach and stay inside
_RHO_TOL = 1e-10

@dataclass
class OrbitRecord:
    """One orbit: its points and their heights, one row each."""

    start: np.ndarray
    points: np.ndarray
    heights: np.ndarray
    stopped_early: bool
    n_steps: int


def _step(F: DomainMap, domain: Domain, X: np.ndarray) -> np.ndarray:
    Y = np.atleast_2d(F(X))
    r = domain.rho(Y)
    if np.any(r > _RHO_TOL):
        i = int(np.argmax(r))
        raise MapEscapedDomain(
            f"iterate left the domain (rho = {float(r[i]):.3e} at start {i})")
    return Y


def _block(F: DomainMap, projection: HeightProjection, X: np.ndarray,
           seeds: np.ndarray, size: int):
    """Up to ``size`` steps of the orbits ``X``, projected in one call.

    The map gets each step's rows exactly as the one-step loop would. The
    block ends before the first step that leaves the domain (a first step
    that leaves raises ``MapEscapedDomain``). Returns the steps, their
    feet and their distances, stacked ``(k, m, ...)``.
    """
    steps = []
    for _ in range(size):
        try:
            X = _step(F, projection.domain, X)
        except MapEscapedDomain:
            if not steps:
                raise
            break
        steps.append(X)
    Y = np.stack(steps)
    feet, dist = projection.project_batch(Y, seed_feet=seeds)
    return Y, feet, dist


# steps mapped and projected per block while the active orbits stay fixed.
# One projection call costs about 1 ms beyond its points: 200 rotation
# steps of 20 starts on the (1, 1, 0.7, 0.7) ellipsoid took 169 ms one step
# at a time and 39, 33 and 32 ms in blocks of 16, 32 and 64; a contraction
# toward a boundary point, whose cut blocks throw points away, 55, 35, 40
# and 57 ms (medians of 5, in-process, 2-core VM).
_BLOCK_STEPS = 32


def iterate_many(F: DomainMap, projection: HeightProjection, starts,
                 n_max: int = 200) -> list[OrbitRecord]:
    """Advance several starts together, freezing orbits at the stop floor.

    The stop floor is a millionth of the collar width in squared height;
    below it the metric apparatus is unreliable and the orbit is flagged
    instead of advanced further. The records keep the heights computed
    while stepping, and a frozen orbit carries its last point and height
    forward. The feet of each step seed the projection of the next, so a
    deep orbit point polishes its previous foot instead of the
    projection's 24 cloud candidates.

    Steps are taken in blocks of up to ``_BLOCK_STEPS``, all of them
    projected in one stacked call. A block is cut after the first step at
    which an orbit drops below the floor, and the points beyond the cut,
    projected already, are thrown away; the next block starts from the
    smaller set of active orbits. A block that raises is taken again one
    step at a time, so an error comes from the same step, with the same
    message, as in a loop of one step per call. The records are those of
    that loop, bit for bit.
    """
    X0 = np.atleast_2d(np.asarray(starts, dtype=float))
    m = X0.shape[0]
    floor = 1e-6 * projection.epsilon
    traj = [X0]
    feet, dist = projection.project_batch(X0)
    heights = [np.sqrt(dist)]
    active = heights[0]**2 >= floor
    stopped = ~active
    single = 0  # steps still to take one at a time after a block raised
    while len(traj) <= n_max and np.any(active):
        size = 1 if single else min(_BLOCK_STEPS, n_max + 1 - len(traj))
        try:
            Y, bfeet, bdist = _block(F, projection, traj[-1][active],
                                     feet[active], size)
        except HypkobError:
            # one step at a time raises as the one-step loop does
            if size == 1:
                raise
            single = size
            continue
        h = np.sqrt(bdist)
        low = np.any(h**2 < floor, axis=1)
        kept = int(np.argmax(low)) + 1 if np.any(low) else Y.shape[0]
        single = max(single - kept, 0)
        for t in range(kept):
            nxt = traj[-1].copy()
            nxt[active] = Y[t]
            ht = heights[-1].copy()
            ht[active] = h[t]
            traj.append(nxt)
            heights.append(ht)
        feet[active] = bfeet[kept - 1]
        hit = active & (heights[-1]**2 < floor)
        stopped |= hit
        active &= ~hit
    P = np.stack(traj, axis=1)  # (m, steps+1, dim)
    Hs = np.stack(heights, axis=1)  # (m, steps+1)
    records = []
    for i in range(m):
        pts = P[i]
        records.append(OrbitRecord(
            start=X0[i].copy(), points=pts, heights=Hs[i],
            stopped_early=bool(stopped[i]), n_steps=pts.shape[0] - 1))
    return records


# ---------------------------------------------------------------------------
# semicontraction audit
# ---------------------------------------------------------------------------

def check_semicontraction(F: DomainMap, family: MetricFamily, kind: str,
                          n_pairs: int = 256, seed: int = 0) -> dict:
    """Compare pair distances across one application of the map.

    The distances are ``family``'s ``kind``, ``"g"`` or ``"d"``; any other
    kind is refused (``ConfigError``). The pass threshold is per pair: the
    boundary-separation sensitivity of the value, before and after the
    map, times four median edge weights (the worst node-snapping
    displacement on each side), plus rounding.
    A map step that leaves the domain is reported, not raised.
    """
    if kind not in ("g", "d"):
        raise ConfigError(f"the audit runs on g or d, not {kind!r}")
    rng = np.random.default_rng(seed)
    m = family.graph.nodes.shape[0]
    idx = rng.integers(0, m, size=(n_pairs, 2))
    u = rng.random((n_pairs, 2))
    depths = family.eps * np.maximum(u * u, 1e-4)
    A = family.prepare_on_rays(idx[:, 0], depths[:, 0])
    B = family.prepare_on_rays(idx[:, 1], depths[:, 1])
    try:
        FA = family.prepare(_step(F, family.graph.domain, A.points))
        FB = family.prepare(_step(F, family.graph.domain, B.points))
    except MapEscapedDomain as err:
        return {"pass": False, "escaped": True, "error": str(err),
                "n_pairs": int(n_pairs)}
    before = family.pairs(kind, A, B)
    after = family.pairs(kind, FA, FB)
    w_med = family.graph.edge_weight_stats()["median"]
    sens = (family.slope(kind, family.separations(A, B), A, B)
            + family.slope(kind, family.separations(FA, FB), FA, FB))
    slack = 2.0 * w_med * sens + 1e-9
    defect = after - before
    ok = defect <= slack
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(before > 0, after / before, 1.0)
    return {
        "pass": bool(np.all(ok)),
        "escaped": False,
        "max_defect": float(defect.max()),
        "max_excess": float(np.max(defect - slack)),
        "violations": int(np.count_nonzero(~ok)),
        "ratio_q50": float(np.quantile(ratio, 0.5)),
        "ratio_q90": float(np.quantile(ratio, 0.9)),
        "ratio_max": float(ratio.max()),
        "n_pairs": int(n_pairs),
    }


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------

# boundary distance within which final feet count as one point
_SPREAD_TOL = 1e-2


@dataclass
class OrbitVerdict:
    kind: str
    point: Optional[np.ndarray]
    evidence: dict


def classify_orbit(family: MetricFamily,
                   orbits: list[OrbitRecord]) -> OrbitVerdict:
    """The dichotomy verdict over a family of orbits.

    Bounded needs every orbit's tail heights to stay above a twentieth of
    the shell depth. Convergence needs every orbit to reach low heights
    with projections settling, and all final projections within the
    ``_SPREAD_TOL`` of each other in the boundary metric; the returned
    point is the first orbit's final foot. Anything mixed is Inconclusive
    with the per-orbit evidence attached. Only a verdict other than
    Bounded projects the marked tail points.
    """
    if len(orbits) < 5:
        raise ConfigError("classification needs at least 5 starts")
    for rec in orbits:
        if rec.n_steps < 50 and not rec.stopped_early:
            raise ConfigError("orbits must run 50 steps or stop at the floor")
    root = math.sqrt(family.eps)
    floor = 0.05 * root
    tail_mins = np.asarray([float(rec.heights[rec.points.shape[0] // 2:].min())
                            for rec in orbits])
    evidence = {
        "tail_min_heights": [float(v) for v in tail_mins],
        "bounded_floor": floor,
        "stopped_early": [bool(r.stopped_early) for r in orbits],
    }
    if np.all(tail_mins >= floor):
        return OrbitVerdict(kind="Bounded", point=None, evidence=evidence)
    approaching = np.asarray([
        rec.stopped_early or tm < floor
        for rec, tm in zip(orbits, tail_mins)
    ])
    # Cauchy pairs: the half and three-quarter points against the last
    # one; an orbit too short for three marks pairs its last point with
    # itself, at distance exactly zero
    marks = []
    for rec in orbits:
        n = rec.points.shape[0]
        idx = [n // 2, (3 * n) // 4, n - 1]
        marks.append(rec.points[idx if len(set(idx)) == 3 else [n - 1] * 3])
    mfeet, _ = family.projection.project_batch(np.concatenate(marks))
    mfeet = mfeet.reshape(len(orbits), 3, -1)
    feet = mfeet[:, 2]
    graph = family.graph
    cauchy = graph.distance_local_batch(
        np.concatenate(mfeet[:, :2]), np.repeat(feet, 2, axis=0)).reshape(-1, 2)
    settling = cauchy[:, 1] <= cauchy[:, 0] + _SPREAD_TOL
    iu, ju = np.triu_indices(feet.shape[0], k=1)
    spread = float(np.max(graph.distance_local_batch(feet[iu], feet[ju]),
                          initial=0.0))
    evidence["projection_spread"] = spread
    evidence["cauchy_pairs"] = [(float(a), float(b)) for a, b in cauchy]
    if np.all(approaching) and np.all(settling) and spread <= _SPREAD_TOL:
        return OrbitVerdict(kind="ConvergesTo", point=feet[0].copy(),
                            evidence=evidence)
    return OrbitVerdict(kind="Inconclusive", point=None, evidence=evidence)
