"""Bounded smooth domains given by a defining function.

A domain is ``D = {rho < 0}`` for a C^2 scalar field ``rho`` with nonvanishing
gradient on the zero set. This module provides the defining-function algebra
(built-in balls, ellipsoids, superellipsoids and polynomial fields, each
with its analytic derivatives), batched nearest-boundary projection
(``HeightProjection.project_batch``, which returns feet and depths; the
height is the square root of the depth), and a curvature-based collar
width estimate.

All geometric quantities are Euclidean; heights are ``h(x) = sqrt(dist(x,
boundary))`` so the collar of width ``eps`` is ``{h(x)^2 <= eps}``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist
from scipy.stats import qmc

from .errors import (
    ConfigError,
    CurvatureEstimateFailed,
    DerivativeEvaluationFailed,
    PointOutsideDomain,
    ProjectionDiverged,
)

__all__ = [
    "ScalarField",
    "Domain",
    "HeightProjection",
    "ReachEstimate",
    "reach_details",
    "principal_curvatures",
    "ball_field",
    "ellipsoid_field",
    "superellipsoid_field",
    "polynomial_field",
]


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

@dataclass
class ScalarField:
    """A scalar field with its analytic gradient and Hessian.

    ``value_fn`` maps arrays of shape (..., dim) to shape (...),
    ``grad_fn`` to (..., dim) and ``hess_fn`` to (..., dim, dim).
    """

    dim: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]
    name: str = "field"


def ball_field(dim: int, radius: float = 1.0) -> ScalarField:
    r2 = float(radius) ** 2
    return ScalarField(
        dim=dim,
        value_fn=lambda x: np.sum(x * x, axis=-1) - r2,
        grad_fn=lambda x: 2.0 * x,
        hess_fn=lambda x: np.broadcast_to(
            2.0 * np.eye(dim), x.shape[:-1] + (dim, dim)
        ).copy(),
        name="ball",
    )


def ellipsoid_field(semi_axes) -> ScalarField:
    a = np.asarray(semi_axes, dtype=float)
    if np.any(a <= 0):
        raise ConfigError("ellipsoid semi-axes must be positive")
    inv2 = 1.0 / a**2
    dim = a.size

    def hess(x):
        return np.broadcast_to(np.diag(2.0 * inv2), x.shape[:-1] + (dim, dim)).copy()

    return ScalarField(
        dim=dim,
        value_fn=lambda x: np.sum(x * x * inv2, axis=-1) - 1.0,
        grad_fn=lambda x: 2.0 * x * inv2,
        hess_fn=hess,
        name="ellipsoid",
    )


def superellipsoid_field(semi_axes, exponent: float) -> ScalarField:
    a = np.asarray(semi_axes, dtype=float)
    p = float(exponent)
    if p < 2.0:
        raise ConfigError("superellipsoid exponent must be >= 2 for a C^2 field")
    dim = a.size

    def val(x):
        return np.sum(np.abs(x / a) ** p, axis=-1) - 1.0

    def grad(x):
        u = x / a
        return (p / a) * np.sign(u) * np.abs(u) ** (p - 1.0)

    def hess(x):
        u = np.abs(x / a)
        diag = (p * (p - 1.0) / a**2) * u ** (p - 2.0)
        out = np.zeros(x.shape[:-1] + (dim, dim), dtype=float)
        idx = np.arange(dim)
        out[..., idx, idx] = diag
        return out

    return ScalarField(dim=dim, value_fn=val, grad_fn=grad, hess_fn=hess,
                       name="superellipsoid")


def polynomial_field(dim: int, terms) -> ScalarField:
    """Polynomial field from ``[(coefficient, exponent-tuple), ...]``.

    The value and the gradient make their input C-contiguous first: their
    sums over terms run pairwise, in an order that follows the memory
    layout, so column-major input (``Domain``'s boundary march) would
    change their last bits from eight terms on.
    """
    coeffs = np.array([float(c) for c, _ in terms])
    expo = np.array([list(e) for _, e in terms], dtype=int)
    if expo.shape[1] != dim:
        raise ConfigError("polynomial exponent tuples must match the dimension")

    def val(x):
        # x: (..., dim) -> sum_k c_k prod_i x_i^{e_ki}
        x = np.ascontiguousarray(x)
        pw = np.power(x[..., None, :], expo)  # (..., K, dim)
        return np.sum(coeffs * np.prod(pw, axis=-1), axis=-1)

    def grad(x):
        x = np.ascontiguousarray(x)
        out = np.zeros(x.shape, dtype=float)
        for i in range(dim):
            mask = expo[:, i] > 0
            if not np.any(mask):
                continue
            e2 = expo[mask].copy()
            c2 = coeffs[mask] * e2[:, i]
            e2[:, i] -= 1
            pw = np.power(x[..., None, :], e2)
            out[..., i] = np.sum(c2 * np.prod(pw, axis=-1), axis=-1)
        return out

    def hess(x):
        out = np.zeros(x.shape[:-1] + (dim, dim), dtype=float)
        for i in range(dim):
            for j in range(i, dim):
                e2 = expo.copy()
                c2 = coeffs.copy()
                c2 = c2 * e2[:, i]
                e2[:, i] -= 1
                keep = (c2 != 0) & (e2[:, i] >= 0)
                c2 = c2[keep] * e2[keep][:, j]
                e3 = e2[keep].copy()
                e3[:, j] -= 1
                keep2 = (c2 != 0) & (e3[:, j] >= 0)
                if not np.any(keep2):
                    continue
                pw = np.power(x[..., None, :], e3[keep2])
                v = np.sum(c2[keep2] * np.prod(pw, axis=-1), axis=-1)
                out[..., i, j] = v
                out[..., j, i] = v
        return out

    return ScalarField(dim=dim, value_fn=val, grad_fn=grad, hess_fn=hess,
                       name="polynomial")


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

# boundary points in the cached cloud that seeds every projection
_CLOUD_SIZE = 4096

# a stored cloud point may lie this fraction of the box diagonal off the
# boundary; sampled clouds lie within about 1e-16
_CLOUD_TOL = 1e-9

# leaf size of the cloud's KD-tree. Seen from a deep point the cloud points
# are nearly equidistant, so a nearest query prunes little and visits most
# leaves; larger leaves (the default is 16) cut the tree nodes it walks
# through, and the answers stay exact. Nearest queries on 10,000 deep ball
# points take about half the time; collar queries barely change.
_CLOUD_LEAFSIZE = 64

# feet closer than this fraction of the domain diameter share one normal ray
_FOOT_TOL = 1e-8


class Domain:
    """A bounded domain ``{rho < 0}`` with a bounding box and sampling helpers.

    Parameters
    ----------
    f : ScalarField
        Defining function.
    box : array (2, dim)
        Axis-aligned box containing the closure of the domain.
    seed : int
        Seed for the cached dense boundary sample (``_CLOUD_SIZE`` points)
        used as a projection fallback and for diameter estimation. A graph
        cache stores that sample, and ``set_boundary_cloud`` puts it back;
        ``cloud_source`` says which happened (``"sampled"``, ``"cache"``,
        or None while no cloud is held); ``cloud_s`` holds the wall
        seconds that sampling took, and stays None otherwise.
    """

    def __init__(self, f: ScalarField, box, seed: int = 0):
        self.field = f
        self.dim = f.dim
        self.box = np.asarray(box, dtype=float).reshape(2, self.dim)
        if np.any(self.box[1] <= self.box[0]):
            raise ConfigError("bounding box upper corners must exceed lower corners")
        diag = float(np.linalg.norm(self.box[1] - self.box[0]))
        # finite difference step of the contact-form derivatives in
        # ``structures``
        self.fd_step = 1e-5 * diag
        self.seed = int(seed)
        self._cloud = None
        self._cloud_tree = None
        self._diameter = None
        self.cloud_source = None
        self.cloud_s = None

    # -- defining function ---------------------------------------------------

    def rho(self, x) -> np.ndarray:
        v = np.asarray(self.field.value_fn(np.asarray(x, dtype=float)), dtype=float)
        if not np.all(np.isfinite(v)):
            raise DerivativeEvaluationFailed("defining function returned non-finite values")
        return v

    def grad(self, x) -> np.ndarray:
        g = np.asarray(self.field.grad_fn(np.asarray(x, dtype=float)), dtype=float)
        if not np.all(np.isfinite(g)):
            raise DerivativeEvaluationFailed("gradient returned non-finite values")
        return g

    def hess(self, x) -> np.ndarray:
        h = np.asarray(self.field.hess_fn(np.asarray(x, dtype=float)), dtype=float)
        if not np.all(np.isfinite(h)):
            raise DerivativeEvaluationFailed("hessian returned non-finite values")
        return h

    def outward_normal(self, p) -> np.ndarray:
        g = self.grad(p)
        nrm = np.linalg.norm(g, axis=-1, keepdims=True)
        if np.any(nrm <= 0):
            raise DerivativeEvaluationFailed("vanishing gradient on the boundary")
        return g / nrm

    # -- sampling ------------------------------------------------------------

    def sample_box(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((n, self.dim))
        return self.box[0] + u * (self.box[1] - self.box[0])

    def sample_interior(self, n: int, seed=0) -> np.ndarray:
        """Seeded rejection sample of interior points."""
        rng = np.random.default_rng(seed)
        out = []
        have = 0
        for _ in range(200):
            cand = self.sample_box(max(4 * n, 64), rng)
            keep = cand[self.rho(cand) < 0]
            if keep.size:
                out.append(keep)
                have += keep.shape[0]
            if have >= n:
                break
        if have < n:
            raise PointOutsideDomain("interior rejection sampling starved; check the box")
        return np.concatenate(out, axis=0)[:n]

    def sample_boundary(self, n: int, seed=0, quasi: bool = False) -> np.ndarray:
        """Boundary points found by marching interior samples along the gradient.

        With ``quasi=True`` the interior candidates come from a Halton
        sequence instead of pseudorandom draws, which gives more even
        coverage for graph building. Deterministic for a fixed seed. Only
        the candidates still needed are marched: each point's march is
        independent of the others in its batch, so the points kept do not
        change.
        """
        rng = np.random.default_rng(seed)
        halton = qmc.Halton(d=self.dim, seed=seed) if quasi else None
        pts = []
        have = 0
        for _ in range(400):
            m = max(4 * n, 256)
            if quasi:
                u = halton.random(m)
                cand = self.box[0] + u * (self.box[1] - self.box[0])
            else:
                cand = self.sample_box(m, rng)
            cand = cand[self.rho(cand) < 0]
            if cand.shape[0] == 0:
                continue
            g = self.grad(cand)
            keep = np.linalg.norm(g, axis=-1) > 1e-12
            cand, g = cand[keep][:n - have], g[keep][:n - have]
            if cand.shape[0] == 0:
                continue
            b = self._march_to_boundary(cand, g)
            pts.append(b)
            have += b.shape[0]
            if have >= n:
                break
        if have < n:
            raise PointOutsideDomain("boundary sampling starved; check the box")
        return np.concatenate(pts, axis=0)

    def _march_to_boundary(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Bisection along the outward gradient ray until rho crosses zero.

        The steps run on column-major copies of the points and directions,
        so each ``rho`` reduces over the coordinates in contiguous column
        passes; the sums keep the row-major order, and the points come back
        bit for bit, row-major.
        """
        x = np.asfortranarray(x)
        d = np.asfortranarray(g / np.linalg.norm(g, axis=-1, keepdims=True))
        scale = float(np.linalg.norm(self.box[1] - self.box[0]))
        lo = np.zeros(x.shape[0])
        hi = np.full(x.shape[0], 1e-3 * scale)
        for _ in range(80):
            v = self.rho(x + hi[:, None] * d)
            cross = v >= 0.0
            if np.all(cross):
                break
            lo = np.where(cross, lo, hi)
            hi = np.where(cross, hi, 2.0 * hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            v = self.rho(x + mid[:, None] * d)
            hi = np.where(v >= 0.0, mid, hi)
            lo = np.where(v >= 0.0, lo, mid)
        return np.ascontiguousarray(self.retract(x + hi[:, None] * d, steps=3))

    def retract(self, p: np.ndarray, steps: int = 2) -> np.ndarray:
        """First-order steps ``p - rho(p) grad(p) / |grad(p)|^2`` onto the zero set."""
        for _ in range(steps):
            g = self.grad(p)
            gn2 = np.maximum(np.sum(g * g, axis=-1), 1e-300)
            p = p - (self.rho(p) / gn2)[:, None] * g
        return p

    # -- cached cloud --------------------------------------------------------

    def boundary_cloud(self) -> np.ndarray:
        """The cloud, sampled on first use unless a cache has set it."""
        if self._cloud is None:
            clock = time.perf_counter()
            self._cloud = self.sample_boundary(_CLOUD_SIZE, seed=self.seed,
                                               quasi=True)
            self.cloud_s = time.perf_counter() - clock
            self.cloud_source = "sampled"
        return self._cloud

    def set_boundary_cloud(self, cloud) -> None:
        """Use a stored cloud instead of sampling one.

        ``cloud`` must have the sampled cloud's shape and float64 type and
        lie on the boundary (``|rho| / |grad rho|`` within
        ``_CLOUD_TOL`` of the box diagonal), else ``ConfigError``. A domain
        that already holds a cloud keeps it: both come from the same seed.
        """
        cloud = np.asarray(cloud)
        if cloud.shape != (_CLOUD_SIZE, self.dim) or cloud.dtype != np.float64:
            raise ConfigError(f"a boundary cloud needs shape ({_CLOUD_SIZE}, "
                              f"{self.dim}) and type float64, not "
                              f"{cloud.shape} and {cloud.dtype}")
        scale = float(np.linalg.norm(self.box[1] - self.box[0]))
        with np.errstate(all="ignore"):
            off = (np.abs(self.field.value_fn(cloud))
                   / np.linalg.norm(self.field.grad_fn(cloud), axis=-1))
        if not np.all(off <= _CLOUD_TOL * scale):
            raise ConfigError("a boundary cloud has points off the boundary")
        if self._cloud is None:
            self._cloud = cloud
            self.cloud_source = "cache"

    def cloud_tree(self) -> cKDTree:
        if self._cloud_tree is None:
            self._cloud_tree = cKDTree(self.boundary_cloud(),
                                       leafsize=_CLOUD_LEAFSIZE)
        return self._cloud_tree

    def diameter_estimate(self) -> float:
        """Largest distance between points of a 1,024-point subsample of
        the boundary cloud, computed once per domain."""
        if self._diameter is None:
            cloud = self.boundary_cloud()
            sub = cloud[:: max(1, cloud.shape[0] // 1024)]
            self._diameter = float(np.sqrt(pdist(sub, "sqeuclidean").max()))
        return self._diameter

    def same_foot(self, fa, fb) -> np.ndarray:
        """Whether boundary feet coincide within tolerance.

        Coinciding feet share one normal ray; the tolerance is
        ``_FOOT_TOL`` times the diameter estimate.
        """
        scale = self.diameter_estimate()
        return np.linalg.norm(fa - fb, axis=-1) <= _FOOT_TOL * scale

    # -- construction from a spec mapping ------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "Domain":
        try:
            dim = int(spec["dimension"])
            df = spec["defining_function"]
            kind = df["type"]
            if dim < 2:
                raise ConfigError("dimension must be at least 2")
            if kind == "ball":
                r = float(df.get("radius", 1.0))
                f = ball_field(dim, r)
                default_box = np.stack([-1.05 * r * np.ones(dim), 1.05 * r * np.ones(dim)])
            elif kind == "ellipsoid":
                axes = df["semi_axes"]
                if len(axes) != dim:
                    raise ConfigError("semi_axes length must match dimension")
                f = ellipsoid_field(axes)
                a = np.asarray(axes, dtype=float)
                default_box = np.stack([-1.05 * a, 1.05 * a])
            elif kind == "superellipsoid":
                axes = df["semi_axes"]
                if len(axes) != dim:
                    raise ConfigError("semi_axes length must match dimension")
                f = superellipsoid_field(axes, df["exponent"])
                a = np.asarray(axes, dtype=float)
                default_box = np.stack([-1.05 * a, 1.05 * a])
            elif kind == "polynomial":
                terms = [(t["coefficient"], t["exponents"]) for t in df["terms"]]
                f = polynomial_field(dim, terms)
                if "box" not in spec:
                    raise ConfigError("polynomial domains need an explicit box")
                default_box = None
            else:
                raise ConfigError(f"unknown defining function type {kind!r}")
            box = np.asarray(spec["box"], dtype=float) if "box" in spec else default_box
            if "fd_step" in spec:
                raise ConfigError("the domain spec takes no 'fd_step': the "
                                  "step is 1e-5 box diagonals")
            return cls(f, box, seed=spec.get("seed", 0))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"malformed domain spec: {exc}") from exc


# ---------------------------------------------------------------------------
# projection and heights
# ---------------------------------------------------------------------------

@dataclass
class ReachEstimate:
    reach: float
    epsilon: float
    kappa_max: float
    n_samples: int


# Newton sweeps before a point counts as unconverged
_NEWTON_MAX_ITER = 100

# a foot is accepted when its Newton residual is at most this times
# (1 + |x|)
_NEWTON_TOL = 1e-10

# points per batched fallback call: with 24 candidate rows each, a call
# holds about 10^5 Newton systems, about 100 MiB of workspace (25 KiB per
# point, measured with tracemalloc on the unit ball in R^4)
_FALLBACK_CHUNK = 4096


class HeightProjection:
    """Nearest-boundary projection and the square-root height function.

    The solver runs a damped Newton iteration on the first-order
    nearest-point conditions, seeded from the cached boundary cloud. Each
    trial step is retracted onto the zero set before it is measured, so
    the solve converges also near the centre of a ball, where the nearest
    feet nearly tie and an unretracted step improves nothing. Inside
    the collar the foot is unique; deeper points, and points whose solve
    fails, fall back to polishing their 24 nearest cloud candidates. The
    fallback is one batched Newton call over every (point, candidate) pair
    (per chunk of ``_FALLBACK_CHUNK`` points, which bounds its memory), in
    which each point's candidates backtrack as a block of their own, so the
    feet a point's candidates reach do not depend on the other points in
    the call. Candidates that no backtrack improves stop early as stuck
    instead of repeating the same sweep. A foot is accepted only on the
    Newton residual test, and a point none of whose candidates converges
    raises ``ProjectionDiverged``. Each point takes its nearest converged
    foot, with ties within 1e-9 broken by the lexicographically smallest
    foot.

    A caller that already knows a near-foot for each point (an orbit's
    previous step, a ladder point's boundary node) passes it as
    ``seed_feet``. Only the points bound for the fallback use it: one
    batched Newton solve from the seeds, each point backtracking alone,
    and a seeded foot is accepted when its solve converges and it is no
    farther than the nearest cloud point. The rejected points go on to the
    fallback; collar points never touch the seeds. Beyond the reach this
    rule is as fine as the cloud and no finer: a local foot within the
    cloud's own resolution of the nearest one is taken as nearest. On the
    ball every deep point off the centre has a single nearest foot, and
    any farther critical point lies beyond the cloud distance.

    An orbit's steps can be projected as one stack ``(T, m, dim)``: each
    step after the first is seeded by the feet of the step before, so a
    stack gives the feet of ``T`` chained calls, one per step, while the
    work that needs no seed runs once over all ``T * m`` points.

    ``counts`` sums what the solver did over every call: points
    projected, Newton sweeps (one Hessian evaluation over the active rows
    each, so one sweep of a stack counts once), stuck rows, seeded feet
    accepted and rejected, and points sent to the fallback.
    """

    def __init__(self, domain: Domain, epsilon: float):
        if epsilon <= 0:
            raise ConfigError("collar width must be positive")
        self.domain = domain
        self.epsilon = float(epsilon)
        self.counts = dict.fromkeys(
            ("points", "newton_sweeps", "stuck_rows", "seeded_accepted",
             "seeded_rejected", "fallback_points"), 0)

    # -- batched solver ------------------------------------------------------

    def _newton_polish(self, X: np.ndarray, P0: np.ndarray, block: int):
        """Damped Newton on (p, lam) for p - x - lam grad(p) = 0, rho(p) = 0.

        Returns (P, ok) where ok flags convergence per point. A point with
        a singular tangent system takes a zero step; its neighbours in the
        batch are solved as usual. Each trial point is retracted onto
        ``rho = 0`` by two gradient steps (``Domain.retract``) before its
        residual is measured. Rows backtrack in consecutive blocks of
        ``block`` rows: a block's step lengths are
        halved together until every row of it has a lower residual, at most
        eight times, and each row keeps its best trial. A point that no
        backtrack improves keeps its (p, lam), so every later sweep would
        repeat this one exactly: it is marked stuck and leaves the active
        set unconverged.
        """
        dom = self.domain
        n = dom.dim
        X = np.atleast_2d(X)
        p = np.array(P0, dtype=float, copy=True)
        g = dom.grad(p)
        gn2 = np.sum(g * g, axis=-1)
        lam = np.sum((p - X) * g, axis=-1) / np.maximum(gn2, 1e-300)
        scale = 1.0 + np.linalg.norm(X, axis=-1)
        tol = _NEWTON_TOL * scale
        g, r1, r2, rn = residual_at(dom, X, p, lam)
        ok = rn <= tol
        stuck = np.zeros_like(ok)
        for _ in range(_NEWTON_MAX_ITER):
            rows = np.flatnonzero(~(ok | stuck))
            if rows.size == 0:
                break
            self.counts["newton_sweeps"] += 1
            H = dom.hess(p[rows])
            ga = g[rows]
            J = np.zeros((rows.size, n + 1, n + 1))
            J[:, :n, :n] = np.eye(n) - lam[rows, None, None] * H
            J[:, :n, n] = -ga
            J[:, n, :n] = ga
            rhs = np.concatenate([-r1[rows], -r2[rows, None]], axis=1)
            step = _solve_regular(J, rhs)
            # backtracking on the residual norm: halve the steps of a block
            # until every row of it has improved, at most eight times
            owner = rows // block
            p0, lam0, base = p[rows], lam[rows], rn[rows]
            r, pick = rows, slice(None)
            t = 1.0
            for _ in range(8):
                # a step along the tangent plane leaves the zero set by about
                # the square of its length; near the centre of a ball that
                # is far more than the residual the step removes, so each
                # trial is put back on rho = 0 before it is measured
                p_try = dom.retract(p0[pick] + t * step[pick, :n])
                lam_try = lam0[pick] + t * step[pick, n]
                g_try, r1_try, r2_try, rn_try = residual_at(dom, X[r], p_try, lam_try)
                better = rn_try < rn[r]
                rb = r[better]
                p[rb], lam[rb], rn[rb] = p_try[better], lam_try[better], rn_try[better]
                g[rb], r1[rb], r2[rb] = g_try[better], r1_try[better], r2_try[better]
                pending = rn[rows] >= base
                if not np.any(pending):
                    break
                pick = (np.bincount(owner, weights=pending) > 0)[owner]
                r = rows[pick]
                t *= 0.5
            stuck[rows[pending]] = True
            self.counts["stuck_rows"] += int(np.count_nonzero(pending))
            ok = rn <= tol
        return p, ok

    def _fallback_feet(self, X: np.ndarray):
        """Nearest converged feet among each point's 24 nearest cloud points.

        Returns (P, found), where found is False for a point none of whose
        candidates converged.
        """
        dom = self.domain
        cloud = dom.boundary_cloud()
        f, k, n = X.shape[0], min(24, cloud.shape[0]), dom.dim
        _, cand_idx = dom.cloud_tree().query(X, k=k)
        Pc, okc = self._newton_polish(np.repeat(X, k, axis=0),
                                      cloud[np.reshape(cand_idx, -1)], block=k)
        Pc, okc = Pc.reshape(f, k, n), okc.reshape(f, k)
        # nearest converged foot; ties within 1e-9 go to the lexicographically
        # smallest, i.e. the first of its point's rows in a sort by
        # (point, not near, x_1, ..., x_n)
        dc = np.where(okc, np.linalg.norm(Pc - X[:, None], axis=-1), np.inf)
        near = dc <= dc.min(axis=1, keepdims=True) + 1e-9
        keys = [Pc[..., i].ravel() for i in range(n - 1, -1, -1)]
        keys += [~near.ravel(), np.repeat(np.arange(f), k)]
        first = np.lexsort(keys).reshape(f, k)[:, 0]
        return Pc.reshape(-1, n)[first], okc.any(axis=1)

    def project_batch(self, X, seed_feet=None) -> tuple[np.ndarray, np.ndarray]:
        """Feet and Euclidean distances for a batch of interior points.

        ``X`` is one batch ``(m, dim)`` or a stack of steps ``(T, m, dim)``
        in which row i of step t is orbit i's point t; feet and distances
        come back in the shape of ``X``. ``seed_feet`` (shape ``(m, dim)``)
        are known near-feet of the first step, such as the previous orbit
        step's; each later step of a stack is seeded by its orbits' feet at
        the step before (chained seeds). Seeds are tried only for the points
        that would otherwise go to the fallback (see the class docstring).

        The exterior test, the cloud query and the cloud-seeded Newton solve
        run once over the whole stack; only the seeded solve and the
        fallback run step by step, since a step's seeds are the previous
        step's final feet. Every point thus gets the foot and distance that
        one call per step, chained, gives it. A ``ProjectionDiverged``
        names the point's row in the stack flattened to ``(T * m, dim)``.
        """
        dom = self.domain
        X = np.asarray(X, dtype=float)
        stacked = X.ndim == 3
        flat = X.reshape(-1, X.shape[-1]) if stacked else np.atleast_2d(X)
        m = X.shape[1] if stacked else flat.shape[0]
        # the exterior test is per point, so a batch neither admits nor
        # refuses a point that it would not on its own
        r = dom.rho(flat)
        if np.any(r > 1e-12 * (1.0 + np.abs(r))):
            raise PointOutsideDomain("projection requested for a point outside the domain")
        self.counts["points"] += flat.shape[0]
        cd, ci = dom.cloud_tree().query(flat, k=1)
        # each point backtracks alone, so its foot does not depend on the
        # batch it is projected in
        P, ok = self._newton_polish(flat, dom.boundary_cloud()[ci], block=1)
        dist = np.linalg.norm(P - flat, axis=-1)
        # a converged foot can never beat the cloud minimum by construction;
        # a foot *worse* than the cloud minimum means the local basin was wrong.
        # The depth test compares the squared distance with 1.25 eps, so it
        # sends points deeper than sqrt(1.25 eps) (not 1.25 eps) to the
        # fallback; the collar itself is dist <= eps.
        need_fallback = (~ok) | (dist > cd + 1e-9) | (dist**2 > self.epsilon * 1.25)

        def accept(sel, feet):
            P[sel] = feet
            # the 1-D norm of each chosen offset: it can differ from the
            # row-wise norm in the last bit, and reported depths use it
            dist[sel] = [np.linalg.norm(P[j] - flat[j]) for j in sel]
            ok[sel] = True

        # step by step: a step's seeds are the final feet of the step before
        for lo in range(0, flat.shape[0], max(m, 1)):
            idx = lo + np.flatnonzero(need_fallback[lo:lo + m])
            if lo:
                seeds = P[idx - m]
            elif seed_feet is not None:
                seeds = np.atleast_2d(np.asarray(seed_feet, dtype=float))[idx]
            else:
                seeds = None
            if seeds is not None and idx.size:
                Ps, oks = self._newton_polish(flat[idx], seeds, block=1)
                take = oks & (np.linalg.norm(Ps - flat[idx], axis=-1) <= cd[idx] + 1e-9)
                accept(idx[take], Ps[take])
                idx = idx[~take]
                self.counts["seeded_accepted"] += int(np.count_nonzero(take))
                self.counts["seeded_rejected"] += idx.size
            self.counts["fallback_points"] += idx.size
            for c in range(0, idx.size, _FALLBACK_CHUNK):
                part = idx[c:c + _FALLBACK_CHUNK]
                feet, found = self._fallback_feet(flat[part])
                lost = ~found & ~ok[part]
                if np.any(lost):
                    raise ProjectionDiverged(
                        f"no converged boundary foot for point index {int(part[lost][0])}"
                    )
                accept(part[found], feet[found])
        if stacked:
            return P.reshape(X.shape), dist.reshape(X.shape[:-1])
        return P, dist


def _solve_regular(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of a stack of linear systems, zero where a system is singular.

    One singular matrix makes the stacked solve raise for all of them; the
    singular ones are then found by their smallest singular value, and the
    rest are solved in one stacked call.
    """
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        s = np.linalg.svd(J, compute_uv=False)
        regular = s[:, -1] > s[:, 0] * J.shape[-1] * np.finfo(float).eps
        step = np.zeros_like(rhs)
        step[regular] = np.linalg.solve(J[regular], rhs[regular, :, None])[..., 0]
        return step


def residual_at(dom: Domain, X, p_, lam_):
    g_ = dom.grad(p_)
    r1 = p_ - X - lam_[:, None] * g_
    r2 = dom.rho(p_)
    return g_, r1, r2, np.maximum(np.abs(r1).max(axis=-1), np.abs(r2))


# ---------------------------------------------------------------------------
# reach / collar width
# ---------------------------------------------------------------------------

def principal_curvatures(domain: Domain, P: np.ndarray) -> np.ndarray:
    """Eigenvalues of the shape operator at boundary points, batch shape (m, dim-1).

    Sign convention: the unit sphere has curvature +1 with respect to the
    outward normal.
    """
    P = np.atleast_2d(P)
    g = domain.grad(P)
    gn = np.linalg.norm(g, axis=-1)
    if np.any(gn <= 1e-12):
        raise CurvatureEstimateFailed("vanishing gradient at a curvature sample")
    n = g / gn[:, None]
    H = domain.hess(P)
    # orthonormal tangent bases from the SVD null space of the normal row
    _, _, vt = np.linalg.svd(n[:, None, :])
    Q = vt[:, 1:, :]  # (m, dim-1, dim)
    S = np.einsum("mik,mkl,mjl->mij", Q, H, Q) / gn[:, None, None]
    kappa = np.linalg.eigvalsh(S)
    if not np.all(np.isfinite(kappa)):
        raise CurvatureEstimateFailed("non-finite curvature eigenvalues")
    return kappa


# boundary samples of the reach estimate, and the share of the reach it
# takes as the collar width
_REACH_SAMPLES = 256
_REACH_SAFETY = 0.5


def reach_details(domain: Domain, seed: int = 0) -> ReachEstimate:
    """Collar width from sampled principal curvatures, with diagnostics.

    The reach proxy is the smallest curvature radius over
    ``_REACH_SAMPLES`` boundary samples; the collar width is
    ``_REACH_SAFETY`` times that, capped at one quarter of the estimated
    domain diameter.
    """
    pts = domain.sample_boundary(_REACH_SAMPLES, seed=seed)
    kappa = principal_curvatures(domain, pts)
    kmax = float(np.max(kappa))
    ceiling = 0.25 * domain.diameter_estimate()
    if kmax <= 1e-12:
        reach = math.inf
        eps = ceiling
    else:
        reach = 1.0 / kmax
        eps = min(_REACH_SAFETY * reach, ceiling)
    if not (eps > 0 and np.isfinite(eps)):
        raise CurvatureEstimateFailed("collar width estimate came out non-positive")
    return ReachEstimate(reach=reach, epsilon=float(eps), kappa_max=kmax,
                         n_samples=_REACH_SAMPLES)
