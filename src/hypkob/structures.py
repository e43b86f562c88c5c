"""Almost complex structures and the induced contact geometry on the boundary.

A structure is a field of matrices ``J(x)`` with ``J(x)^2 = -Id``. From a
domain and a structure we derive the boundary one-form (evaluated through
its coefficient vector), the Levi form of the defining function, the
maximal ``J``-invariant tangent distribution, and the restricted two-form,
all through batched numpy evaluations with central finite differences for
the exterior derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import (
    ConfigError,
    DegenerateContact,
    DimensionTooSmall,
)
from .domain import Domain

__all__ = [
    "StructureField",
    "standard_structure",
    "check_structure",
    "alpha_vec",
    "eta_vec",
    "levi_form",
    "levi_matrix",
    "check_strict_convexity",
    "ConvexityReport",
    "ContactData",
    "contact_batch",
    "contact_at",
]


# ---------------------------------------------------------------------------
# structure fields
# ---------------------------------------------------------------------------

class StructureField:
    """A matrix field ``J(x)`` acting on tangent vectors, with ``J^2 = -Id``."""

    def __init__(self, dim: int, matrix_fn: Callable[[np.ndarray], np.ndarray],
                 name: str = "structure"):
        if dim < 2 or dim % 2 != 0:
            raise DimensionTooSmall(
                f"almost complex structures need an even dimension, got {dim}"
            )
        self.dim = dim
        self.matrix_fn = matrix_fn
        self.name = name

    def j(self, x) -> np.ndarray:
        """Matrices of shape (..., dim, dim) at the given points."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.matrix_fn(x), dtype=float)
        want = x.shape[:-1] + (self.dim, self.dim)
        return np.broadcast_to(out, want).copy() if out.shape != want else out

    def apply(self, x, v) -> np.ndarray:
        """``J(x) v`` for batched points and vectors of matching shape."""
        J = self.j(x)
        return np.einsum("...ij,...j->...i", J, np.asarray(v, dtype=float))

    @classmethod
    def from_spec(cls, spec: dict, dim: int) -> "StructureField":
        try:
            kind = spec.get("type", "standard")
            if kind == "standard":
                return standard_structure(dim)
            if kind == "matrix_polynomial":
                base = np.asarray(spec["constant"], dtype=float)
                terms = spec.get("linear", [])
                linear = np.zeros((dim, dim, dim))
                for t in terms:
                    linear[:, :, int(t["variable"])] += np.asarray(t["matrix"], dtype=float)

                def fn(x):
                    return base + np.einsum("ijk,...k->...ij", linear, x)

                return cls(dim, fn, name="matrix_polynomial")
            if kind == "grid":
                axes = [np.asarray(a, dtype=float) for a in spec["axes"]]
                values = np.asarray(spec["values"], dtype=float)
                interp = RegularGridInterpolator(axes, values, bounds_error=False,
                                                 fill_value=None)

                def fn(x):
                    flat = np.atleast_2d(x.reshape(-1, dim))
                    out = interp(flat).reshape(x.shape[:-1] + (dim, dim))
                    return out

                return cls(dim, fn, name="grid")
            raise ConfigError(f"unknown structure type {kind!r}")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"malformed structure spec: {exc}") from exc


def standard_structure(dim: int) -> StructureField:
    """Block-diagonal rotation by a quarter turn in each coordinate pair."""
    if dim % 2 != 0:
        raise DimensionTooSmall("the standard structure needs an even dimension")
    J = np.zeros((dim, dim))
    for k in range(dim // 2):
        J[2 * k, 2 * k + 1] = -1.0
        J[2 * k + 1, 2 * k] = 1.0
    return StructureField(dim, lambda x: np.broadcast_to(
        J, x.shape[:-1] + (dim, dim)).copy(), name="standard")


def check_structure(structure: StructureField, points, tol: float = 1e-10) -> dict:
    """Verify ``J^2 = -Id`` at sample points; returns a small report dict."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    J = structure.j(X)
    sq = np.einsum("...ij,...jk->...ik", J, J)
    err = np.abs(sq + np.eye(structure.dim)).max(axis=(-2, -1))
    report = {
        "max_error": float(err.max()),
        "n_points": int(X.shape[0]),
        "ok": bool(err.max() <= tol),
        "tol": float(tol),
    }
    return report


# ---------------------------------------------------------------------------
# one-forms and the Levi form
# ---------------------------------------------------------------------------

def alpha_vec(domain: Domain, structure: StructureField, x) -> np.ndarray:
    """Coefficient vector of the rotated differential of rho.

    The one-form pairs with a vector v as ``alpha(v) = -(J^T grad rho) . v``,
    so ``alpha(v) = -grad_rho . (J v)``.
    """
    x = np.asarray(x, dtype=float)
    g = domain.grad(x)
    J = structure.j(x)
    return -np.einsum("...ji,...j->...i", J, g)


def eta_vec(domain: Domain, structure: StructureField, x) -> np.ndarray:
    """Coefficient vector of the boundary contact form; minus ``alpha_vec``."""
    return -alpha_vec(domain, structure, x)


def _directional_form_derivative(domain: Domain, structure: StructureField,
                                 x: np.ndarray, U: np.ndarray, V: np.ndarray,
                                 step: float) -> np.ndarray:
    """Central difference of ``alpha(V)`` along U with V held constant."""
    ap = alpha_vec(domain, structure, x + step * U)
    am = alpha_vec(domain, structure, x - step * U)
    return np.einsum("...i,...i->...", ap - am, V) / (2.0 * step)


def two_form_on(domain: Domain, structure: StructureField, x, U, V,
                step: Optional[float] = None) -> np.ndarray:
    """Exterior derivative of the rotated form on constant extensions of U, V.

    ``d alpha (U, V) = D_U[alpha(V)] - D_V[alpha(U)]`` when U and V are
    extended as constant vector fields.
    """
    x = np.asarray(x, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if step is None:
        step = max(domain.fd_step, 1e-7)
    return (_directional_form_derivative(domain, structure, x, U, V, step)
            - _directional_form_derivative(domain, structure, x, V, U, step))


def levi_form(domain: Domain, structure: StructureField, x, X) -> np.ndarray:
    """Quadratic form ``d(alpha)(X, JX)`` with scale-normalized differencing.

    Supports batched points (m, dim) with vectors of the same shape, or a
    single point and vector. Zero vectors give exactly zero.
    """
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    Xb = np.atleast_2d(X)
    nrm = np.linalg.norm(Xb, axis=-1)
    out = np.zeros(xb.shape[0])
    mask = nrm > 0
    if np.any(mask):
        U = Xb[mask] / nrm[mask][:, None]
        JU = structure.apply(xb[mask], U)
        q = two_form_on(domain, structure, xb[mask], U, JU)
        out[mask] = q * nrm[mask] ** 2
    return float(out[0]) if single else out


def levi_matrix(domain: Domain, structure: StructureField, x) -> np.ndarray:
    """Symmetric matrix of the Levi quadratic form by polarization."""
    x = np.asarray(x, dtype=float)
    n = domain.dim
    A = np.zeros(x.shape[:-1] + (n, n))
    eye = np.eye(n)
    diag = [levi_form(domain, structure, x, np.broadcast_to(eye[i], x.shape).copy())
            for i in range(n)]
    for i in range(n):
        A[..., i, i] = diag[i]
    for i in range(n):
        for j in range(i + 1, n):
            plus = np.broadcast_to(eye[i] + eye[j], x.shape).copy()
            minus = np.broadcast_to(eye[i] - eye[j], x.shape).copy()
            qp = levi_form(domain, structure, x, plus)
            qm = levi_form(domain, structure, x, minus)
            A[..., i, j] = A[..., j, i] = 0.25 * (qp - qm)
    return A


@dataclass
class ConvexityReport:
    min_eigenvalue: float
    n_points: int
    ok: bool
    worst_point: np.ndarray


def check_strict_convexity(domain: Domain, structure: StructureField,
                           n_samples: int = 64, seed: int = 0,
                           margin: float = 0.0,
                           band: float = 0.05) -> ConvexityReport:
    """Positivity of the Levi form near the boundary.

    Samples points with ``|rho|`` below ``band`` times the field scale
    (boundary samples pushed slightly inward), assembles the Levi matrix at
    each, and reports the smallest eigenvalue over the sample set.
    """
    pts = domain.sample_boundary(n_samples, seed=seed)
    g = domain.grad(pts)
    nrm = np.linalg.norm(g, axis=-1, keepdims=True)
    scale = float(np.linalg.norm(domain.box[1] - domain.box[0]))
    inward = pts - (band * 0.1 * scale) * g / nrm
    inward = inward[domain.rho(inward) < 0]
    sample = np.concatenate([pts, inward], axis=0)
    A = levi_matrix(domain, structure, sample)
    eigs = np.linalg.eigvalsh(A)
    mins = eigs[..., 0]
    worst = int(np.argmin(mins))
    return ConvexityReport(
        min_eigenvalue=float(mins[worst]),
        n_points=int(sample.shape[0]),
        ok=bool(mins[worst] > margin),
        worst_point=sample[worst],
    )


# ---------------------------------------------------------------------------
# contact data on the boundary
# ---------------------------------------------------------------------------

@dataclass
class ContactData:
    """Contact frame at one boundary point.

    ``basis`` holds an orthonormal basis of the maximal complex tangent
    distribution as rows; ``omega`` is the restricted two-form in that
    basis; ``normal`` and ``jnormal`` span the complement.
    """

    point: np.ndarray
    eta: np.ndarray
    basis: np.ndarray
    omega: np.ndarray
    normal: np.ndarray
    jnormal: np.ndarray


def _nullspace_bases(rows: np.ndarray, keep: int) -> np.ndarray:
    """Orthonormal null-space bases for batched row stacks, sign-normalized."""
    _, s, vt = np.linalg.svd(rows)
    basis = vt[:, rows.shape[1]:, :][:, :keep, :]
    # deterministic sign: first sufficiently large component positive
    b = basis.reshape(-1, basis.shape[-1])
    idx = np.argmax(np.abs(b) > 1e-8, axis=1)
    signs = np.sign(b[np.arange(b.shape[0]), idx])
    signs[signs == 0] = 1.0
    basis = (b * signs[:, None]).reshape(basis.shape)
    return basis, s


def contact_batch(domain: Domain, structure: StructureField,
                  P: np.ndarray) -> list[ContactData]:
    """Contact data at a batch of boundary points.

    The distribution is the orthogonal complement of the span of the
    gradient and its pullback under ``J``; it is ``J``-invariant whenever
    ``J`` squares to minus the identity. Degenerate spans raise.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    m, n = P.shape
    if n < 4:
        raise DimensionTooSmall("contact data needs dimension at least 4")
    g = domain.grad(P)
    gn = np.linalg.norm(g, axis=-1)
    if np.any(gn <= 1e-12):
        raise DegenerateContact("vanishing gradient at a contact point")
    normal = g / gn[:, None]
    J = structure.j(P)
    jtn = np.einsum("mji,mj->mi", J, normal)
    jtn_n = np.linalg.norm(jtn, axis=-1)
    if np.any(jtn_n <= 1e-8):
        raise DegenerateContact("rotated normal collapsed; structure degenerate here")
    rows = np.stack([normal, jtn / jtn_n[:, None]], axis=1)  # (m, 2, n)
    basis, sv = _nullspace_bases(rows, n - 2)
    if np.any(sv[:, 1] <= 1e-8):
        raise DegenerateContact("normal and rotated normal nearly parallel")
    eta = eta_vec(domain, structure, P)
    # restricted two-form on the distribution, entrywise by finite differences
    step = max(domain.fd_step, 1e-7)
    k = n - 2
    omega = np.zeros((m, k, k))
    for a in range(k):
        for b in range(a + 1, k):
            U = basis[:, a, :]
            V = basis[:, b, :]
            # d(eta) = -d(alpha); evaluate on constant extensions
            val = -two_form_on(domain, structure, P, U, V, step=step)
            omega[:, a, b] = val
            omega[:, b, a] = -val
    sv_omega = np.linalg.svd(omega, compute_uv=False)
    floor = 1e-6 * np.maximum(sv_omega[:, 0], 1e-300)
    if np.any(sv_omega[:, -1] < floor):
        raise DegenerateContact("restricted two-form is numerically degenerate")
    jnormal = structure.apply(P, normal)
    out = []
    for i in range(m):
        out.append(ContactData(point=P[i], eta=eta[i], basis=basis[i],
                               omega=omega[i], normal=normal[i],
                               jnormal=jnormal[i]))
    return out


def contact_at(domain: Domain, structure: StructureField, p) -> ContactData:
    return contact_batch(domain, structure, np.asarray(p, dtype=float)[None, :])[0]
