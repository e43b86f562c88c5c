"""Almost complex structures and the induced contact geometry on the boundary.

A structure is a field of matrices ``J(x)`` with ``J(x)^2 = -Id``. This
module is the only one that knows the contact geometry a domain and a
structure induce: the rotated one-form ``alpha`` (through its coefficient
vector), its exterior derivative ``dalpha_matrix`` (central differences
along the coordinate axes, with the domain's ``fd_step``), the matrix of
the Levi form (``levi_matrix``, the one implementation of that form,
which ``check_strict_convexity`` reads), the transverse frame ``(n, u)``
whose orthogonal complement is the maximal ``J``-invariant tangent
distribution, and the restricted two-form, all through batched numpy
evaluations over points of shape (..., dim). The boundary graph and the
Kobayashi-type estimate take their frames from ``transverse_frame``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    "dalpha_matrix",
    "levi_matrix",
    "check_strict_convexity",
    "ConvexityReport",
    "transverse_frame",
    "ContactData",
    "contact_batch",
]


# ---------------------------------------------------------------------------
# structure fields
# ---------------------------------------------------------------------------

class StructureField:
    """A matrix field ``J(x)`` acting on tangent vectors, with ``J^2 = -Id``."""

    def __init__(self, dim: int, matrix_fn: Callable[[np.ndarray], np.ndarray]):
        if dim < 2 or dim % 2 != 0:
            raise DimensionTooSmall(
                f"almost complex structures need an even dimension, got {dim}"
            )
        self.dim = dim
        self.matrix_fn = matrix_fn

    def j(self, x) -> np.ndarray:
        """Matrices of shape (..., dim, dim) at the given points."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.matrix_fn(x), dtype=float)
        want = x.shape[:-1] + (self.dim, self.dim)
        return np.broadcast_to(out, want).copy() if out.shape != want else out

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

                return cls(dim, fn)
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
        J, x.shape[:-1] + (dim, dim)).copy())


# the largest entry of ``J^2 + Id`` that ``check_structure`` accepts
_STRUCTURE_TOL = 1e-8


def check_structure(structure: StructureField, points) -> dict:
    """Verify ``J^2 = -Id`` at sample points, to ``_STRUCTURE_TOL`` in the
    largest entry; returns a small report dict."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    J = structure.j(X)
    sq = np.einsum("...ij,...jk->...ik", J, J)
    err = np.abs(sq + np.eye(structure.dim)).max(axis=(-2, -1))
    report = {
        "max_error": float(err.max()),
        "n_points": int(X.shape[0]),
        "ok": bool(err.max() <= _STRUCTURE_TOL),
        "tol": _STRUCTURE_TOL,
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


def dalpha_matrix(domain: Domain, structure: StructureField, x) -> np.ndarray:
    """Antisymmetric matrices ``A`` with ``d alpha (U, V) = U^T A V``.

    ``A[i, j] = d_i alpha_j - d_j alpha_i``, the exterior derivative of the
    rotated form on constant vector fields, from central differences of
    ``alpha_vec`` along the ``2 * dim`` coordinate directions. Points of
    shape (..., dim) give matrices of shape (..., dim, dim).
    """
    x = np.asarray(x, dtype=float)
    step = max(domain.fd_step, 1e-7)
    E = step * np.eye(x.shape[-1])
    xs = x[..., None, :]
    D = (alpha_vec(domain, structure, xs + E)
         - alpha_vec(domain, structure, xs - E)) / (2.0 * step)
    return D - np.swapaxes(D, -1, -2)


def levi_matrix(domain: Domain, structure: StructureField, x) -> np.ndarray:
    """Symmetric matrices of the Levi form ``X -> d(alpha)(X, JX)``.

    ``X^T A J X`` is that form, with ``A`` from ``dalpha_matrix``, so its
    matrix is ``sym(A J)``. Points of shape (..., dim) give matrices of
    shape (..., dim, dim); ``check_strict_convexity`` reads their
    eigenvalues.
    """
    x = np.asarray(x, dtype=float)
    AJ = dalpha_matrix(domain, structure, x) @ structure.j(x)
    return 0.5 * (AJ + np.swapaxes(AJ, -1, -2))


@dataclass
class ConvexityReport:
    min_eigenvalue: float
    n_points: int
    ok: bool
    worst_point: np.ndarray


# a sample passes when its smallest Levi eigenvalue exceeds the margin;
# the inward samples sit band * 0.1 * (box diagonal) inside the boundary
_CONVEXITY_MARGIN = 0.0
_BOUNDARY_BAND = 0.05


def check_strict_convexity(domain: Domain, structure: StructureField,
                           n_samples: int, seed: int) -> ConvexityReport:
    """Positivity of the Levi form near the boundary.

    Samples boundary points and copies pushed ``_BOUNDARY_BAND`` times a
    tenth of the box diagonal inward, assembles the Levi matrix at each,
    and reports the smallest eigenvalue over the sample set.
    """
    pts = domain.sample_boundary(n_samples, seed=seed)
    g = domain.grad(pts)
    nrm = np.linalg.norm(g, axis=-1, keepdims=True)
    scale = float(np.linalg.norm(domain.box[1] - domain.box[0]))
    inward = pts - (_BOUNDARY_BAND * 0.1 * scale) * g / nrm
    inward = inward[domain.rho(inward) < 0]
    sample = np.concatenate([pts, inward], axis=0)
    A = levi_matrix(domain, structure, sample)
    eigs = np.linalg.eigvalsh(A)
    mins = eigs[..., 0]
    worst = int(np.argmin(mins))
    return ConvexityReport(
        min_eigenvalue=float(mins[worst]),
        n_points=int(sample.shape[0]),
        ok=bool(mins[worst] > _CONVEXITY_MARGIN),
        worst_point=sample[worst],
    )


# ---------------------------------------------------------------------------
# contact data on the boundary
# ---------------------------------------------------------------------------

def transverse_frame(domain: Domain, structure: StructureField,
                     P) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frame ``(n, u)`` of the complement of the distribution.

    ``n`` is the unit outward normal and ``u`` is ``J^T n`` with its normal
    part removed, normalised. The maximal complex tangent distribution
    ``T(bD) & J T(bD)`` is the orthogonal complement of ``{n, J^T n}``, so
    it is the complement of this frame; it is ``J``-invariant whenever
    ``J`` squares to minus the identity, orthogonal or not. Points of
    shape (..., dim) give two arrays of that shape. Raises
    ``DegenerateContact`` where the gradient vanishes or ``J^T n`` is
    parallel to ``n``.
    """
    P = np.asarray(P, dtype=float)
    g = domain.grad(P)
    gn = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(gn <= 1e-12):
        raise DegenerateContact("vanishing gradient at a contact point")
    n = g / gn
    jtn = np.einsum("...ji,...j->...i", structure.j(P), n)
    u = jtn - np.sum(jtn * n, axis=-1, keepdims=True) * n
    un = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(un <= 1e-8 * np.linalg.norm(jtn, axis=-1, keepdims=True)):
        raise DegenerateContact("normal and rotated normal nearly parallel")
    return n, u / un


def _nullspace_bases(rows: np.ndarray) -> np.ndarray:
    """Orthonormal null-space bases for batched row stacks, sign-normalized."""
    _, _, vt = np.linalg.svd(rows)
    basis = vt[:, rows.shape[1]:, :]
    # deterministic sign: first sufficiently large component positive
    b = basis.reshape(-1, basis.shape[-1])
    idx = np.argmax(np.abs(b) > 1e-8, axis=1)
    signs = np.sign(b[np.arange(b.shape[0]), idx])
    signs[signs == 0] = 1.0
    return (b * signs[:, None]).reshape(basis.shape)


@dataclass
class ContactData:
    """Contact frame at one boundary point.

    ``eta`` is the coefficient vector of the boundary contact form, minus
    ``alpha_vec``; ``basis`` holds an orthonormal basis of the maximal
    complex tangent distribution as rows; ``omega`` is the restricted two-form in that
    basis; ``normal`` and ``jnormal`` are the frame of ``transverse_frame``
    that spans the complement.
    """

    point: np.ndarray
    eta: np.ndarray
    basis: np.ndarray
    omega: np.ndarray
    normal: np.ndarray
    jnormal: np.ndarray


def contact_batch(domain: Domain, structure: StructureField,
                  P: np.ndarray) -> list[ContactData]:
    """Contact data at a batch of boundary points.

    The distribution is the complement of ``transverse_frame``; the
    restricted two-form is ``-B A B^T`` with ``A`` from ``dalpha_matrix``
    (``d eta = -d alpha``). Degenerate frames and two-forms raise.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[1] < 4:
        raise DimensionTooSmall("contact data needs dimension at least 4")
    normal, u = transverse_frame(domain, structure, P)
    basis = _nullspace_bases(np.stack([normal, u], axis=1))
    eta = -alpha_vec(domain, structure, P)
    omega = -basis @ dalpha_matrix(domain, structure, P) @ np.swapaxes(basis, 1, 2)
    sv_omega = np.linalg.svd(omega, compute_uv=False)
    floor = 1e-6 * np.maximum(sv_omega[:, 0], 1e-300)
    if np.any(sv_omega[:, -1] < floor):
        raise DegenerateContact("restricted two-form is numerically degenerate")
    return [ContactData(point=P[i], eta=eta[i], basis=basis[i], omega=omega[i],
                        normal=normal[i], jnormal=u[i])
            for i in range(P.shape[0])]
