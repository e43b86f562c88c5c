import numpy as np
import pytest
import sympy as sp

from hypkob import (Domain, StructureField, standard_structure,
                    check_structure, alpha_vec, levi_matrix,
                    check_strict_convexity, contact_batch, DimensionTooSmall)


def levi(domain, structure, x, X):
    """The Levi form ``d(alpha)(X, JX)`` as ``X^T L X``, ``L`` from
    ``levi_matrix``."""
    return np.einsum("...i,...ij,...j->...", X,
                     levi_matrix(domain, structure, x), X)


def peanut_domain():
    """Bounded domain whose Levi form goes negative on a thick band."""
    terms = [
        {"coefficient": 1.0, "exponents": [2, 0, 0, 0]},
        {"coefficient": 1.0, "exponents": [0, 2, 0, 0]},
        {"coefficient": 1.0, "exponents": [0, 0, 2, 0]},
        {"coefficient": 1.0, "exponents": [0, 0, 0, 2]},
        {"coefficient": -2.0, "exponents": [0, 0, 4, 0]},
        {"coefficient": 1.0, "exponents": [0, 0, 6, 0]},
        {"coefficient": -1.0, "exponents": [0, 0, 0, 0]},
    ]
    return Domain.from_spec({
        "dimension": 4,
        "defining_function": {"type": "polynomial", "terms": terms},
        "box": [[-1.8, -1.3, -1.8, -1.3], [1.8, 1.3, 1.8, 1.3]],
    })


def test_standard_structure_squares_to_minus_id(structure):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(16, 4))
    rep = check_structure(structure, pts)
    assert rep["ok"]
    assert rep["max_error"] < 1e-12
    assert rep["n_points"] == 16


def test_check_structure_flags_non_structure(ball):
    bad = StructureField(4, lambda x: np.broadcast_to(
        np.eye(4), x.shape[:-1] + (4, 4)).copy(), name="identity")
    rep = check_structure(bad, np.zeros((3, 4)))
    assert not rep["ok"]


def test_alpha_is_rotated_gradient(ball, structure):
    rng = np.random.default_rng(1)
    x = ball.sample_boundary(8, seed=1)
    v = rng.normal(size=(8, 4))
    a = alpha_vec(ball, structure, x)
    J = structure.j(x)
    direct = -np.einsum("...i,...ij,...j->...", ball.grad(x), J, v)
    assert np.allclose(np.einsum("...i,...i->...", a, v), direct, atol=1e-12)
    # the contact form of the contact frames is minus alpha
    eta = np.array([cd.eta for cd in contact_batch(ball, structure, x)])
    assert np.array_equal(eta, -a)


def test_levi_ball_model_constant(ball, structure):
    rng = np.random.default_rng(2)
    pts = ball.sample_boundary(20, seed=2)
    X = rng.normal(size=(20, 4))
    L = levi(ball, structure, pts, X)
    expect = 4.0 * np.sum(X * X, axis=-1)
    assert np.max(np.abs(L - expect) / expect) < 1e-6


def test_levi_matches_symbolic_derivative(ellipsoid, structure):
    xs = sp.symbols("x1 x2 x3 x4")
    rho = xs[0] ** 2 / 4 + xs[1] ** 2 + xs[2] ** 2 + xs[3] ** 2 - 1
    J = structure.j(np.zeros(4))
    alpha = [-sum(J[j, i] * sp.diff(rho, xs[j]) for j in range(4))
             for i in range(4)]
    grad_alpha = [[sp.diff(alpha[i], xs[j]) for j in range(4)]
                  for i in range(4)]
    p = np.array([1.2, 0.4, 0.5, 0.3])
    p = p / np.sqrt(p[0] ** 2 / 4 + p[1] ** 2 + p[2] ** 2 + p[3] ** 2)
    subs = dict(zip(xs, p))
    GA = np.array([[float(grad_alpha[i][j].subs(subs)) for j in range(4)]
                   for i in range(4)])
    rng = np.random.default_rng(3)
    for _ in range(3):
        U = rng.normal(size=4)
        V = J @ U
        oracle = float(V @ GA @ U - U @ GA @ V)
        got = levi(ellipsoid, structure, p, U)
        assert abs(got - oracle) < 1e-6 * max(1.0, abs(oracle))


def test_levi_homogeneity(ball, structure):
    x = np.array([0.6, 0.0, 0.8, 0.0])
    X = np.array([0.3, -1.1, 0.2, 0.9])
    a = levi(ball, structure, x, X)
    b = levi(ball, structure, x, 3.0 * X)
    assert abs(b - 9.0 * a) < 1e-10 * abs(a)
    assert levi(ball, structure, x, np.zeros(4)) == 0.0


def test_levi_matrix_ball_is_scalar(ball, structure):
    p = np.array([0.0, 1.0, 0.0, 0.0])
    A = levi_matrix(ball, structure, p)
    assert np.allclose(A, 4.0 * np.eye(4), atol=1e-6)


def test_ball_strictly_convex(ball, structure):
    rep = check_strict_convexity(ball, structure, n_samples=32, seed=0)
    assert rep.ok
    assert abs(rep.min_eigenvalue - 4.0) < 0.05
    assert rep.n_points >= 32


def test_peanut_fails_convexity(structure):
    dom = peanut_domain()
    rep = check_strict_convexity(dom, structure, n_samples=64, seed=0)
    assert not rep.ok
    assert rep.min_eigenvalue < 0.0
    assert 0.48 < abs(rep.worst_point[2]) < 0.76


def test_contact_frame_at_pole(ball, structure):
    p = np.array([1.0, 0.0, 0.0, 0.0])
    cd = contact_batch(ball, structure, p[None])[0]
    assert cd.basis.shape == (2, 4)
    # the complex tangent space at the pole is the (e3, e4) plane
    assert np.abs(cd.basis[:, :2]).max() < 1e-8
    assert np.allclose(np.abs(cd.normal), [1, 0, 0, 0], atol=1e-8)
    assert np.abs(cd.jnormal[0]) < 1e-8
    assert abs(abs(cd.jnormal[1]) - 1.0) < 1e-8
    G = cd.basis @ cd.basis.T
    assert np.allclose(G, np.eye(2), atol=1e-10)


def test_contact_distribution_j_invariant(ball, structure):
    pts = ball.sample_boundary(12, seed=4)
    for cd in contact_batch(ball, structure, pts):
        JB = cd.basis @ structure.j(cd.point).T
        back = JB - (JB @ cd.basis.T) @ cd.basis
        assert np.abs(back).max() < 1e-8


def test_restricted_form_pairs_with_levi(ball, structure):
    rng = np.random.default_rng(5)
    pts = ball.sample_boundary(10, seed=5)
    for cd in contact_batch(ball, structure, pts):
        c = rng.normal(size=2)
        X = c @ cd.basis
        JX = structure.j(cd.point) @ X
        cj = cd.basis @ JX
        val = float(c @ cd.omega @ cj)
        L = levi(ball, structure, cd.point, X)
        assert abs(val + L) < 1e-6 * max(1.0, abs(L))


def test_contact_needs_dimension_four():
    disc = Domain.from_spec({"dimension": 2,
                             "defining_function": {"type": "ball"}})
    with pytest.raises(DimensionTooSmall):
        contact_batch(disc, standard_structure(2),
                      np.array([[1.0, 0.0]]))
