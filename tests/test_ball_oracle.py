"""The boundary metric `g` and the interior estimate against the ball.

On the unit ball of C^2 the Kobayashi distance and its infinitesimal
metric have closed forms, so the bounded additive gap between `g` and `k`
that Balogh-Bonk predict, and the ratio of the pointwise estimate to the
Kobayashi metric, can be checked directly rather than against another
estimate. On the sphere, Rudin's gauge is an exact boundary metric, the
denominator against which Gromov products are read.
"""

import numpy as np

from hypkob import kobayashi
from hypkob.gromov import distance_matrix

from conftest import EPS

# Band of g - k_B on the pool below (500-node graph, seed 5, 46 points,
# 1,035 pairs). Measured before the boundary graph's thinning and Dijkstra
# were optimised: min 1.2611, max 3.9216, width 2.66.
GAP_LOW = 1.2
GAP_HIGH = 4.0


def k_ball(X, Y):
    """Kobayashi distance of the unit ball in C^2, z = (x1 + i x2, x3 + i x4).

    k_B(z, w) = artanh sqrt(1 - (1-|z|^2)(1-|w|^2) / |1 - <z, w>|^2).
    """
    z = X[..., 0::2] + 1j * X[..., 1::2]
    w = Y[..., 0::2] + 1j * Y[..., 1::2]
    num = ((1.0 - np.sum(np.abs(z) ** 2, axis=-1))
           * (1.0 - np.sum(np.abs(w) ** 2, axis=-1)))
    den = np.abs(1.0 - np.sum(z * np.conj(w), axis=-1)) ** 2
    return np.arctanh(np.sqrt(np.clip(1.0 - num / den, 0.0, None)))


def rudin_gauge(X, Y):
    """Rudin's gauge on the unit sphere of C^2, R = |1 - <xi, zeta>|^(1/2).

    R is a metric on the sphere, comparable to its Carnot-Caratheodory
    distance (Rudin, Function Theory in the Unit Ball of C^n, 5.1.2): it
    grows linearly along the complex tangent, and as the square root of an
    offset along the Reeb direction J xi.
    """
    z = X[..., 0::2] + 1j * X[..., 1::2]
    w = Y[..., 0::2] + 1j * Y[..., 1::2]
    return np.sqrt(np.abs(1.0 - np.sum(z * np.conj(w), axis=-1)))


def reeb(U):
    """J u, multiplication by i in z = (x1 + i x2, x3 + i x4)."""
    a, b, c, d = U.T
    return np.stack([-b, a, -d, c], axis=-1)


def complex_tangent(U):
    """(-conj z2, conj z1), orthogonal to u and J u, of u's length."""
    a, b, c, d = U.T
    return np.stack([-c, d, a, -b], axis=-1)


def unit(V):
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


def kobayashi_metric_ball(X, V):
    """Infinitesimal Kobayashi metric of the unit ball in C^2.

    F_B(z; v)^2 = |v|^2 / (1 - |z|^2) + |<z, v>|^2 / (1 - |z|^2)^2.
    """
    z = X[..., 0::2] + 1j * X[..., 1::2]
    v = V[..., 0::2] + 1j * V[..., 1::2]
    s = 1.0 - np.sum(np.abs(z) ** 2, axis=-1)
    zv = np.abs(np.sum(z * np.conj(v), axis=-1)) ** 2
    return np.sqrt(np.sum(np.abs(v) ** 2, axis=-1) / s + zv / (s * s))


def test_speed_to_ball_metric_ratio(projection, structure):
    # at depth t on the ray of u the estimate is A_N / t along u and along
    # the complex normal J u, and A_H / sqrt(t) along the complex tangent,
    # while F_B is 1 / (t (2 - t)) and 1 / sqrt(t (2 - t)) there. The
    # projection's depth is within about 4e-11 of t, which is 4e-6 relative
    # at t = 1e-5, so the ratios are taken at the projection's depth.
    rng = np.random.default_rng(11)
    U = unit(rng.normal(size=(6, 4)))
    ju, tangent = reeb(U), complex_tangent(U)
    for t in np.geomspace(1e-5, 0.1, 5):
        X = (1.0 - t) * U
        _, depth = projection.project_batch(X)
        assert np.all(np.abs(depth - t) < 1e-10)
        normal = (2.0 - t) * t / depth
        for V, want in ((U, kobayashi.A_N * normal),
                        (ju, kobayashi.A_N * normal),
                        (tangent, kobayashi.A_H * np.sqrt(normal))):
            got = (kobayashi.kobayashi_speed_batch(projection, structure, X, V)
                   / kobayashi_metric_ball(X, V))
            assert np.all(np.abs(got / want - 1.0) < 1e-9), (t, got / want)


def test_k_ball_closed_form():
    r = np.array([0.0, 0.3, 0.9])
    radial = np.stack([np.zeros(3), np.zeros(3), r, np.zeros(3)], axis=-1)
    assert np.allclose(k_ball(np.zeros(4), radial), np.arctanh(r),
                       rtol=1e-14, atol=0.0)
    # a unitary map of C^2 (a phase on each coordinate, then a swap) is an
    # isometry, and the distance is symmetric
    rng = np.random.default_rng(3)
    X = rng.uniform(-0.5, 0.5, size=(20, 4))
    Y = rng.uniform(-0.5, 0.5, size=(20, 4))
    c, s = np.cos(0.7), np.sin(0.7)
    U = np.array([[0, 0, c, -s], [0, 0, s, c], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert np.allclose(k_ball(X, Y), k_ball(Y, X), rtol=1e-12)
    assert np.allclose(k_ball(X @ U.T, Y @ U.T), k_ball(X, Y), rtol=1e-12)


def test_g_minus_k_ball_stays_in_band(family):
    pool = family.collar_sample(46, 5)
    G = distance_matrix(family, "g", pool)
    X = pool.points
    K = k_ball(X[:, None, :], X[None, :, :])
    iu = np.triu_indices(len(pool), 1)
    gap = (G - K)[iu]
    assert gap.size == 1035 and np.all(np.isfinite(gap))
    assert GAP_LOW <= gap.min() and gap.max() <= GAP_HIGH, (
        f"g - k_B in [{gap.min():.4f}, {gap.max():.4f}]")


def test_rudin_gauge_triangle_inequality():
    # largest R(a, c) - R(a, b) - R(b, c) at seed 7: -0.028 on random
    # triples, -2.6e-5 on near-coincident ones (offsets of 1e-6 to 0.1
    # along J a and in a random direction)
    rng = np.random.default_rng(7)
    n = 100_000
    A, B, C = (unit(rng.normal(size=(n, 4))) for _ in range(3))
    assert np.max(rudin_gauge(A, C) - rudin_gauge(A, B)
                  - rudin_gauge(B, C)) < 0.0

    def near(A):
        s = 10.0 ** rng.uniform(-6, -1, size=(n, 1))
        r = 10.0 ** rng.uniform(-6, -1, size=(n, 1))
        sign = rng.choice([-1.0, 1.0], size=(n, 1))
        return unit(A + sign * s * reeb(A)
                    + r * unit(rng.normal(size=A.shape)))

    A = unit(rng.normal(size=(n, 4)))
    B, C = near(A), near(A)
    assert np.max(rudin_gauge(A, C) - rudin_gauge(A, B)
                  - rudin_gauge(B, C)) < 0.0


def test_exact_boundary_products_over_rudin_gauge():
    # As the depth t -> 0, the k_B product of (1 - t) xi and (1 - t) zeta
    # based at the origin tends to ln(2 / |1 - <xi, zeta>|) / 2, so
    # exp(-(xi|zeta)_0) / R tends to 1 / sqrt(2). At t = EPS 2^-20 the
    # pairs below read 0.7070-0.7075: 100 random pairs, 100 antipodal
    # ones, 100 Reeb offsets (R from 0.006) and 100 complex-tangent offsets
    # (R from 0.03; their 1 - <x, y> takes 2t in phase, so the bias is
    # t / R^2). At t = EPS 2^-24 the same pairs spread to 0.687-0.713, the
    # random ones most: there (1 - |x|^2)(1 - |y|^2) / |1 - <x, y>|^2 is
    # near 1e-15, and k_ball's closed form cancels in 1 - that ratio. That
    # is rounding, not geometry.
    rng = np.random.default_rng(7)
    m = 100
    xi = unit(rng.normal(size=(4 * m, 4)))
    reeb_s = np.geomspace(4e-5, 1.0, m)[:, None]
    tangent_s = np.geomspace(0.0425, 1.0, m)[:, None]
    zeta = np.vstack([
        unit(rng.normal(size=(m, 4))),
        -xi[m:2 * m],
        unit(xi[2 * m:3 * m] + reeb_s * reeb(xi[2 * m:3 * m])),
        unit(xi[3 * m:] + tangent_s * complex_tangent(xi[3 * m:]))])
    R = rudin_gauge(xi, zeta)
    assert 0.006 < R.min() and np.isclose(R.max(), np.sqrt(2.0))
    t = EPS * 2.0**-20
    origin = np.zeros(4)
    X, Y = (1.0 - t) * xi, (1.0 - t) * zeta
    prod = 0.5 * (k_ball(X, origin) + k_ball(Y, origin) - k_ball(X, Y))
    ratio = np.exp(-prod) / R
    assert np.all(np.abs(ratio - 1.0 / np.sqrt(2.0)) < 1e-3), (
        f"exp(-product) / R in [{ratio.min():.4f}, {ratio.max():.4f}]")
