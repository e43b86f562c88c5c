"""The boundary metric `g` and the interior estimate against the ball.

On the unit ball of C^2 the Kobayashi distance and its infinitesimal
metric have closed forms, so the bounded additive gap between `g` and `k`
that Balogh-Bonk predict, and the ratio of the pointwise estimate to the
Kobayashi metric, can be checked directly rather than against another
estimate.
"""

import numpy as np

from hypkob import kobayashi
from hypkob.gromov import distance_matrix

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
    U = rng.normal(size=(6, 4))
    U /= np.linalg.norm(U, axis=-1, keepdims=True)
    a, b, c, d = U.T
    ju = np.stack([-b, a, -d, c], axis=-1)
    tangent = np.stack([-c, d, a, -b], axis=-1)
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
