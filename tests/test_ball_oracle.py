"""The boundary metric `g` against the exact Kobayashi distance of the ball.

On the unit ball of C^2 the Kobayashi distance has a closed form, so the
bounded additive gap between `g` and `k` that Balogh-Bonk predict can be
checked directly rather than against another estimate.
"""

import numpy as np

from hypkob.gromov import BoundaryBiasedSampler, distance_matrix

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
    pool = BoundaryBiasedSampler(family, 5).sample(46)
    G = distance_matrix(family.functional("g"), pool)
    K = k_ball(pool[:, None, :], pool[None, :, :])
    iu = np.triu_indices(pool.shape[0], 1)
    gap = (G - K)[iu]
    assert gap.size == 1035 and np.all(np.isfinite(gap))
    assert GAP_LOW <= gap.min() and gap.max() <= GAP_HIGH, (
        f"g - k_B in [{gap.min():.4f}, {gap.max():.4f}]")
