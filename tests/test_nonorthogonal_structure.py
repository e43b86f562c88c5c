"""The contact frame under an exact but non-orthogonal structure.

``J = M^{-1} J_st M`` with a seeded ``M = I + 0.3 N(0, 1)`` squares to
minus the identity to rounding, but ``J^T != -J``, so ``J n`` and
``J^T n`` span different planes with the normal. The maximal complex
tangent distribution is the complement of ``{n, J^T n}``; every module
must agree on it. The unit ball is strictly J-convex for this ``J``.
"""

import json

import numpy as np
import pytest

from hypkob import (BoundaryGraph, HeightProjection, StructureField,
                    standard_structure)
from hypkob.cli import main
from hypkob.kobayashi import _split_arrays

BALL_SPEC = {"dimension": 4, "defining_function": {"type": "ball"}}


def skew_matrix(seed=0):
    M = np.eye(4) + 0.3 * np.random.default_rng(seed).normal(size=(4, 4))
    Jst = standard_structure(4).j(np.zeros(4))
    return np.linalg.solve(M, Jst @ M)


@pytest.fixture(scope="module")
def skew():
    J = skew_matrix()
    spec = {"type": "matrix_polynomial", "constant": J.tolist()}
    return J, spec, StructureField.from_spec(spec, 4)


def complex_tangent_basis(J, n):
    """Orthonormal basis of the complement of {n, J^T n}, by plain SVD."""
    _, _, vt = np.linalg.svd(np.stack([n, J.T @ n]))
    return vt[2:]


def test_skew_structure_is_exact_and_not_orthogonal(skew):
    J, _, _ = skew
    assert np.abs(J @ J + np.eye(4)).max() < 1e-14
    assert np.abs(J.T + J).max() > 0.1


def test_check_passes_on_skew_structure(skew, tmp_path):
    _, spec, _ = skew
    cfg = {"domain": BALL_SPEC, "structure": spec, "epsilon": 0.5,
           "graph": {"n_nodes": 64, "k_neighbors": 8}}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["check", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


def test_graph_frame_complement_is_j_invariant(ball, skew):
    J, _, structure = skew
    graph = BoundaryGraph.build(ball, structure, n_nodes=64, k_neighbors=8,
                                seed=0)
    for i in range(graph.nodes.shape[0]):
        H = complex_tangent_basis(J, graph.node_normals()[i])
        W = np.concatenate([H, H @ J.T])       # H and J H
        _, trans = graph.chord_parts(np.zeros_like(W), W,
                                     np.full(W.shape[0], i))
        assert trans.max() < 1e-12 * np.linalg.norm(W, axis=-1).max()


def test_split_is_horizontal_for_skew_structure(ball, skew):
    J, _, structure = skew
    projection = HeightProjection(ball, 0.5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=4)
        x *= rng.uniform(0.6, 0.95) / np.linalg.norm(x)
        v = rng.normal(size=4)
        vh, vn, _, fn, fu = (a[0] for a in _split_arrays(
            projection, structure, x[None], v[None]))
        n = x / np.linalg.norm(x)
        jtn = J.T @ n
        scale = np.linalg.norm(v)
        assert abs(vh @ n) < 1e-12 * scale
        assert abs(vh @ jtn) < 1e-12 * scale * np.linalg.norm(jtn)
        assert np.linalg.norm(vn + vh - v) < 1e-12 * scale
        # J v_H has no part along the frame (n, u) of the split
        jh = J @ vh
        assert np.hypot(jh @ fn, jh @ fu) < 1e-12 * scale
