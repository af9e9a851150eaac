import itertools

import numpy as np
import pytest

from couplingflow import coupling as cp
from couplingflow import decomposer as dc
from couplingflow import matcore as mc
from couplingflow.errors import (
    EigGapTooSmallError,
    NegativeDeterminantError,
    SingularMatrixError,
)
from couplingflow.metrics import relative_frobenius


def random_positive_det(rng, n, max_cond=None):
    while True:
        t = rng.standard_normal((n, n))
        sign, _ = mc.slogdet(t)
        if sign == 0:
            continue
        if sign < 0:
            t[0] = -t[0]
        if max_cond is not None:
            sv = np.linalg.svd(t, compute_uv=False)
            if sv[0] / sv[-1] > max_cond:
                continue
        return t


def random_triangular(rng, n, lower=True, min_diag=0.3):
    diag = rng.standard_normal(n)
    diag = np.where(np.abs(diag) < min_diag, np.sign(diag) * (min_diag + np.abs(diag)), diag)
    if np.prod(np.sign(diag)) < 0:
        diag[0] = -diag[0]
    off = rng.standard_normal((n, n))
    tri = (np.tril(off, -1) if lower else np.triu(off, 1)) + np.diag(diag)
    return tri


# ---------------------------------------------------------------------------
# signed swaps


def test_signed_swap_single_pair():
    seq = dc.signed_swap_layers(1, [(0, 0)])
    assert len(seq) == 3
    m = cp.as_matrix(seq)
    assert np.array_equal(m, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    out = cp.apply(seq, np.array([2.0, 5.0]))
    assert np.array_equal(out, np.array([5.0, -2.0]))


def test_signed_swap_empty_pairs():
    seq = dc.signed_swap_layers(3, [])
    assert len(seq) == 3
    assert np.array_equal(cp.as_matrix(seq), np.eye(6))


def test_signed_swap_disjoint_pairs_basis_vectors():
    seq = dc.signed_swap_layers(3, [(0, 1), (2, 2)])
    m = cp.as_matrix(seq)
    for k in range(6):
        e = np.zeros(6)
        e[k] = 1.0
        out = m @ e
        if k == 0:
            assert np.array_equal(out, -np.eye(6)[4])
        elif k == 4:
            assert np.array_equal(out, np.eye(6)[0])
        elif k == 2:
            assert np.array_equal(out, -np.eye(6)[5])
        elif k == 5:
            assert np.array_equal(out, np.eye(6)[2])
        else:
            assert np.array_equal(out, e)


def test_signed_swap_rejects_overlap():
    with pytest.raises(ValueError):
        dc.signed_swap_layers(2, [(0, 0), (0, 1)])


# ---------------------------------------------------------------------------
# order-2 factorization


def test_order2_identity():
    s1, s2 = dc.order2_factor(np.arange(5))
    assert np.array_equal(s1, np.arange(5))
    assert np.array_equal(s2, np.arange(5))


def test_order2_three_cycle():
    # cycle 0 -> 1 -> 2 -> 0 (1-indexed: (1 2 3))
    pi = np.array([1, 2, 0])
    s1, s2 = dc.order2_factor(pi)
    assert np.array_equal(s1, np.array([1, 0, 2]))
    assert np.array_equal(s2, np.array([2, 1, 0]))
    assert np.array_equal(mc.compose_permutations(s2, s1), pi)


def test_order2_exhaustive_small():
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            pi = np.array(perm)
            s1, s2 = dc.order2_factor(pi)
            assert np.array_equal(mc.compose_permutations(s1, s1), np.arange(n))
            assert np.array_equal(mc.compose_permutations(s2, s2), np.arange(n))
            assert np.array_equal(mc.compose_permutations(s2, s1), pi)


def test_order2_random_large():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pi = rng.permutation(200)
        s1, s2 = dc.order2_factor(pi)
        assert np.array_equal(mc.compose_permutations(s1, s1), np.arange(200))
        assert np.array_equal(mc.compose_permutations(s2, s2), np.arange(200))
        assert np.array_equal(mc.compose_permutations(s2, s1), pi)


# ---------------------------------------------------------------------------
# permutation simulation


def test_permutation_layers_identity():
    seq = dc.permutation_layers(np.arange(8))
    m = cp.as_matrix(seq)
    assert np.array_equal(np.abs(m), np.eye(8))
    sign, _ = mc.slogdet(m)
    assert sign > 0


def test_permutation_layers_single_cross_transposition():
    pi = np.array([2, 1, 0, 3])  # swap coordinate 0 (first half) with 2 (second half)
    seq = dc.permutation_layers(pi)
    assert len(seq) == 3
    m = cp.as_matrix(seq)
    assert np.array_equal(np.abs(m), mc.permutation_to_matrix(pi))


def test_permutation_layers_random_entrywise_match():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = 2 * int(rng.integers(1, 9))
        pi = rng.permutation(n)
        seq = dc.permutation_layers(pi)
        assert len(seq) <= 21
        m = cp.as_matrix(seq)
        assert np.max(np.abs(np.abs(m) - mc.permutation_to_matrix(pi))) <= 1e-12
        sign, _ = mc.slogdet(m)
        assert sign > 0


def test_permutation_layers_all_within_half_swaps():
    # worst case for storage: maximal involutions inside both halves
    pi = np.array([1, 0, 3, 2, 5, 4, 7, 6])
    seq = dc.permutation_layers(pi)
    assert len(seq) <= 21
    assert np.array_equal(np.abs(cp.as_matrix(seq)), mc.permutation_to_matrix(pi))


# ---------------------------------------------------------------------------
# block-diagonal construction


def test_block_diag_identity_rejected():
    with pytest.raises(EigGapTooSmallError):
        dc.block_diag_layers(np.eye(3), np.eye(3))


def test_block_diag_scalar_case():
    seq = dc.block_diag_layers(np.array([[2.0]]), np.array([[0.5]]))
    assert len(seq) == 4
    assert np.allclose(cp.as_matrix(seq), np.diag([2.0, 0.5]), atol=1e-12)


def test_block_diag_random_triangular():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 17))
        diag = rng.permutation(0.5 + 0.12 * np.arange(d)) * rng.choice([-1.0, 1.0], d)
        m = 0.3 * np.tril(rng.standard_normal((d, d)), -1) + np.diag(diag)
        s = 0.3 * np.tril(rng.standard_normal((d, d)), -1) + np.diag(rng.permutation(1.0 / diag))
        seq = dc.block_diag_layers(m, s, min_gap=1e-3)
        target = np.zeros((2 * d, 2 * d))
        target[:d, :d] = m
        target[d:, d:] = s
        assert relative_frobenius(cp.as_matrix(seq), target) <= 1e-8
        # determinant multiplies through the blocks
        assert abs(mc.det(cp.as_matrix(seq)) - mc.det(m) * mc.det(s)) <= \
            1e-8 * abs(mc.det(m) * mc.det(s))


def test_block_diag_eigenvalue_mismatch_rejected():
    with pytest.raises(ValueError):
        dc.block_diag_layers(np.diag([2.0, 3.0]), np.diag([0.5, 0.25]))


def test_block_diag_general_dense_m():
    # non-triangular m with known real spectrum exercises the null-vector path
    rng = np.random.default_rng(3)
    lam = np.array([0.5, 1.0, 2.0, -1.5])
    basis = rng.standard_normal((4, 4)) + 3 * np.eye(4)
    m = basis @ np.diag(lam) @ np.linalg.inv(basis)
    s = np.tril(0.2 * rng.standard_normal((4, 4)), -1) + np.diag(1.0 / lam)
    seq = dc.block_diag_layers(m, s, min_gap=1e-3)
    target = np.zeros((8, 8))
    target[:4, :4] = m
    target[4:, 4:] = s
    assert relative_frobenius(cp.as_matrix(seq), target) <= 1e-8


# ---------------------------------------------------------------------------
# shears and scalings


def test_scaling_layers():
    seq = dc.shear_and_scale_layers(3, 0, 0, 2.0)
    assert len(seq) == 1
    expect = np.eye(6)
    expect[0, 0] = 2.0
    assert np.array_equal(cp.as_matrix(seq), expect)
    seq = dc.shear_and_scale_layers(3, 4, 4, 0.5)
    expect = np.eye(6)
    expect[4, 4] = 0.5
    assert np.array_equal(cp.as_matrix(seq), expect)


def test_scaling_rejects_nonpositive():
    with pytest.raises(ValueError):
        dc.shear_and_scale_layers(2, 1, 1, 0.0)
    with pytest.raises(ValueError):
        dc.shear_and_scale_layers(2, 1, 1, -2.0)


def test_cross_partition_shear_single_matrix():
    seq = dc.shear_and_scale_layers(2, 3, 0, 1.7)
    assert len(seq) == 1
    expect = np.eye(4)
    expect[3, 0] = 1.7
    assert np.array_equal(cp.as_matrix(seq), expect)


def test_within_half_shear_exact():
    for (i, j) in [(0, 1), (1, 0), (2, 3), (3, 2)]:
        seq = dc.shear_and_scale_layers(2, i, j, -0.8)
        expect = np.eye(4)
        expect[i, j] = -0.8
        assert np.allclose(cp.as_matrix(seq), expect, atol=1e-14)
        assert len(seq) <= 4


def test_zero_shear_is_identity():
    seq = dc.shear_and_scale_layers(2, 0, 1, 0.0)
    assert np.array_equal(cp.as_matrix(seq), np.eye(4))


# ---------------------------------------------------------------------------
# triangular factors


def test_triangular_identity():
    res = dc.triangular_layers(np.eye(8))
    assert res.matrix_count <= 13
    assert res.residual <= 1e-12


def test_triangular_sign_flip_balancing():
    # equal negatives per half: paired flips turn the diagonal all-positive
    res = dc.triangular_layers(np.diag([-1.0, 2.0, -3.0, 4.0]))
    stages = dict(res.stage_log)
    assert stages["signflip"] == 6
    assert res.residual <= 1e-10
    # unbalanced negatives get equalized through flips against positives
    res = dc.triangular_layers(np.diag([-1.0, -2.0, 3.0, 4.0]))
    stages = dict(res.stage_log)
    assert stages["signflip"] == 6
    assert res.residual <= 1e-10
    # no negatives at all: stage is empty
    res = dc.triangular_layers(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert dict(res.stage_log)["signflip"] == 0


def test_triangular_random_lower():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        tri = random_triangular(rng, 2 * d, lower=True)
        res = dc.triangular_layers(tri, side="lower")
        assert res.matrix_count <= 13
        assert res.residual <= 1e-8
        stages = dict(res.stage_log)
        assert stages["eliminate"] <= 1 and stages["signflip"] in (0, 6)
        assert stages["rescale"] in (0, 2) and stages["blockdiag"] == 4


def test_triangular_random_upper():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        tri = random_triangular(rng, 2 * d, lower=False)
        res = dc.triangular_layers(tri, side="upper")
        assert res.matrix_count <= 13
        assert res.residual <= 1e-8


def test_triangular_rejects_bad_inputs():
    with pytest.raises(SingularMatrixError):
        dc.triangular_layers(np.diag([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(NegativeDeterminantError):
        dc.triangular_layers(np.diag([-1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        dc.triangular_layers(np.ones((4, 4)))


# ---------------------------------------------------------------------------
# full decomposition


def test_decompose_identity():
    res = dc.decompose(np.eye(8))
    assert res.matrix_count <= 47
    assert res.residual <= 1e-12


def test_decompose_rotation_exact_signed_swap():
    res = dc.decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert res.matrix_count == 3
    assert res.residual <= 1e-12
    assert res.warnings  # d < 4 warning recorded


def test_decompose_random():
    rng = np.random.default_rng(6)
    for _ in range(60):
        t = random_positive_det(rng, 8)
        res = dc.decompose(t)
        assert res.matrix_count <= 47
        assert res.residual <= 1e-6
        stages = dict(res.stage_log)
        assert stages["permutation"] <= 21
        assert stages["upper"] <= 13 and stages["lower"] <= 13
        # every emitted diagonal block is strictly positive
        for layer in res.layers.layers:
            assert np.all(layer.diag > 0)


def test_decompose_rejects_negative_det():
    t = np.diag([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NegativeDeterminantError):
        dc.decompose(t)


def test_decompose_rejects_singular():
    t = np.zeros((4, 4))
    with pytest.raises(SingularMatrixError):
        dc.decompose(t)


def test_decompose_warns_on_lost_accuracy():
    rng = np.random.default_rng(128)
    res = dc.decompose(random_positive_det(rng, 128, max_cond=1e4))
    assert res.residual > dc.RESIDUAL_WARN_RTOL
    assert any("residual" in w for w in res.warnings)


def test_decompose_no_warning_when_accurate():
    rng = np.random.default_rng(16)
    res = dc.decompose(random_positive_det(rng, 16, max_cond=1e4))
    assert res.residual <= dc.RESIDUAL_WARN_RTOL
    assert res.warnings == []


def test_verify_exact_and_closed_form():
    rng = np.random.default_rng(7)
    t = random_positive_det(rng, 4)
    res = dc.decompose(t)
    assert dc.verify(res, t) <= 1e-10
    # identity layers against 2I: residual is exactly 1/2
    empty = dc.DecompositionResult(layers=cp.sequence([], ambient_dim=4), matrix_count=0,
                                   residual=0.0, stage_log=[])
    assert abs(dc.verify(empty, 2 * np.eye(4)) - 0.5) <= 1e-14


def test_verify_perturbation_sensitivity():
    rng = np.random.default_rng(8)
    t = random_positive_det(rng, 4)
    res = dc.decompose(t)
    base = dc.verify(res, t)
    layer = res.layers.layers[0]
    bumped_dense = layer.dense.copy()
    bumped_dense[0, 0] += 1e-6
    bumped = cp.LinearCouplingLayer(side=layer.side, dense=bumped_dense, diag=layer.diag)
    seq = cp.sequence([bumped] + list(res.layers.layers[1:]), ambient_dim=4)
    res2 = dc.DecompositionResult(layers=seq, matrix_count=res.matrix_count,
                                  residual=0.0, stage_log=[])
    moved = dc.verify(res2, t)
    assert 1e-9 <= abs(moved - base) <= 1e-3


def test_verify_dimension_mismatch():
    res = dc.decompose(np.eye(4))
    with pytest.raises(ValueError):
        dc.verify(res, np.eye(6))


def test_decompose_layer_pair_count():
    rng = np.random.default_rng(9)
    t = random_positive_det(rng, 8)
    res = dc.decompose(t)
    assert res.layer_pair_count == -(-res.matrix_count // 2)
    assert res.layer_pair_count <= 24
