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
        sign, _ = np.linalg.slogdet(t)
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


def assert_sides_alternate(seq):
    sides = [layer.side for layer in seq.layers]
    assert all(a != b for a, b in zip(sides, sides[1:])), sides


# ---------------------------------------------------------------------------
# merging adjacent same-side layers


def test_extend_merges_same_side_layers_into_their_product():
    rng = np.random.default_rng(30)
    for side in (cp.LOWER, cp.UPPER):
        first, second = (cp.LinearCouplingLayer(side=side, dense=rng.standard_normal((3, 3)),
                                                diag=np.exp(rng.standard_normal(3)))
                         for _ in range(2))
        layers = [first]
        assert dc._extend(layers, [second]) == 0
        want = cp.as_matrix(cp.sequence([second])) @ cp.as_matrix(cp.sequence([first]))
        assert np.allclose(cp.as_matrix(cp.sequence(layers)), want, rtol=0.0, atol=1e-13)
        other = cp.UPPER if side == cp.LOWER else cp.LOWER
        assert dc._extend(layers, [cp.identity_layer(3, other)]) == 1


def test_fused_decompositions_alternate_sides_and_log_every_layer():
    rng = np.random.default_rng(31)
    for n in range(2, 34, 2):
        for _ in range(4):
            res = dc.decompose(random_positive_det(rng, n))
            assert_sides_alternate(res.layers)
            assert sum(count for _, count in res.stage_log) == len(res.layers)
            assert len(res.layers) <= dc.TOTAL_BUDGET


def test_fused_permutations_alternate_sides_and_are_signed_permutations():
    rng = np.random.default_rng(32)
    for n in range(2, 34, 2):
        for _ in range(6):
            p = rng.permutation(n)
            seq = dc.permutation_layers(p)
            assert_sides_alternate(seq)
            assert len(seq) <= dc.PERMUTATION_BUDGET
            m = cp.as_matrix(seq)
            signs = m[p, np.arange(n)]
            assert np.all(np.abs(signs) == 1.0)
            rebuilt = np.zeros((n, n))
            rebuilt[p, np.arange(n)] = signs
            assert np.array_equal(m, rebuilt)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_fused_triangular_factors_alternate_sides_and_log_every_layer(side):
    rng = np.random.default_rng(33)
    for _ in range(40):
        tri = random_triangular(rng, 2 * int(rng.integers(1, 17)), lower=side == "lower")
        seq, stage_log = dc.triangular_layers(tri, side=side)
        assert_sides_alternate(seq)
        assert sum(count for _, count in stage_log) == len(seq)
        assert len(seq) <= (11 if side == "lower" else 10)


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
    sign, _ = np.linalg.slogdet(m)
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
        assert len(seq) <= 15
        m = cp.as_matrix(seq)
        assert np.max(np.abs(np.abs(m) - mc.permutation_to_matrix(pi))) <= 1e-12
        sign, _ = np.linalg.slogdet(m)
        assert sign > 0


def test_permutation_layers_all_within_half_swaps():
    # worst case for storage: maximal involutions inside both halves
    pi = np.array([1, 0, 3, 2, 5, 4, 7, 6])
    seq = dc.permutation_layers(pi)
    assert len(seq) <= 15
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


# B diag(2, 3) B^{-1} and B diag(1/2, 1/3) B^{-1} with B = [[1, 1], [1, 2]]:
# dense blocks whose spectra would otherwise satisfy the construction
_DENSE_M = np.array([[1.0, 1.0], [-2.0, 4.0]])
_DENSE_S = np.array([[2.0, -0.5], [1.0, 0.5]]) / 3.0


@pytest.mark.parametrize("m, s, error", [
    pytest.param(_DENSE_M, np.diag([0.5, 1.0 / 3.0]), ValueError, id="dense-m"),
    pytest.param(np.diag([2.0, 3.0]), _DENSE_S, ValueError, id="dense-s"),
    pytest.param(np.eye(3), np.eye(3), EigGapTooSmallError, id="identity"),
    pytest.param(np.diag([0.0, 1.0, 2.0]), np.diag([1.0, 1.0, 0.5]), SingularMatrixError,
                 id="zero-diagonal"),
    pytest.param(np.diag([2.0, 4.0]), np.diag([0.5, 0.3]), ValueError, id="no-inverse-spectrum"),
    pytest.param(np.zeros((0, 0)), np.zeros((0, 0)), SingularMatrixError, id="empty"),
])
def test_block_diag_refusals(m, s, error):
    with pytest.raises(error):
        dc.block_diag_layers(m, s)


def test_block_diag_names_its_stage_on_ill_conditioned_factor():
    # large off-diagonal entries against the diagonal leave the stage's
    # eigenvector matrices singular to tolerance; the error once read only
    # "pivot 22 below tolerance", as if the target itself were singular
    rng = np.random.default_rng(1)
    n = rng.choice([40, 48, 56, 64])
    s = rng.uniform(1.4, 2.0)
    strict = np.tril(rng.normal(0.0, s, (n, n)), -1)
    diag = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
    if np.prod(np.sign(diag)) < 0:
        diag[0] = -diag[0]
    with pytest.raises(SingularMatrixError, match="block-diagonal stage: eigenvector matrix"):
        dc.triangular_layers(strict + np.diag(diag), "lower")


# ---------------------------------------------------------------------------
# triangular factors


def test_triangular_identity():
    seq, _ = dc.triangular_layers(np.eye(8))
    assert len(seq) <= 11
    assert relative_frobenius(cp.as_matrix(seq), np.eye(8)) <= 1e-12


def test_triangular_sign_flip_balancing():
    # equal negatives per half: paired flips turn the diagonal all-positive;
    # the doubled signed-swap round is five matrices, and its first merges
    # into the rescale stage's lower layer
    tri = np.diag([-1.0, 2.0, -3.0, 4.0])
    seq, stage_log = dc.triangular_layers(tri)
    assert dict(stage_log)["signflip"] == 4
    assert relative_frobenius(cp.as_matrix(seq), tri) <= 1e-10
    # unbalanced negatives get equalized through flips against positives
    tri = np.diag([-1.0, -2.0, 3.0, 4.0])
    seq, stage_log = dc.triangular_layers(tri)
    assert dict(stage_log)["signflip"] == 4
    assert relative_frobenius(cp.as_matrix(seq), tri) <= 1e-10
    # no negatives at all: stage is empty
    _, stage_log = dc.triangular_layers(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert dict(stage_log)["signflip"] == 0


def test_triangular_random_lower():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        tri = random_triangular(rng, 2 * d, lower=True)
        seq, stage_log = dc.triangular_layers(tri, side="lower")
        assert len(seq) <= 11
        assert relative_frobenius(cp.as_matrix(seq), tri) <= 1e-8
        stages = dict(stage_log)
        assert sum(stages.values()) == len(seq)
        assert stages["eliminate"] <= 1 and stages["signflip"] in (0, 4)
        assert stages["rescale"] == 2 and stages["blockdiag"] == 4


def test_triangular_random_upper():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        tri = random_triangular(rng, 2 * d, lower=False)
        seq, _ = dc.triangular_layers(tri, side="upper")
        assert len(seq) <= 10
        assert relative_frobenius(cp.as_matrix(seq), tri) <= 1e-8


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
    assert res.matrix_count <= 35
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
        assert res.matrix_count <= 35
        assert res.residual <= 1e-6
        stages = dict(res.stage_log)
        assert stages["permutation"] <= 15
        assert stages["upper"] <= 10 and stages["lower"] <= 11
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


def test_decompose_forms_two_layer_products(monkeypatch):
    # one product for the permutation stage, one for the final residual
    calls = []

    def counting_as_matrix(seq):
        calls.append(len(seq))
        return cp.as_matrix(seq)

    monkeypatch.setattr(dc, "as_matrix", counting_as_matrix)
    rng = np.random.default_rng(17)
    res = dc.decompose(random_positive_det(rng, 16, max_cond=1e4))
    assert len(calls) <= 2
    assert calls[-1] == res.matrix_count == len(res.layers)
    assert res.residual <= dc.RESIDUAL_WARN_RTOL


def test_decompose_calls_no_eigen_solver(monkeypatch):
    # every block the construction meets is triangular: its spectrum is its diagonal
    calls, eig = [], mc.eig

    def counting_eig(a):
        calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(dc.matcore, "eig", counting_eig)
    rng = np.random.default_rng(19)
    res = dc.decompose(random_positive_det(rng, 16, max_cond=1e4))
    assert res.residual <= dc.RESIDUAL_WARN_RTOL
    assert calls == []


def test_verify_exact_and_closed_form():
    # the residual a decomposition is checked by: ||as_matrix(layers) - t||_F / ||t||_F
    rng = np.random.default_rng(7)
    t = random_positive_det(rng, 4)
    res = dc.decompose(t)
    assert relative_frobenius(cp.as_matrix(res.layers), t) <= 1e-10
    # identity layers against 2I: residual is exactly 1/2
    empty = cp.sequence([], ambient_dim=4)
    assert abs(relative_frobenius(cp.as_matrix(empty), 2 * np.eye(4)) - 0.5) <= 1e-14


def test_verify_perturbation_sensitivity():
    rng = np.random.default_rng(8)
    t = random_positive_det(rng, 4)
    res = dc.decompose(t)
    base = relative_frobenius(cp.as_matrix(res.layers), t)
    layer = res.layers.layers[0]
    bumped_dense = layer.dense.copy()
    bumped_dense[0, 0] += 1e-6
    bumped = cp.LinearCouplingLayer(side=layer.side, dense=bumped_dense, diag=layer.diag)
    seq = cp.sequence([bumped] + list(res.layers.layers[1:]), ambient_dim=4)
    moved = relative_frobenius(cp.as_matrix(seq), t)
    assert 1e-9 <= abs(moved - base) <= 1e-3


def test_verify_dimension_mismatch():
    res = dc.decompose(np.eye(4))
    with pytest.raises(ValueError):
        relative_frobenius(cp.as_matrix(res.layers), np.eye(6))


def test_decompose_layer_pair_count():
    rng = np.random.default_rng(9)
    t = random_positive_det(rng, 8)
    res = dc.decompose(t)
    assert res.layer_pair_count == -(-res.matrix_count // 2)
    assert res.layer_pair_count <= 18
