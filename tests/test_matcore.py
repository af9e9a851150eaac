import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplingflow import matcore as mc
from couplingflow.errors import EigGapTooSmallError, SingularMatrixError


# ---------------------------------------------------------------------------
# LUP


def test_lup_identity():
    f = mc.lup(np.eye(4))
    assert np.array_equal(f.lower, np.eye(4))
    assert np.array_equal(f.upper, np.eye(4))
    assert np.array_equal(f.perm, np.arange(4))
    assert f.parity == 1


def test_lup_forced_pivot_swap():
    f = mc.lup(np.array([[0.0, 1], [1, 0]]))
    assert np.array_equal(f.lower, np.eye(2))
    assert np.array_equal(f.upper, np.eye(2))
    assert list(f.perm) == [1, 0]
    assert f.parity == -1


def test_lup_roundtrip_random():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    if mc.det(a) < 0:
        a[0] = -a[0]
    f = mc.lup(a)
    rebuilt = f.lower @ f.upper
    assert np.linalg.norm(rebuilt - a[f.perm]) <= 1e-10 * np.linalg.norm(a)


def test_lup_roundtrip_many_sizes():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        a = rng.standard_normal((n, n))
        try:
            f = mc.lup(a)
        except SingularMatrixError:
            continue
        resid = np.linalg.norm(f.lower @ f.upper - a[f.perm]) / np.linalg.norm(a)
        assert resid <= 1e-10


def test_lup_singular():
    a = np.ones((3, 3))
    with pytest.raises(SingularMatrixError):
        mc.lup(a)


def test_singular_tolerance_contract():
    # a pivot at or below SINGULAR_RTOL * max|a| is singular; one above it is not
    kernels = [mc.lup, lambda a: mc.solve(a, np.ones(2)), mc.inv, mc.triangular_inverse]
    for kernel in kernels:
        with pytest.raises(SingularMatrixError):
            kernel(np.diag([1.0, 1e-13]))
        kernel(np.diag([1.0, 1e-11]))


def test_exactly_singular_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (mc.lup, lambda a: mc.solve(a, np.ones(3)), mc.inv):
            with pytest.raises(SingularMatrixError):
                kernel(np.ones((3, 3)))
        # np.ones is unit lower triangular, so zero a diagonal entry instead
        with pytest.raises(SingularMatrixError):
            mc.triangular_inverse(np.tril(np.ones((3, 3))) - np.diag([0.0, 1.0, 0.0]))


def test_det_parity_matches_sign():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.standard_normal((6, 6))
        assert np.sign(mc.det(a)) == np.sign(np.linalg.det(a))
        assert abs(mc.det(a) - np.linalg.det(a)) <= 1e-8 * abs(np.linalg.det(a))


def test_solve_roundtrip():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((7, 7))
    b = rng.standard_normal(7)
    x = mc.solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-9)
    bm = rng.standard_normal((7, 3))
    assert np.allclose(a @ mc.solve(a, bm), bm, atol=1e-9)
    assert np.allclose(a @ mc.inv(a), np.eye(7), atol=1e-9)


def test_empty_matrix_kernels():
    empty = np.eye(0)
    assert mc.solve(empty, np.zeros(0)).shape == (0,)
    assert mc.solve(empty, np.zeros((0, 3))).shape == (0, 3)
    assert mc.inv(empty).shape == (0, 0)
    assert mc.triangular_inverse(empty).shape == (0, 0)
    assert mc.det(empty) == 1.0


def test_triangular_inverse():
    rng = np.random.default_rng(7)
    t = np.tril(rng.standard_normal((6, 6))) + 3 * np.eye(6)
    assert np.allclose(mc.triangular_inverse(t) @ t, np.eye(6), atol=1e-12)
    u = t.T
    assert np.allclose(mc.triangular_inverse(u) @ u, np.eye(6), atol=1e-12)


def test_triangular_kernels_refuse_full_matrix():
    # reading one triangle of [[2, 5], [1, 3]] would solve a different system
    full = np.array([[2.0, 5.0], [1.0, 3.0]])
    for kernel in (lambda t: mc.triangular_solve(t, np.ones(2)), mc.triangular_inverse,
                   mc.triangular_eigvecs):
        with pytest.raises(ValueError, match="neither lower nor upper"):
            kernel(full)


# ---------------------------------------------------------------------------
# permutations


def test_permutation_utilities():
    p = np.array([2, 0, 1, 3])
    m = mc.permutation_to_matrix(p)
    x = np.array([10.0, 20, 30, 40])
    assert np.array_equal(m @ x, np.array([20.0, 30, 10, 40]))
    assert np.array_equal(mc.compose_permutations(p, mc.invert_permutation(p)), np.arange(4))


def test_permutation_cycles():
    cycles = mc.permutation_cycles(np.array([1, 2, 0, 4, 3, 5]))
    assert sorted(len(c) for c in cycles) == [2, 3]


# ---------------------------------------------------------------------------
# eigenvalues


def test_eig_cycle_roots_of_unity():
    p = np.array([1, 2, 3, 0])
    m = mc.permutation_to_matrix(p)
    vals = mc.eig(m)
    expected = np.sort_complex(np.array([1, 1j, -1, -1j]))
    got = np.sort_complex(vals)
    assert np.max(np.abs(got - expected)) <= 1e-8


def test_eig_lower_triangular_is_diagonal():
    rng = np.random.default_rng(8)
    a = np.tril(rng.standard_normal((6, 6)))
    vals = mc.eig(a)
    assert np.max(np.abs(np.sort(vals.real) - np.sort(np.diag(a)))) <= 1e-8
    assert np.max(np.abs(vals.imag)) <= 1e-10


def test_eig_construct_recover():
    rng = np.random.default_rng(9)
    lam = np.array([-2.0, -0.5, 0.3, 1.1, 2.4, 4.0])
    s = rng.standard_normal((6, 6)) + 2 * np.eye(6)
    a = s @ np.diag(lam) @ np.linalg.inv(s)
    vals = mc.eig(a)
    assert np.max(np.abs(np.sort(vals.real) - lam)) <= 1e-8 * np.max(np.abs(lam))


def test_eig_trace_consistency_and_conjugate_pairs():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n))
        vals = mc.eig(a)
        assert abs(np.sum(vals).imag) <= 1e-9 * max(1.0, mc.spectral_radius(vals))
        assert abs(np.sum(vals).real - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
        # conjugate closure: the multiset equals its own conjugate, exactly
        assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))


def test_eig_and_svd_have_no_size_cap():
    # LAPACK's geev and gesdd take any size
    assert np.array_equal(mc.eig(np.eye(300)), np.ones(300, dtype=complex))
    sv = mc.svd_small(np.diag(np.arange(1.0, 301.0)))
    assert np.allclose(sv, np.arange(300.0, 0.0, -1.0), rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# triangular eigenvectors


def assert_eigvecs(a, v):
    """Unit-norm columns with a @ v = v @ diag(sorted diagonal) to 1e-12."""
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0.0, atol=1e-14)
    resid = np.linalg.norm(a @ v - v @ np.diag(np.sort(np.diag(a))))
    assert resid <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(v)


def test_triangular_eigvecs_diagonal():
    v = mc.triangular_eigvecs(np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(v, np.eye(3))


def test_triangular_eigvecs_2x2():
    a = np.array([[2.0, 0.0], [3.0, 5.0]])
    v = mc.triangular_eigvecs(a)
    assert_eigvecs(a, v)
    # (a - 2I) v = 0 gives v = (1, -1), (a - 5I) v = 0 gives v = (0, 1), up to sign
    assert abs(v[:, 0] @ [1.0, -1.0]) == pytest.approx(2**0.5, rel=1e-15)
    assert abs(v[:, 1] @ [0.0, 1.0]) == pytest.approx(1.0, rel=1e-15)


def test_triangular_eigvecs_random():
    rng = np.random.default_rng(11)
    d = rng.permutation(np.arange(8) * 0.1 + 0.5)
    a = np.tril(rng.standard_normal((8, 8)), -1) + np.diag(d)
    v = mc.triangular_eigvecs(a, min_gap=0.05)
    assert_eigvecs(a, v)


def test_triangular_eigvecs_gap_error():
    with pytest.raises(EigGapTooSmallError):
        mc.triangular_eigvecs(np.diag([1.0, 1.0 + 1e-12]), min_gap=1e-8)


def test_triangular_eigvecs_upper():
    rng = np.random.default_rng(12)
    a = np.triu(rng.standard_normal((6, 6)), 1) + np.diag([4, 2, 6, 1, 5, 3.0])
    v = mc.triangular_eigvecs(a)
    assert_eigvecs(a, v)


# ---------------------------------------------------------------------------
# singular values


def test_svd_identity():
    sv = mc.svd_small(np.eye(5))
    assert np.allclose(sv, 1.0)
    assert mc.condition_number(np.eye(5)) == 1.0


def test_svd_diagonal():
    sv = mc.svd_small(np.diag([3.0, 0.5]))
    assert np.allclose(sv, [3.0, 0.5])
    assert abs(mc.condition_number(np.diag([3.0, 0.5])) - 6.0) <= 1e-12
    # equal column norms: the singular values still separate
    sym = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(mc.svd_small(sym), [3.0, 1.0], rtol=1e-12)
    assert abs(mc.condition_number(sym) - 3.0) <= 1e-12


def test_svd_zero_matrix():
    sv = mc.svd_small(np.zeros((3, 3)))
    assert np.array_equal(sv, np.zeros(3))
    assert mc.condition_number(np.zeros((3, 3))) == np.inf
    # rank deficient but nonzero: sigma_min is zero up to rounding
    ones = np.ones((2, 2))
    sv = mc.svd_small(ones)
    assert abs(sv[0] - 2.0) <= 1e-12 and abs(sv[1]) <= 1e-12
    assert mc.condition_number(ones) >= 1e15


def test_svd_against_gram_eigenvalues():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    sv = mc.svd_small(a)
    gram_eigs = np.sort(mc.eig(a.T @ a).real)[::-1]
    assert np.max(np.abs(sv - np.sqrt(np.maximum(gram_eigs, 0.0)))) <= 1e-8 * sv[0]


def test_svd_product_matches_det():
    rng = np.random.default_rng(14)
    for n in (2, 4, 8):
        a = rng.standard_normal((n, n))
        sv = mc.svd_small(a)
        assert abs(np.prod(sv) - abs(mc.det(a))) <= 1e-8 * max(1.0, abs(mc.det(a)))


def test_svd_descending_nonnegative():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 3))
    sv = mc.svd_small(a)
    assert np.all(sv >= 0)
    assert np.all(np.diff(sv) <= 0)


def test_svd_stack_matches_per_matrix():
    rng = np.random.default_rng(16)
    stack = rng.standard_normal((100, 4, 4))
    sv = mc.svd_small(stack)
    cond = mc.condition_number(stack)
    assert sv.shape == (100, 4) and cond.shape == (100,)
    for k, a in enumerate(stack):
        assert np.array_equal(sv[k], mc.svd_small(a))
        assert cond[k] == mc.condition_number(a)
    assert isinstance(mc.condition_number(stack[0]), float)


def test_condition_number_stack_zero_member_is_inf():
    stack = np.stack([np.eye(3), np.zeros((3, 3)), np.diag([4.0, 2.0, 1.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cond = mc.condition_number(stack)
    assert cond[0] == 1.0 and cond[1] == np.inf and cond[2] == 4.0


# ---------------------------------------------------------------------------
# MAT1 format


def test_mat1_roundtrip(tmp_path):
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 5))
    path = tmp_path / "a.mat"
    mc.write_mat1(path, a)
    b = mc.read_mat1(path)
    assert np.array_equal(a, b)  # repr round-trips float64 exactly
    header = path.read_text().splitlines()[0]
    assert header == "MAT1 3 5"


def test_mat1_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("MAT2 1 1\n0.0\n")
    with pytest.raises(ValueError):
        mc.read_mat1(path)


@pytest.mark.parametrize("text, match", [
    ("MAT1 1 2\n1.0 nan\n", "non-finite"),
    ("MAT1 2 1\n-inf\n0.0\n", "non-finite"),
    ("MAT1 0 0\n", "not positive"),
    ("MAT1 0 3\n", "not positive"),
    ("MAT1 -1 -1\n1.0\n", "not positive"),
])
def test_mat1_rejects_non_finite_and_empty(tmp_path, text, match):
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        mc.read_mat1(path)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31 - 1))
def test_lup_property_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + np.eye(n)
    try:
        f = mc.lup(a)
    except SingularMatrixError:
        return
    assert np.linalg.norm(f.lower @ f.upper - a[f.perm]) <= 1e-10 * max(1.0, np.linalg.norm(a))
    assert np.allclose(np.diag(f.lower), 1.0)
