import numpy as np
import pytest

from couplingflow import certificates as cert
from couplingflow import matcore as mc
from couplingflow.errors import SingularBlockError
from couplingflow.metrics import relative_frobenius


def random_four_product(rng, d, diag_x=False, unit_diag=False):
    """Random lower-upper-lower-upper product with positive diagonal blocks.

    diag_x forces the assembled top-left block to be diagonal; unit_diag
    sets B = F = G = I (any product normalizes to this form times a leading
    diagonal, and it is the regime where T/X is similar to X^{-1}C alone).
    """
    a = rng.standard_normal((d, d))
    e = rng.standard_normal((d, d))
    h = rng.standard_normal((d, d))
    d_blk = np.zeros((d, d)) if diag_x else rng.standard_normal((d, d))
    c = np.exp(0.5 * rng.standard_normal(d))
    if unit_diag:
        b = f = g = np.ones(d)
    else:
        b, f, g = (np.exp(0.5 * rng.standard_normal(d)) for _ in range(3))
    if diag_x:
        e = np.zeros((d, d))  # keeps X = diag(c) diag(g) exactly diagonal
    return cert.four_product(a, b, c, d_blk, e, f, g, h)


def test_schur_complement_block_diagonal():
    x = np.diag([1.0, 2.0])
    w = np.array([[3.0, 1.0], [0.0, 4.0]])
    t = np.zeros((4, 4))
    t[:2, :2] = x
    t[2:, 2:] = w
    assert np.allclose(cert.schur_complement(t, 2), w)


def test_schur_complement_closed_form():
    t = np.block([[np.eye(2), np.eye(2)], [np.eye(2), 2 * np.eye(2)]])
    assert np.allclose(cert.schur_complement(t, 2), np.eye(2))


def test_schur_complement_singular_block():
    t = np.zeros((4, 4))
    t[2:, 2:] = np.eye(2)
    with pytest.raises(SingularBlockError):
        cert.schur_complement(t, 2)


def test_four_product_spectrum_invariant_unit_form():
    # with unit B, F, G diagonals, T/X is similar to X^{-1}C through Z - AX
    rng = np.random.default_rng(0)
    for d in (2, 4, 8):
        for _ in range(60):
            fp = random_four_product(rng, d, unit_diag=True)
            schur = cert.schur_complement(fp.t, d)
            assert cert.spectra_match(mc.eig(schur), mc.eig(fp.x_inv_c), rtol=1e-6)
            rebuilt = fp.witness @ fp.x_inv_c @ mc.inv(fp.witness)
            assert relative_frobenius(rebuilt, schur) <= 1e-7


def test_four_product_general_identity():
    # general diagonals: T/X = Q (X^{-1} C G) Q^{-1} (B F) entrywise
    rng = np.random.default_rng(42)
    for d in (2, 4, 8):
        for _ in range(60):
            fp = random_four_product(rng, d)
            schur = cert.schur_complement(fp.t, d)
            rebuilt = fp.witness @ fp.x_inv_cg @ mc.inv(fp.witness) @ np.diag(fp.bf)
            assert relative_frobenius(rebuilt, schur) <= 1e-7


def test_four_product_bare_similarity_fails_with_general_diagonals():
    # scalar counterexample: only B = 2 nontrivial gives T/X = 2 vs X^{-1}C = 1
    fp = cert.four_product(np.zeros((1, 1)), np.array([2.0]), np.array([1.0]),
                           np.zeros((1, 1)), np.zeros((1, 1)), np.array([1.0]),
                           np.array([1.0]), np.zeros((1, 1)))
    schur = cert.schur_complement(fp.t, 1)
    assert abs(schur[0, 0] - 2.0) < 1e-15
    assert abs(fp.x_inv_c[0, 0] - 1.0) < 1e-15


def test_hard_instance_shape_and_determinant():
    for d in range(3, 9):
        x_diag = np.arange(1.0, d + 1.0)
        t = cert.hard_instance(d, x_diag)
        assert t.shape == (2 * d, 2 * d)
        sign, _ = mc.slogdet(t)
        assert sign > 0
        assert np.trace(t[:d, :d]) > 0
        # bottom block spectrum: the d-th roots of unity
        vals = np.sort_complex(mc.eig(t[d:, d:]))
        roots = np.sort_complex(np.exp(2j * np.pi * np.arange(d) / d))
        assert np.max(np.abs(vals - roots)) <= 1e-8


def test_hard_instance_repeated_diag_accepted():
    t = cert.hard_instance(3, np.array([1.0, 1.0, 1.0]))
    vals = np.sort_complex(mc.eig(t[3:, 3:]))
    roots = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
    assert np.max(np.abs(vals - roots)) <= 1e-8


def test_hard_instance_rejects_small_d():
    with pytest.raises(ValueError):
        cert.hard_instance(2, np.array([1.0, 2.0]))


def test_certify_hard_instances():
    for d in range(4, 17):
        t = cert.hard_instance(d, np.arange(1.0, d + 1.0))
        result = cert.certify_not_a4(t, d)
        assert result.verdict == cert.NOT_IN_A4
        expected_max_imag = float(np.max(np.abs(np.sin(2 * np.pi * np.arange(d) / d))))
        assert abs(result.max_imag - expected_max_imag) <= 1e-8
        # the primitive root's imaginary part appears in the spectrum
        assert np.min(np.abs(np.abs(result.schur_spectrum.imag) - np.sin(2 * np.pi / d))) <= 1e-8


def test_certify_factors_each_block_once(monkeypatch):
    # one factorization of X for all d columns of Y, one of W for its inverse
    lup = mc.lup
    calls = []

    def counting_lup(a):
        calls.append(np.shape(a))
        return lup(a)

    monkeypatch.setattr(mc, "lup", counting_lup)
    d = 12
    result = cert.certify_not_a4(cert.hard_instance(d, np.arange(1.0, d + 1.0)), d)
    assert result.verdict == cert.NOT_IN_A4
    assert len(calls) <= 2


def test_certify_diagonal_both_blocks_inconclusive():
    t = np.zeros((8, 8))
    t[:4, :4] = np.diag([1.0, 2.0, 3.0, 4.0])
    t[4:, 4:] = np.diag([4.0, 3.0, 2.0, 1.0])
    result = cert.certify_not_a4(t, 4)
    assert result.verdict == cert.INCONCLUSIVE


def test_certify_nondiagonal_top_left_inconclusive():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((8, 8))
    result = cert.certify_not_a4(t, 4)
    assert result.verdict == cert.INCONCLUSIVE
    assert "not diagonal" in result.reason_luru


def test_certify_sound_on_constructed_members():
    """No four-matrix product may ever be certified as outside the set."""
    rng = np.random.default_rng(2)
    for d in (2, 4, 8):
        for _ in range(60):
            fp = random_four_product(rng, d, diag_x=bool(rng.integers(0, 2)),
                                     unit_diag=bool(rng.integers(0, 2)))
            assert cert.certify_not_a4(fp.t, d).verdict != cert.NOT_IN_A4
    # reversed-ordering members (upper first) are equally safe
    for d in (2, 4):
        for _ in range(40):
            j = np.zeros((2 * d, 2 * d))
            j[:d, d:] = np.eye(d)
            j[d:, :d] = np.eye(d)
            fp = random_four_product(rng, d, diag_x=bool(rng.integers(0, 2)))
            swapped = j @ fp.t @ j  # an upper-lower-upper-lower product
            assert cert.certify_not_a4(swapped, d).verdict != cert.NOT_IN_A4


def test_certify_diag_x_member_spectrum_matches():
    rng = np.random.default_rng(3)
    fp = random_four_product(rng, 4, diag_x=True, unit_diag=True)
    result = cert.certify_not_a4(fp.t, 4)
    assert result.verdict == cert.INCONCLUSIVE
    assert cert.spectra_match(result.schur_spectrum, mc.eig(fp.x_inv_c), rtol=1e-6)


def test_cycle_matrix():
    w = cert.cycle_permutation_matrix(4)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(w @ x, np.array([4.0, 1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# numerical falsification


def test_falsify_identity_representable():
    from couplingflow import trainer as tr
    config = tr.TrainConfig(lr=1e-3, steps=300, batch_size=64, log_interval=100)
    assert cert.falsify_by_fit(np.eye(8), 2, restarts=1, config=config) <= 1e-6


def test_falsify_random_target_deep_stack():
    from couplingflow import trainer as tr
    from couplingflow.rng import stream
    rng = stream(0, "falsify-test")
    t = rng.standard_normal((8, 8))
    sign, _ = mc.slogdet(t)
    if sign < 0:
        t[0] = -t[0]
    config = tr.TrainConfig(lr=1e-3, steps=10000, batch_size=128, log_interval=1000)
    assert cert.falsify_by_fit(t, 16, restarts=1, config=config) <= 1e-2


def test_falsify_hard_instance_resists_fit():
    # two coupling layer pairs cannot reach the hard instance; the residual
    # is recorded, not asserted against a theory value, but it should stay
    # far from the representable regime
    from couplingflow import trainer as tr
    config = tr.TrainConfig(lr=1e-3, steps=3000, batch_size=128, log_interval=500)
    t = cert.hard_instance(4, np.array([1.0, 2.0, 3.0, 4.0]))
    residual = cert.falsify_by_fit(t, 4, restarts=2, config=config)
    assert residual > 1e-2


def test_falsify_rejects_odd_matrix_count():
    with pytest.raises(ValueError):
        cert.falsify_by_fit(np.eye(4), 3, restarts=1)
