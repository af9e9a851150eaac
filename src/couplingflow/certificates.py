"""Non-membership certificates for four-matrix coupling products.

A matrix expressible as T = [I 0; A B][C D; 0 I][I 0; E F][G H; 0 I] has a
constrained Schur complement: writing Q = Z - A X,

    T/X  =  Q (X^{-1} C G) Q^{-1} (B F).

(The diagonal right factor B F is essential: already for scalars,
T = diag(1, 2) as the product with B = 2 and everything else trivial has
T/X = 2 while X^{-1} C = 1, so the bare similarity claim without BF fails.
The identity above is verified symbolically and numerically in the tests.)

Consequently (T/X) P is similar to the real diagonal X^{-1} C G for the
positive diagonal P = (B F)^{-1} whenever X is diagonal. A Schur complement
supported on a single full-length cycle pattern defeats this for every
positive P: column rescalings preserve the cycle pattern, whose
characteristic polynomial is lambda^d - c, leaving at most two real
eigenvalues for d >= 3. That scale-robust obstruction is what the
certificate checks, and it is exactly what the diagonal-plus-cycle hard
instances exhibit. The reversed ordering is excluded through the
half-swapped matrix: there the swapped Schur complement must satisfy
S (BF)^{-1} similar to W^{-1} C G, a cycle-patterned matrix, which cannot
carry the d real nonzero eigenvalues of a real diagonal S.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from couplingflow import matcore
from couplingflow.errors import SingularBlockError

NOT_IN_A4 = "not_in_a4"
INCONCLUSIVE = "inconclusive"

IMAG_RTOL = 1e-6  # imaginary parts below this fraction of the spectral radius are QR noise
DIAG_RTOL = 1e-8


@dataclass
class SchurCertificate:
    verdict: str
    schur_spectrum: np.ndarray
    reason_luru: str
    max_imag: float
    reason_rlrl: str
    trace_value: float
    similarity_witness: np.ndarray | None = None
    details: dict = field(default_factory=dict)


def split_blocks(t, d: int):
    """The four d x d blocks (x, y, z, w) of a 2d x 2d matrix."""
    t = matcore.as_matrix_array(t)
    if t.shape != (2 * d, 2 * d):
        raise ValueError(f"expected a {2 * d} x {2 * d} matrix, got {t.shape}")
    return t[:d, :d], t[:d, d:], t[d:, :d], t[d:, d:]


def schur_complement(t, d: int) -> np.ndarray:
    """W - Z X^{-1} Y for the block split [X Y; Z W]."""
    x, y, z, w = split_blocks(t, d)
    try:
        x_inv_y = matcore.solve(x, y)
    except matcore.SingularMatrixError as exc:
        raise SingularBlockError("top-left block is singular") from exc
    return w - z @ x_inv_y


@dataclass(frozen=True)
class FourProduct:
    """An assembled four-matrix product and its invariant data: the witness
    Q = Z - AX, the similarity seed X^{-1} C G, and the trailing positive
    diagonal B F, bound by T/X = Q (X^{-1} C G) Q^{-1} (B F)."""

    t: np.ndarray
    witness: np.ndarray
    x_inv_cg: np.ndarray
    bf: np.ndarray
    x_inv_c: np.ndarray  # the unnormalized-form seed; similar to T/X when B=F=G=I


def four_product(a, b, c, d_blk, e, f, g, h) -> FourProduct:
    """Assemble [I 0; A diag(b)][diag(c) D; 0 I][I 0; E diag(f)][diag(g) H; 0 I]."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    eye = np.eye(n)
    m1 = np.block([[eye, np.zeros((n, n))], [a, np.diag(b)]])
    m2 = np.block([[np.diag(c), d_blk], [np.zeros((n, n)), eye]])
    m3 = np.block([[eye, np.zeros((n, n))], [e, np.diag(f)]])
    m4 = np.block([[np.diag(g), h], [np.zeros((n, n)), eye]])
    t = m1 @ m2 @ m3 @ m4
    x = t[:n, :n]
    z = t[n:, :n]
    witness = z - a @ x
    x_inv = matcore.inv(x)
    return FourProduct(t=t, witness=witness,
                       x_inv_cg=x_inv @ np.diag(np.asarray(c) * np.asarray(g)),
                       bf=np.asarray(b, dtype=np.float64) * np.asarray(f, dtype=np.float64),
                       x_inv_c=x_inv @ np.diag(c))


def spectra_match(s1, s2, rtol: float = 1e-6) -> bool:
    """Multiset comparison of two spectra by optimal matching."""
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    if s1.shape != s2.shape:
        return False
    scale = max(matcore.spectral_radius(s1), matcore.spectral_radius(s2), 1e-300)
    cost = np.abs(s1[:, None] - s2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(np.max(cost[rows, cols]) <= rtol * scale)


def cycle_permutation_matrix(d: int) -> np.ndarray:
    """Matrix of the d-cycle sending coordinate i to i+1 (mod d); its
    eigenvalues are the d-th roots of unity."""
    p = (np.arange(d) + 1) % d
    return matcore.permutation_to_matrix(p)


def hard_instance(d: int, x_diag) -> np.ndarray:
    """Block-diagonal matrix diag(x) + d-cycle bottom block that defeats any
    four-matrix coupling product.

    For even d the plain cycle has determinant -1, so the sign of the
    smallest diagonal entry is flipped to keep the overall determinant
    positive; the trace stays positive, which the reversed-ordering
    obstruction needs.
    """
    if d < 3:
        raise ValueError("d >= 3 required: shorter cycles have real spectra")
    x_diag = np.asarray(x_diag, dtype=np.float64).copy()
    if x_diag.shape != (d,):
        raise ValueError(f"x_diag must have length {d}")
    if np.any(x_diag <= 0.0):
        raise ValueError("x_diag entries must be positive")
    w = cycle_permutation_matrix(d)
    if d % 2 == 0:
        x_diag[int(np.argmin(x_diag))] *= -1.0
    t = np.zeros((2 * d, 2 * d))
    t[:d, :d] = np.diag(x_diag)
    t[d:, d:] = w
    return t


def _single_cycle_pattern(s, rtol: float = DIAG_RTOL):
    """Detect whether ``s`` is supported, to tolerance, on a single cycle
    through all coordinates. Returns (is_cycle, sign of the entry product)."""
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    scale = np.max(np.abs(s))
    if scale == 0.0 or n < 2:
        return False, 0
    big = np.abs(s) > rtol * scale
    if np.any(np.sum(big, axis=0) != 1) or np.any(np.sum(big, axis=1) != 1):
        return False, 0
    perm = np.argmax(big, axis=1)  # row i reads from column perm[i]
    if np.any(perm == np.arange(n)):
        return False, 0
    cycles = matcore.permutation_cycles(perm)
    if len(cycles) != 1 or len(cycles[0]) != n:
        return False, 0
    prod_sign = int(np.prod(np.sign(s[np.arange(n), perm])))
    return True, prod_sign


def _cycle_never_real_diagonalizable(n: int, prod_sign: int) -> bool:
    """Cycle-patterned matrices have characteristic polynomial
    lambda^n - c; column rescalings by positive diagonals preserve the
    pattern and the sign of c, so no positive rescaling can make all
    eigenvalues real once n >= 3 (or n >= 2 with c < 0)."""
    if prod_sign > 0:
        return n >= 3
    return n >= 2


def _is_real_diagonal(s, rtol: float = DIAG_RTOL) -> bool:
    scale = np.max(np.abs(s))
    if scale == 0.0:
        return False
    off = s - np.diag(np.diag(s))
    return bool(np.max(np.abs(off)) <= rtol * scale
                and np.min(np.abs(np.diag(s))) > rtol * scale)


def certify_not_a4(t, d: int) -> SchurCertificate:
    """Certify that a matrix with diagonal invertible top-left block is not
    a product of four coupling matrices.

    Lower-first ordering: T/X times any positive diagonal must be similar
    to a real diagonal matrix; a Schur complement carrying a single
    full-length cycle pattern (non-real spectrum under every positive
    rescaling) excludes it. Upper-first ordering: on the half-swapped
    matrix, the swapped Schur complement times a positive diagonal must be
    similar to W^{-1} C G; with a cycle-patterned bottom block that target
    has at most two real eigenvalues, so a real diagonal swapped complement
    with d >= 3 nonzero entries excludes it. NOT_IN_A4 only when both
    orderings are excluded.
    """
    t = matcore.as_matrix_array(t)
    x, y, z, w = split_blocks(t, d)

    off_scale = np.max(np.abs(x))
    if off_scale == 0.0 or np.max(np.abs(x - np.diag(np.diag(x)))) > 1e-12 * off_scale:
        return SchurCertificate(
            verdict=INCONCLUSIVE, schur_spectrum=np.array([]),
            reason_luru="top-left block not diagonal; general membership is undecided here",
            max_imag=0.0, reason_rlrl="not evaluated", trace_value=0.0)
    if np.min(np.abs(np.diag(x))) <= matcore.SINGULAR_RTOL * off_scale:
        return SchurCertificate(
            verdict=INCONCLUSIVE, schur_spectrum=np.array([]),
            reason_luru="top-left block singular", max_imag=0.0,
            reason_rlrl="not evaluated", trace_value=0.0)

    schur = schur_complement(t, d)
    spectrum = matcore.eig(schur)
    radius = matcore.spectral_radius(spectrum)
    max_imag = float(np.max(np.abs(spectrum.imag))) if len(spectrum) else 0.0
    is_cycle, prod_sign = _single_cycle_pattern(schur)
    luru_excluded = is_cycle and _cycle_never_real_diagonalizable(d, prod_sign)
    has_complex = max_imag > IMAG_RTOL * radius
    luru_tail = ("non-real under every positive rescaling, lower-first product impossible"
                 if luru_excluded else "lower-first product not excluded")
    reason_luru = (
        f"schur complement {'is' if is_cycle else 'is not'} a single {d}-cycle pattern; "
        f"max |Im lambda| = {max_imag:.6g} ({luru_tail})")

    # reversed ordering through the half-swapped matrix
    rlrl_excluded = False
    trace_value = float("nan")
    try:
        w_inv = matcore.inv(w)
        swapped_schur = x - y @ w_inv @ z
        trace_value = float(np.trace(swapped_schur))
        w_cycle, w_sign = _single_cycle_pattern(w)
        diag_real = _is_real_diagonal(swapped_schur)
        rlrl_excluded = w_cycle and diag_real and d >= 3
        rlrl_tail = ("is a nonzero real diagonal: its d real eigenvalues cannot match the "
                     "at most two real eigenvalues of a rescaled cycle, upper-first "
                     "product impossible" if rlrl_excluded
                     else "does not exclude an upper-first product")
        reason_rlrl = (
            f"bottom block {'is' if w_cycle else 'is not'} a single cycle pattern and the "
            f"swapped schur complement (trace {trace_value:.6g}) {rlrl_tail}")
    except matcore.SingularMatrixError:
        reason_rlrl = "bottom-right block singular; reversed ordering not excluded"

    verdict = NOT_IN_A4 if (luru_excluded and rlrl_excluded) else INCONCLUSIVE
    return SchurCertificate(
        verdict=verdict, schur_spectrum=spectrum, reason_luru=reason_luru,
        max_imag=max_imag, reason_rlrl=reason_rlrl, trace_value=trace_value,
        details={"spectral_radius": radius, "luru_excluded": luru_excluded,
                 "rlrl_excluded": rlrl_excluded, "schur_has_complex_spectrum": has_complex})


def falsify_by_fit(t, n_matrices: int, restarts: int, config=None) -> float:
    """Numerical companion to the lower bound: regress a linear coupling
    stack with ``n_matrices`` matrices onto the target and report the best
    relative Frobenius residual over restarts."""
    from couplingflow import trainer  # deferred: trainer pulls in more machinery

    t = matcore.as_matrix_array(t)
    if n_matrices % 2 != 0:
        raise ValueError("n_matrices must be even (alternating pattern)")
    if config is None:
        config = trainer.TrainConfig(steps=4000, batch_size=128)
    best = np.inf
    for seed in range(restarts):
        record = trainer.train_pln(config, d=t.shape[0], n_layers=n_matrices // 2,
                                   seed=seed, target_matrix=t)
        best = min(best, float(np.sqrt(record.final["frobenius_error"] * t.shape[0] ** 2))
                   / max(np.linalg.norm(t), 1e-300))
    return float(best)
