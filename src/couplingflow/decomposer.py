"""Constructive decomposition of positive-determinant matrices into linear
coupling layers.

The pipeline mirrors the constructive route: factor the target as
lower-triangular times upper-triangular times permutation, simulate the
permutation up to signs with at most 21 coupling matrices (signed swaps,
plus two involutions realized by parallel transposition gadgets), absorb
the leftover signs into the upper factor, and build each triangular factor
with at most 13 matrices (one block elimination, six sign-flip matrices,
two diagonal rescalings, four for the block-diagonal construction). Total
budget: 21 + 13 + 13 = 47 matrices.

All emitted layers have strictly positive diagonal blocks, so any product
of them is orientation preserving.
"""

from dataclasses import dataclass, field

import numpy as np

from couplingflow import matcore
from couplingflow.coupling import (
    LOWER,
    UPPER,
    LayerSequence,
    LinearCouplingLayer,
    as_matrix,
    sequence,
)
from couplingflow.errors import (
    EigGapTooSmallError,
    NegativeDeterminantError,
    SingularMatrixError,
)
from couplingflow.metrics import relative_frobenius

PERMUTATION_BUDGET = 21
TRIANGULAR_BUDGET = 13
TOTAL_BUDGET = 47
RESIDUAL_WARN_RTOL = 1e-6  # decompose warns when its product misses the target by more


@dataclass(frozen=True)
class SignedPermutationPlan:
    """A permutation realized up to signs by coupling layers.

    ``sign_vector[i]`` is the sign the product attaches to coordinate i on
    its way to position target[i]; the product matrix agrees entrywise in
    absolute value with the permutation matrix of ``target``.
    """

    target: np.ndarray
    layers: LayerSequence
    sign_vector: np.ndarray

    @property
    def layer_budget(self):
        return PERMUTATION_BUDGET


@dataclass
class DecompositionResult:
    layers: LayerSequence
    matrix_count: int
    residual: float
    stage_log: list
    warnings: list = field(default_factory=list)

    @property
    def layer_pair_count(self):
        """Count in coupling-layer pairs (two matrices per layer pair)."""
        return -(-self.matrix_count // 2)


# ---------------------------------------------------------------------------
# signed swaps


def signed_swap_layers(d: int, pairs) -> LayerSequence:
    """Three coupling matrices realizing (x_i, y_j) -> (y_j, -x_i) on each
    pair in parallel and the identity elsewhere.

    ``pairs`` is a list of (i, j) with i an index into the first half and j
    an index into the second half (both 0-based within their half). The
    state trace per pair is (x, y) -> (x, y-x) -> (y, y-x) -> (y, -x).
    """
    pairs = list(pairs)
    first = [i for i, _ in pairs]
    second = [j for _, j in pairs]
    if len(set(first)) != len(first) or len(set(second)) != len(second):
        raise ValueError("signed swap pairs must be disjoint")
    for i, j in pairs:
        if not (0 <= i < d and 0 <= j < d):
            raise ValueError(f"pair ({i}, {j}) out of range for half-dim {d}")
    sub = np.zeros((d, d))
    add = np.zeros((d, d))
    for i, j in pairs:
        sub[j, i] = -1.0
        add[i, j] = 1.0
    ones = np.ones(d)
    return sequence([
        LinearCouplingLayer(side=LOWER, dense=sub.copy(), diag=ones.copy()),
        LinearCouplingLayer(side=UPPER, dense=add, diag=ones.copy()),
        LinearCouplingLayer(side=LOWER, dense=sub.copy(), diag=ones.copy()),
    ])


# ---------------------------------------------------------------------------
# order-2 factorization of a permutation


def order2_factor(pi):
    """Split a permutation into two involutions with sigma2 o sigma1 = pi.

    Works cycle by cycle: a cycle (e_1 ... e_r) factors through the pair of
    reflections sigma1 = (1 2)(3 r)(4 r-1)... and sigma2 = (1 3)(4 r)(5 r-1)...
    """
    pi = matcore.check_permutation(pi)
    n = pi.shape[0]
    sigma1 = np.arange(n, dtype=np.int64)
    sigma2 = np.arange(n, dtype=np.int64)
    for cyc in matcore.permutation_cycles(pi):
        r = len(cyc)
        if r == 2:
            sigma2[cyc[0]], sigma2[cyc[1]] = cyc[1], cyc[0]
            continue

        def s1(s):  # 1-indexed positions within the cycle
            if s == 1:
                return 2
            if s == 2:
                return 1
            return r + 3 - s

        def s2(s):
            if s == 1:
                return 3
            if s == 2:
                return 2
            if s == 3:
                return 1
            return r + 4 - s

        for s in range(1, r + 1):
            sigma1[cyc[s - 1]] = cyc[s1(s) - 1]
            sigma2[cyc[s - 1]] = cyc[s2(s) - 1]
    return sigma1, sigma2


# ---------------------------------------------------------------------------
# permutations as coupling products


def _involution_transpositions(sigma):
    return [tuple(c) for c in matcore.permutation_cycles(sigma) if len(c) == 2]


def _involution_rounds(sigma, d):
    """Schedule the transpositions of an involution on 2d coordinates into
    at most three rounds of parallel disjoint signed swaps.

    Cross-half transpositions are not expected here (they are handled by the
    crossing stage); within-half transpositions are either paired across the
    two halves (two rounds, no storage) or routed through a storage
    coordinate in the opposite half (three rounds).
    """
    trans = _involution_transpositions(sigma)
    left = [t for t in trans if t[0] < d and t[1] < d]
    right = [(a - d, b - d) for a, b in trans if a >= d and b >= d]
    if len(left) + len(right) != len(trans):
        raise ValueError("involution mixes halves; crossing stage missing")

    rounds = [[], [], []]
    npair = min(len(left), len(right))
    for (i1, i2), (j1, j2) in zip(left[:npair], right[:npair]):
        rounds[0] += [(i1, j1), (i2, j2)]
        rounds[1] += [(i1, j2), (i2, j1)]

    if len(left) > npair:
        used_r = {j for pair in right for j in pair}
        free_r = [j for j in range(d) if j not in used_r]
        extra = left[npair:]
        if len(extra) > len(free_r):
            raise RuntimeError("no storage coordinates available")  # impossible
        for (i1, i2), s in zip(extra, free_r):
            rounds[0].append((i1, s))
            rounds[1].append((i2, s))
            rounds[2].append((i1, s))
    elif len(right) > npair:
        used_l = {i for pair in left for i in pair}
        free_l = [i for i in range(d) if i not in used_l]
        extra = right[npair:]
        if len(extra) > len(free_l):
            raise RuntimeError("no storage coordinates available")  # impossible
        for (j1, j2), u in zip(extra, free_l):
            rounds[0].append((u, j1))
            rounds[1].append((u, j2))
            rounds[2].append((u, j1))
    return [r for r in rounds if r]


def permutation_layers(p) -> LayerSequence:
    """Coupling product agreeing entrywise in absolute value with the
    permutation matrix of ``p`` (indices on 2d coordinates), using at most
    21 matrices. The product determinant is positive by construction.
    """
    p = matcore.check_permutation(p)
    n = p.shape[0]
    if n % 2 != 0:
        raise ValueError("permutation must act on an even number of coordinates")
    d = n // 2

    movers_lr = [j for j in range(d) if p[j] >= d]
    movers_rl = [j for j in range(d, n) if p[j] < d]
    kappa = np.arange(n, dtype=np.int64)
    cross_pairs = []
    for a, b in zip(movers_lr, movers_rl):
        kappa[a], kappa[b] = b, a
        cross_pairs.append((a, b - d))

    layers = []
    if cross_pairs:
        layers += list(signed_swap_layers(d, cross_pairs).layers)

    # remaining permutation fixes each half setwise
    rho = matcore.compose_permutations(p, kappa)
    assert all((rho[i] < d) == (i < d) for i in range(n))
    sigma1, sigma2 = order2_factor(rho)
    for sigma in (sigma1, sigma2):
        for rnd in _involution_rounds(sigma, d):
            layers += list(signed_swap_layers(d, rnd).layers)

    seq = sequence(layers, ambient_dim=n)
    assert len(seq) <= PERMUTATION_BUDGET
    return seq


def permutation_plan(p) -> SignedPermutationPlan:
    """permutation_layers plus the achieved per-coordinate signs."""
    p = matcore.check_permutation(p)
    seq = permutation_layers(p)
    m = as_matrix(seq)
    signs = m[p, np.arange(p.shape[0])]
    return SignedPermutationPlan(target=p, layers=seq, sign_vector=signs)


# ---------------------------------------------------------------------------
# block-diagonal construction


def _eigvec_matrix(a, eig_order, min_gap):
    """Eigenvector matrix of ``a`` with columns following ``eig_order``
    (a sorted array of the eigenvalues of ``a``)."""
    a = matcore.as_matrix_array(a)
    n = a.shape[0]
    is_lower = np.max(np.abs(np.triu(a, 1))) == 0.0 if n > 1 else True
    is_upper = np.max(np.abs(np.tril(a, -1))) == 0.0 if n > 1 else True
    if is_lower or is_upper:
        v = matcore.triangular_eigvecs(a, min_gap=min_gap, upper=(is_upper and not is_lower))
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
        order = np.argsort(np.diag(a))
        return v[:, order]
    # general case: null vector of (a - lambda I) per eigenvalue
    cols = []
    for lam in eig_order:
        _, _, vh = np.linalg.svd(a - lam * np.eye(n))
        null = vh[-1]
        cols.append(null / null[np.argmax(np.abs(null))])
    return np.column_stack(cols)


def block_diag_layers(m, s, min_gap: float = 1e-8) -> LayerSequence:
    """Four coupling matrices whose product is blockdiag(m, s).

    Requires ``m`` invertible with distinct real eigenvalues and ``s``
    triangular with the eigenvalues of m^{-1}. With eigendecompositions
    s = U X U^{-1} and m^{-1} = V X V^{-1} (same diagonal X), the product

        [I 0; A I][I D; 0 I][I 0; E I][I H; 0 I]

    with A = U V^{-1}, E = -A m, D = (m - I) E^{-1}, H = (m^{-1} - I) E^{-1}
    equals blockdiag(m, A m^{-1} A^{-1}) = blockdiag(m, s).
    """
    m = matcore.as_matrix_array(m)
    s = matcore.as_matrix_array(s)
    n = m.shape[0]
    if m.shape != s.shape or m.shape[0] != m.shape[1]:
        raise ValueError("m and s must be square with equal shape")

    lam = matcore.eig(m)
    radius = matcore.spectral_radius(lam)
    if radius == 0.0:
        raise SingularMatrixError("m is singular")
    if np.max(np.abs(lam.imag)) > 1e-9 * radius:
        raise EigGapTooSmallError("m has non-real eigenvalues")
    lam = np.sort(lam.real)
    if n > 1 and np.min(np.diff(lam)) < min_gap:
        raise EigGapTooSmallError(
            f"eigenvalue gap {np.min(np.diff(lam)):g} below min_gap {min_gap:g}")
    if np.min(np.abs(lam)) <= matcore.SINGULAR_RTOL * radius:
        raise SingularMatrixError("m has an eigenvalue at zero")

    target = np.sort(1.0 / lam)
    s_eigs = np.sort(matcore.eig(s).real)
    if np.max(np.abs(s_eigs - target)) > 1e-6 * max(1.0, np.max(np.abs(target))):
        raise ValueError("s does not carry the eigenvalues of m^{-1}")

    is_lower = n == 1 or np.max(np.abs(np.triu(m, 1))) == 0.0
    is_upper = n == 1 or np.max(np.abs(np.tril(m, -1))) == 0.0
    if is_lower or is_upper:
        m_inv = matcore.triangular_inverse(m, lower=is_lower)
    else:
        m_inv = matcore.inv(m)
    gap_floor = min(min_gap, 0.5 * float(np.min(np.diff(target))) if n > 1 else min_gap)
    v = _eigvec_matrix(m_inv, target, gap_floor)
    u = _eigvec_matrix(s, target, gap_floor)
    a_blk = u @ matcore.inv(v)
    e_blk = -a_blk @ m
    e_inv = matcore.inv(e_blk)
    d_blk = (m - np.eye(n)) @ e_inv
    h_blk = (m_inv - np.eye(n)) @ e_inv

    ones = np.ones(n)
    # product order [L(A), U(D), L(E), U(H)]; apply order is the reverse
    return sequence([
        LinearCouplingLayer(side=UPPER, dense=h_blk, diag=ones.copy()),
        LinearCouplingLayer(side=LOWER, dense=e_blk, diag=ones.copy()),
        LinearCouplingLayer(side=UPPER, dense=d_blk, diag=ones.copy()),
        LinearCouplingLayer(side=LOWER, dense=a_blk, diag=ones.copy()),
    ])


# ---------------------------------------------------------------------------
# elementary shears and scalings


def shear_and_scale_layers(dim_half: int, i: int, j: int, c: float) -> LayerSequence:
    """Coupling layers realizing an elementary matrix on 2d coordinates.

    i == j: scaling of coordinate i by c > 0 (one matrix).
    i != j: shear adding c * x_j to x_i. Cross-partition shears need one
    matrix. Within-half shears route through the first coordinate of the
    opposite half and need four matrices: the product
    L(-E) U(D) L(E) U(-D) with D = c e_i e_0^T and E = e_0 e_j^T collapses
    to the exact elementary shear (the cross terms vanish since i != j).
    """
    d = dim_half
    if not (0 <= i < 2 * d and 0 <= j < 2 * d):
        raise ValueError("coordinate index out of range")
    ones = np.ones(d)
    if i == j:
        if c == 0.0:
            raise ValueError("scale factor must be nonzero")
        if c < 0.0:
            raise ValueError("scale factor must be positive for a coupling layer")
        diag = np.ones(d)
        if i < d:
            diag[i] = c
            return sequence([LinearCouplingLayer(side=UPPER, dense=np.zeros((d, d)), diag=diag)])
        diag[i - d] = c
        return sequence([LinearCouplingLayer(side=LOWER, dense=np.zeros((d, d)), diag=diag)])

    if c == 0.0:
        return sequence([], ambient_dim=2 * d)

    if i < d <= j:  # first half receives from second half
        dense = np.zeros((d, d))
        dense[i, j - d] = c
        return sequence([LinearCouplingLayer(side=UPPER, dense=dense, diag=ones.copy())])
    if j < d <= i:
        dense = np.zeros((d, d))
        dense[i - d, j] = c
        return sequence([LinearCouplingLayer(side=LOWER, dense=dense, diag=ones.copy())])

    if i < d and j < d:
        e_mat = np.zeros((d, d))
        e_mat[0, j] = 1.0
        d_mat = np.zeros((d, d))
        d_mat[i, 0] = c
        # product order L(-E) U(D) L(E) U(-D); apply order reversed
        return sequence([
            LinearCouplingLayer(side=UPPER, dense=-d_mat, diag=ones.copy()),
            LinearCouplingLayer(side=LOWER, dense=e_mat, diag=ones.copy()),
            LinearCouplingLayer(side=UPPER, dense=d_mat, diag=ones.copy()),
            LinearCouplingLayer(side=LOWER, dense=-e_mat, diag=ones.copy()),
        ])
    # both in second half: mirrored construction through first-half storage
    ii, jj = i - d, j - d
    e_mat = np.zeros((d, d))
    e_mat[0, jj] = 1.0
    d_mat = np.zeros((d, d))
    d_mat[ii, 0] = c
    return sequence([
        LinearCouplingLayer(side=LOWER, dense=-d_mat, diag=ones.copy()),
        LinearCouplingLayer(side=UPPER, dense=e_mat, diag=ones.copy()),
        LinearCouplingLayer(side=LOWER, dense=d_mat, diag=ones.copy()),
        LinearCouplingLayer(side=UPPER, dense=-e_mat, diag=ones.copy()),
    ])


# ---------------------------------------------------------------------------
# triangular factors


def _sign_flip_pairs(diag_first, diag_second):
    """Choose disjoint (first-half, second-half) coordinate pairs whose sign
    flips leave both halves with equally many negative diagonal entries.

    Negative indices are paired ascending across the halves; leftover
    negatives on one side (an even count, by the parity of det > 0) are
    paired with ascending positive coordinates on the other side, which
    moves half of them over.
    """
    neg1 = [int(k) for k in np.flatnonzero(diag_first < 0)]
    neg2 = [int(k) for k in np.flatnonzero(diag_second < 0)]
    if (len(neg1) - len(neg2)) % 2 != 0:
        raise ValueError("negative counts differ in parity; determinant not positive")
    m0 = min(len(neg1), len(neg2))
    pairs = list(zip(neg1[:m0], neg2[:m0]))
    if len(neg1) > m0:
        pos2 = [int(k) for k in np.flatnonzero(diag_second >= 0)]
        extra = (len(neg1) - m0) // 2
        pairs += list(zip(neg1[m0 : m0 + extra], pos2[:extra]))
    elif len(neg2) > m0:
        pos1 = [int(k) for k in np.flatnonzero(diag_first >= 0)]
        extra = (len(neg2) - m0) // 2
        pairs += list(zip(pos1[:extra], neg2[m0 : m0 + extra]))
    return pairs


def _geometric_targets(diag_vals, d):
    """Rescale targets for the first-half diagonal: a signed geometric
    ladder beta^rank with ranks following the original magnitudes.

    Geometric spacing keeps the gap between any two ladder values comparable
    to the larger of them, which bounds the growth of the triangular
    eigenvector recurrence; uniform multiplicative perturbations leave
    near-equal diagonals (e.g. an all-ones diagonal) with gaps far below the
    off-diagonal scale and the construction loses all accuracy. The ladder
    is centered at one so the rescale factors and their inverses stay
    balanced and the block-diagonal stage error is not magnified on the way
    back.
    """
    beta = 1.3
    rank = np.argsort(np.argsort(np.abs(diag_vals))).astype(np.float64)
    alpha = np.sign(diag_vals) * beta ** (rank - 0.5 * (d - 1))
    return alpha, alpha / diag_vals


def _matched_inverses(alpha, diag_second):
    """Positive factors sending the second-half diagonal to the multiset
    {1/alpha_i}: within each sign class, magnitudes are matched rank to
    rank so the row scalings stay as mild as possible."""
    gamma = np.empty_like(diag_second)
    for sign in (-1.0, 1.0):
        idx_a = np.flatnonzero(np.sign(alpha) == sign)
        idx_c = np.flatnonzero(np.sign(diag_second) == sign)
        if idx_a.shape[0] != idx_c.shape[0]:
            raise ValueError("sign classes unbalanced; sign-flip stage incomplete")
        if idx_a.shape[0] == 0:
            continue
        inv_vals = 1.0 / alpha[idx_a]
        inv_by_abs = inv_vals[np.argsort(np.abs(inv_vals))]
        c_by_abs = idx_c[np.argsort(np.abs(diag_second[idx_c]))]
        gamma[c_by_abs] = inv_by_abs
    return gamma, gamma / diag_second


def _inverse_multiset_match(alpha, diag_second, rtol=1e-12):
    if np.any(np.sign(np.sort(alpha)) != np.sign(np.sort(diag_second))):
        return False
    want = np.sort(1.0 / alpha)
    have = np.sort(diag_second)
    scale = np.max(np.abs(want))
    return bool(np.max(np.abs(want - have)) <= rtol * scale)


def triangular_layers(tri, side: str = LOWER) -> DecompositionResult:
    """Decompose a triangular 2d x 2d matrix with positive determinant into
    at most 13 coupling matrices.

    Stages (matrix budget): eliminate the off-diagonal block (1), equalize
    the negative diagonal counts of the two halves with paired sign flips
    (6), rescale the diagonal so the first-half entries are distinct and the
    second half carries their inverses (2), then apply the block-diagonal
    construction (4).
    """
    tri = matcore.as_matrix_array(tri)
    n = tri.shape[0]
    if n % 2 != 0 or tri.shape[0] != tri.shape[1]:
        raise ValueError("matrix must be square with even dimension")
    d = n // 2
    diag = np.diag(tri)
    if np.any(diag == 0.0):
        raise SingularMatrixError("zero diagonal entry in triangular factor")
    if side == LOWER:
        if np.max(np.abs(np.triu(tri, 1))) != 0.0:
            raise ValueError("matrix is not lower triangular")
    elif side == UPPER:
        if np.max(np.abs(np.tril(tri, -1))) != 0.0:
            raise ValueError("matrix is not upper triangular")
    else:
        raise ValueError(f"side must be lower/upper, got {side!r}")
    if float(np.prod(np.sign(diag))) < 0.0:
        raise NegativeDeterminantError("triangular factor has negative determinant")

    stage_log = []
    ones = np.ones(d)

    # stage 1: eliminate the off-diagonal block
    if side == LOWER:
        off = tri[d:, :d]
    else:
        off = tri[:d, d:]
    elim_layers = []
    g0 = tri
    if np.max(np.abs(off)) != 0.0:
        if side == LOWER:
            c_blk = tri[d:, d:]
            x = matcore.triangular_solve(c_blk, off, lower=True)
            elim_layers = [LinearCouplingLayer(side=LOWER, dense=x, diag=ones.copy())]
        else:
            a_blk = tri[:d, :d]
            x = matcore.triangular_solve(a_blk, off, lower=False)
            elim_layers = [LinearCouplingLayer(side=UPPER, dense=x, diag=ones.copy())]
        g0 = tri.copy()
        if side == LOWER:
            g0[d:, :d] = 0.0
        else:
            g0[:d, d:] = 0.0
    stage_log.append(("eliminate", len(elim_layers)))

    # stage 2: sign flips to equalize negative counts across the halves
    diag0 = np.diag(g0)
    flip_pairs = _sign_flip_pairs(diag0[:d], diag0[d:])
    flip_layers = []
    g1 = g0
    if flip_pairs:
        flip_layers = list(signed_swap_layers(d, flip_pairs).layers)
        flip_layers += list(signed_swap_layers(d, flip_pairs).layers)
        f_diag = np.ones(n)
        for a, b in flip_pairs:
            f_diag[a] = -1.0
            f_diag[d + b] = -1.0
        g1 = f_diag[:, None] * g0
    stage_log.append(("signflip", len(flip_layers)))

    # stage 3: diagonal rescale for distinctness and matched inverses
    diag1 = np.diag(g1)
    rescale_layers = []
    g2 = g1
    if _inverse_multiset_match(diag1[:d], diag1[d:]) and (
        d == 1 or np.min(np.diff(np.sort(diag1[:d]))) > 1e-9 * np.max(np.abs(diag1[:d]))
    ):
        pass  # already in block-diagonal construction form
    else:
        alpha, f_first = _geometric_targets(diag1[:d], d)
        _, f_second = _matched_inverses(alpha, diag1[d:])
        rescale_layers = [
            LinearCouplingLayer(side=UPPER, dense=np.zeros((d, d)), diag=1.0 / f_first),
            LinearCouplingLayer(side=LOWER, dense=np.zeros((d, d)), diag=1.0 / f_second),
        ]
        g2 = np.concatenate([f_first, f_second])[:, None] * g1
    stage_log.append(("rescale", len(rescale_layers)))

    # stage 4: block-diagonal construction
    m_blk = g2[:d, :d]
    s_blk = g2[d:, d:]
    diag2 = np.diag(g2)
    gap = float(np.min(np.diff(np.sort(diag2[:d])))) if d > 1 else 1.0
    block_seq = block_diag_layers(m_blk, s_blk, min_gap=0.5 * gap)
    stage_log.append(("blockdiag", len(block_seq)))

    # assemble in apply order: eliminate, blockdiag, rescale, sign flips
    layers = list(elim_layers) + list(block_seq.layers)
    layers += rescale_layers + flip_layers
    seq = sequence(layers, ambient_dim=n)
    assert len(seq) <= TRIANGULAR_BUDGET
    residual = relative_frobenius(as_matrix(seq), tri)
    return DecompositionResult(layers=seq, matrix_count=len(seq), residual=float(residual),
                               stage_log=stage_log)


# ---------------------------------------------------------------------------
# full decomposition


def decompose(t) -> DecompositionResult:
    """Decompose a positive-determinant matrix into at most 47 coupling
    matrices, recording per-stage consumption and the reconstruction
    residual.
    """
    t = matcore.as_matrix_array(t)
    n = t.shape[0]
    if t.shape[0] != t.shape[1] or n % 2 != 0:
        raise ValueError("target must be square with even dimension")
    d = n // 2
    warnings = []
    if d < 4:
        warnings.append("d < 4 is below the construction's intended regime; "
                        "attempted anyway")

    # factor t = L * U * P with the permutation acting first; the same
    # factorization carries the determinant check (det t = det t^T)
    try:
        f = matcore.lup(t.T)
    except SingularMatrixError:
        raise SingularMatrixError("target is singular to tolerance") from None
    det_sign = f.parity * int(np.prod(np.sign(np.diag(f.upper))))
    if det_sign < 0:
        raise NegativeDeterminantError("target has negative determinant")
    l_left = f.upper.T.copy()
    u_mid = f.lower.T.copy()
    pi_right = matcore.invert_permutation(f.perm)

    perm_seq = permutation_layers(pi_right)
    p_tilde = as_matrix(perm_seq) if len(perm_seq) else np.eye(n)

    remainder = t @ p_tilde.T
    stage_log = [("permutation", len(perm_seq))]
    if relative_frobenius(remainder, np.eye(n)) <= 1e-12:
        seq = perm_seq
        stage_log += [("upper", 0), ("lower", 0)]
    else:
        p_mat = matcore.permutation_to_matrix(pi_right)
        sign_fix = p_mat @ p_tilde.T
        # sign_fix is exactly diagonal +-1 by construction
        assert np.max(np.abs(sign_fix - np.diag(np.diag(sign_fix)))) == 0.0
        u2 = u_mid @ sign_fix
        if float(np.prod(np.sign(np.diag(l_left)))) < 0.0:
            l_left[:, 0] = -l_left[:, 0]
            u2[0, :] = -u2[0, :]

        lower_res = triangular_layers(l_left, side=LOWER)
        upper_res = triangular_layers(u2, side=UPPER)
        # apply order: permutation, then upper factor, then lower factor
        seq = perm_seq + upper_res.layers + lower_res.layers
        stage_log += [("upper", upper_res.matrix_count), ("lower", lower_res.matrix_count)]

    residual = relative_frobenius(as_matrix(seq), t)
    if residual > RESIDUAL_WARN_RTOL:
        warnings.append(f"relative residual {residual:.3g} exceeds {RESIDUAL_WARN_RTOL:g}: "
                        "the layers reproduce the target only approximately")
    result = DecompositionResult(layers=seq, matrix_count=len(seq),
                                 residual=float(residual), stage_log=stage_log,
                                 warnings=warnings)
    assert result.matrix_count <= TOTAL_BUDGET
    return result


def verify(result: DecompositionResult, t) -> float:
    """Recompute the relative Frobenius residual of a decomposition."""
    t = matcore.as_matrix_array(t)
    if t.shape != (result.layers.ambient_dim, result.layers.ambient_dim):
        raise ValueError("dimension mismatch between result and target")
    return float(relative_frobenius(as_matrix(result.layers), t))
