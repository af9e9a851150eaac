"""Constructive decomposition of positive-determinant matrices into linear
coupling layers.

The pipeline mirrors the constructive route: factor the target as
lower-triangular times upper-triangular times permutation, simulate the
permutation up to signs with signed-swap rounds (a crossing round plus two
involutions realized by parallel transposition gadgets), absorb the
leftover signs into the upper factor, and build each triangular factor
from one block elimination, a doubled signed-swap round of sign flips, two
diagonal rescalings and the four-matrix block-diagonal construction. Every
stage appends through ``_extend``, which merges adjacent linear couplings
on the same side. Budget: 15 matrices for the permutation and 11 per
triangular factor (10 on the upper side); a lower factor that needs all 11
starts with a layer that merges into the upper factor's last, so 35 in all
(unmerged, 21 + 13 + 13 = 47).

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

PERMUTATION_BUDGET = 15
TRIANGULAR_BUDGET = 11
TOTAL_BUDGET = 35
RESIDUAL_WARN_RTOL = 1e-6  # decompose warns when its product misses the target by more


@dataclass
class DecompositionResult:
    layers: LayerSequence
    residual: float
    stage_log: list
    warnings: list = field(default_factory=list)

    @property
    def matrix_count(self):
        """Number of coupling matrices in ``layers``."""
        return len(self.layers)

    @property
    def layer_pair_count(self):
        """Count in coupling-layer pairs (two matrices per layer pair)."""
        return -(-self.matrix_count // 2)


# ---------------------------------------------------------------------------
# appending layers


def _extend(layers: list, new) -> int:
    """Append the linear layers ``new`` to ``layers`` in apply order and
    return how far the list grew. A layer on the same side as the last one
    merges into it: L(A2, b2) after L(A1, b1) is L(diag(b2) A1 + A2, b2 b1)."""
    start = len(layers)
    for layer in new:
        last = layers[-1] if layers else None
        if last is not None and last.side == layer.side:
            layers[-1] = LinearCouplingLayer(side=layer.side,
                                             dense=layer.diag[:, None] * last.dense + layer.dense,
                                             diag=layer.diag * last.diag)
        else:
            layers.append(layer)
    return len(layers) - start


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

    Works cycle by cycle: on the positions k = 0..r-1 of a cycle
    (e_0 ... e_{r-1}), sigma1 and sigma2 are the reflections k -> 1 - k and
    k -> 2 - k (mod r), whose product is the rotation k -> k + 1. A
    transposition is sigma2 alone.
    """
    pi = matcore.check_permutation(pi)
    n = pi.shape[0]
    sigma1 = np.arange(n, dtype=np.int64)
    sigma2 = np.arange(n, dtype=np.int64)
    for cyc in matcore.permutation_cycles(pi):
        cyc = np.array(cyc)
        r = len(cyc)
        if r == 2:
            sigma2[cyc] = cyc[::-1]
            continue
        k = np.arange(r)
        sigma1[cyc] = cyc[(1 - k) % r]
        sigma2[cyc] = cyc[(2 - k) % r]
    return sigma1, sigma2


# ---------------------------------------------------------------------------
# permutations as coupling products


def _involution_rounds(sigma, d):
    """Schedule the transpositions of an involution on 2d coordinates into
    at most three rounds of parallel disjoint signed swaps.

    Cross-half transpositions are not expected here (they are handled by the
    crossing stage); within-half transpositions are either paired across the
    two halves (two rounds, no storage) or routed through a storage
    coordinate in the opposite half (three rounds).
    """
    trans = [tuple(c) for c in matcore.permutation_cycles(sigma) if len(c) == 2]
    left = [t for t in trans if t[0] < d and t[1] < d]
    right = [(a - d, b - d) for a, b in trans if a >= d and b >= d]
    if len(left) + len(right) != len(trans):
        raise ValueError("involution mixes halves; crossing stage missing")

    rounds = [[], [], []]
    npair = min(len(left), len(right))
    for (i1, i2), (j1, j2) in zip(left[:npair], right[:npair]):
        rounds[0] += [(i1, j1), (i2, j2)]
        rounds[1] += [(i1, j2), (i2, j1)]

    # the surplus half routes each leftover transposition through a free
    # coordinate of the other half; pairs stay (first half, second half)
    surplus_left = len(left) > npair
    extra, other = (left, right) if surplus_left else (right, left)
    used = {k for pair in other for k in pair}
    free = [k for k in range(d) if k not in used]
    if len(extra) - npair > len(free):
        raise RuntimeError("no storage coordinates available")  # impossible
    for (e1, e2), f in zip(extra[npair:], free):
        for rnd, e in zip(rounds, (e1, e2, e1)):
            rnd.append((e, f) if surplus_left else (f, e))
    return [r for r in rounds if r]


def permutation_layers(p) -> LayerSequence:
    """Coupling product agreeing entrywise in absolute value with the
    permutation matrix of ``p`` (indices on 2d coordinates). The product
    determinant is positive by construction.

    At most seven signed-swap rounds (one crossing round, at most three per
    involution) of three matrices; consecutive rounds merge their lower
    layers where they meet, so at most 7 * 3 - 6 = 15 matrices.
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
        _extend(layers, signed_swap_layers(d, cross_pairs).layers)

    # remaining permutation fixes each half setwise
    rho = matcore.compose_permutations(p, kappa)
    assert all((rho[i] < d) == (i < d) for i in range(n))
    sigma1, sigma2 = order2_factor(rho)
    for sigma in (sigma1, sigma2):
        for rnd in _involution_rounds(sigma, d):
            _extend(layers, signed_swap_layers(d, rnd).layers)

    seq = sequence(layers, ambient_dim=n)
    assert len(seq) <= PERMUTATION_BUDGET
    return seq


# ---------------------------------------------------------------------------
# block-diagonal construction


def block_diag_layers(m, s, min_gap: float = 1e-8) -> LayerSequence:
    """Four coupling matrices whose product is blockdiag(m, s).

    Requires ``m`` and ``s`` triangular (each may be lower or upper), ``m``
    with distinct nonzero diagonal entries and ``s`` with their inverses on
    its diagonal, so both spectra are read off the diagonals. The
    eigendecompositions s = U X U^{-1} and m^{-1} = V X V^{-1} (same
    diagonal X, ascending) take U and V from ``matcore.triangular_eigvecs``
    (LAPACK geev), and the product

        [I 0; A I][I D; 0 I][I 0; E I][I H; 0 I]

    with A = U V^{-1}, E = -A m, D = (m - I) E^{-1}, H = (m^{-1} - I) E^{-1}
    equals blockdiag(m, A m^{-1} A^{-1}) = blockdiag(m, s).
    """
    m = matcore.as_matrix_array(m)
    s = matcore.as_matrix_array(s)
    n = m.shape[0]
    if m.shape != s.shape or m.shape[0] != m.shape[1]:
        raise ValueError("m and s must be square with equal shape")
    for name, blk in (("m", m), ("s", s)):
        try:
            matcore.is_lower_triangular(blk)
        except ValueError:
            raise ValueError(f"{name} is neither lower nor upper triangular") from None

    lam = np.sort(np.diag(m))
    radius = matcore.spectral_radius(lam)
    if radius == 0.0:
        raise SingularMatrixError("m is singular")
    if n > 1 and np.min(np.diff(lam)) < min_gap:
        raise EigGapTooSmallError(
            f"eigenvalue gap {np.min(np.diff(lam)):g} below min_gap {min_gap:g}")
    if np.min(np.abs(lam)) <= matcore.SINGULAR_RTOL * radius:
        raise SingularMatrixError("m has an eigenvalue at zero")

    target = np.sort(1.0 / lam)
    if np.max(np.abs(np.sort(np.diag(s)) - target)) > 1e-6 * max(1.0, np.max(np.abs(target))):
        raise ValueError("s does not carry the eigenvalues of m^{-1}")

    m_inv = matcore.triangular_inverse(m)
    gap_floor = min(min_gap, 0.5 * float(np.min(np.diff(target))) if n > 1 else min_gap)
    v = matcore.triangular_eigvecs(m_inv, min_gap=gap_floor)
    u = matcore.triangular_eigvecs(s, min_gap=gap_floor)
    # E = -U V^{-1} m is singular exactly when an eigenvector matrix is
    try:
        a_blk = u @ matcore.inv(v)
        e_blk = -a_blk @ m
        e_inv = matcore.inv(e_blk)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"block-diagonal stage: eigenvector matrix singular to tolerance ({exc}); "
            "the triangular factor is ill-conditioned") from exc
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
    surplus_first = len(neg1) > m0
    negs, other = (neg1, diag_second) if surplus_first else (neg2, diag_first)
    extra = (len(negs) - m0) // 2
    moved = negs[m0 : m0 + extra]
    pos = [int(k) for k in np.flatnonzero(other >= 0)][:extra]
    pairs += list(zip(moved, pos) if surplus_first else zip(pos, moved))
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
    """Positive row factors sending the second-half diagonal to the multiset
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
    return gamma / diag_second


def triangular_layers(tri, side: str = LOWER):
    """Decompose a triangular 2d x 2d matrix with positive determinant into
    at most 11 coupling matrices; returns (layers, stage_log).

    Stages (unmerged matrix count): eliminate the off-diagonal block (1),
    equalize the negative diagonal counts of the two halves with paired
    sign flips (6), rescale the diagonal so the first-half entries are
    distinct and the second half carries their inverses (2, always, even
    where the diagonal already has that form), then apply the
    block-diagonal construction (4). Appended in apply order (eliminate,
    blockdiag, rescale, signflip), adjacent same-side layers merge: at most
    11 matrices on the lower side and 10 on the upper. ``stage_log`` holds
    (stage, growth of the layer list) pairs, which sum to ``len(layers)``.
    """
    tri = matcore.as_matrix_array(tri)
    n = tri.shape[0]
    if n % 2 != 0 or tri.shape[0] != tri.shape[1]:
        raise ValueError("matrix must be square with even dimension")
    d = n // 2
    diag = np.diag(tri)
    if np.any(diag == 0.0):
        raise SingularMatrixError("zero diagonal entry in triangular factor")
    if side not in (LOWER, UPPER):
        raise ValueError(f"side must be lower/upper, got {side!r}")
    if np.any(np.triu(tri if side == LOWER else tri.T, 1)):
        raise ValueError(f"matrix is not {side} triangular")
    if float(np.prod(np.sign(diag))) < 0.0:
        raise NegativeDeterminantError("triangular factor has negative determinant")

    ones = np.ones(d)
    # the layer on ``side`` keeps one half of the coordinates and updates
    # the other, as coupling._halves splits them
    kept, upd = (slice(0, d), slice(d, n)) if side == LOWER else (slice(d, n), slice(0, d))

    # stage 1: eliminate the off-diagonal block
    off = tri[upd, kept]
    elim_layers = []
    g0 = tri
    if np.any(off):
        x = matcore.triangular_solve(tri[upd, upd], off)
        elim_layers = [LinearCouplingLayer(side=side, dense=x, diag=ones.copy())]
        g0 = tri.copy()
        g0[upd, kept] = 0.0

    # stage 2: sign flips to equalize negative counts across the halves
    diag0 = np.diag(g0)
    flip_pairs = _sign_flip_pairs(diag0[:d], diag0[d:])
    flip_layers = ()
    g1 = g0
    if flip_pairs:
        flip_layers = 2 * signed_swap_layers(d, flip_pairs).layers
        f_diag = np.ones(n)
        for a, b in flip_pairs:
            f_diag[a] = -1.0
            f_diag[d + b] = -1.0
        g1 = f_diag[:, None] * g0

    # stage 3: diagonal rescale for distinctness and matched inverses
    diag1 = np.diag(g1)
    alpha, f_first = _geometric_targets(diag1[:d], d)
    f_second = _matched_inverses(alpha, diag1[d:])
    rescale_layers = [
        LinearCouplingLayer(side=UPPER, dense=np.zeros((d, d)), diag=1.0 / f_first),
        LinearCouplingLayer(side=LOWER, dense=np.zeros((d, d)), diag=1.0 / f_second),
    ]
    g2 = np.concatenate([f_first, f_second])[:, None] * g1

    # stage 4: block-diagonal construction
    m_blk = g2[:d, :d]
    s_blk = g2[d:, d:]
    diag2 = np.diag(g2)
    gap = float(np.min(np.diff(np.sort(diag2[:d])))) if d > 1 else 1.0
    block_seq = block_diag_layers(m_blk, s_blk, min_gap=0.5 * gap)

    layers = []
    stage_log = [(name, _extend(layers, stage)) for name, stage in (
        ("eliminate", elim_layers), ("blockdiag", block_seq.layers),
        ("rescale", rescale_layers), ("signflip", flip_layers))]
    seq = sequence(layers, ambient_dim=n)
    assert len(seq) <= TRIANGULAR_BUDGET
    return seq, stage_log


# ---------------------------------------------------------------------------
# full decomposition


def decompose(t) -> DecompositionResult:
    """Decompose a positive-determinant matrix into at most 35 coupling
    matrices, recording per-stage consumption (the growth of the layer
    list, so the counts sum to the matrix count) and the reconstruction
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
    p_tilde = as_matrix(perm_seq)

    remainder = t @ p_tilde.T
    layers = list(perm_seq.layers)
    stage_log = [("permutation", len(layers))]
    if relative_frobenius(remainder, np.eye(n)) <= 1e-12:
        stage_log += [("upper", 0), ("lower", 0)]
    else:
        # p_tilde is the permutation matrix of pi_right up to the sign of
        # each nonzero entry; t = L U P = L (U S) p_tilde with S = diag(signs)
        signs = np.empty(n)
        signs[pi_right] = p_tilde[pi_right, np.arange(n)]
        u2 = u_mid * signs
        if float(np.prod(np.sign(np.diag(l_left)))) < 0.0:
            l_left[:, 0] = -l_left[:, 0]
            u2[0, :] = -u2[0, :]

        lower_seq, _ = triangular_layers(l_left, side=LOWER)
        upper_seq, _ = triangular_layers(u2, side=UPPER)
        # apply order: permutation, then upper factor, then lower factor
        stage_log += [("upper", _extend(layers, upper_seq.layers)),
                      ("lower", _extend(layers, lower_seq.layers))]
    seq = sequence(layers, ambient_dim=n)

    residual = relative_frobenius(as_matrix(seq), t)
    if residual > RESIDUAL_WARN_RTOL:
        warnings.append(f"relative residual {residual:.3g} exceeds {RESIDUAL_WARN_RTOL:g}: "
                        "the layers reproduce the target only approximately")
    result = DecompositionResult(layers=seq, residual=float(residual), stage_log=stage_log,
                                 warnings=warnings)
    assert result.matrix_count <= TOTAL_BUDGET
    return result

