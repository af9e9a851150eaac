"""Dense numeric kernels.

Matrices are plain float64 numpy arrays, row-major, finite entries.
Permutations are int arrays ``p`` of length n with ``p[i] = image of i``,
i.e. the matrix ``P`` with ``P[p[i], i] = 1`` sends basis vector ``e_i``
to ``e_p[i]``.

Everything here is a pure function; no state is shared between calls.
The LU factorization runs in LAPACK (getrf) and the triangular solves in
BLAS (trsm).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from couplingflow.errors import EigFailedError, EigGapTooSmallError, SingularMatrixError

SINGULAR_RTOL = 1e-12  # pivot threshold relative to max |entry|
EIG_MAX_DIM = 256
SVD_MAX_DIM = 64


def as_matrix_array(a) -> np.ndarray:
    """Validate and return ``a`` as a finite float64 2-D array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    a = as_matrix_array(a)
    b = as_matrix_array(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


# ---------------------------------------------------------------------------
# permutations


def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def check_permutation(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    n = p.shape[0]
    if p.ndim != 1 or np.any(np.sort(p) != np.arange(n)):
        raise ValueError("not a bijection on {0..n-1}")
    return p


def permutation_to_matrix(p) -> np.ndarray:
    """Matrix P with P @ e_i = e_p[i]."""
    p = check_permutation(p)
    n = p.shape[0]
    m = np.zeros((n, n))
    m[p, np.arange(n)] = 1.0
    return m


def compose_permutations(p, q) -> np.ndarray:
    """Composition p after q: (p o q)[i] = p[q[i]]."""
    return np.asarray(p, dtype=np.int64)[np.asarray(q, dtype=np.int64)]


def invert_permutation(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.shape[0])
    return inv


def permutation_sign(p) -> int:
    """Sign of the permutation via cycle parity."""
    p = np.asarray(p, dtype=np.int64)
    seen = np.zeros(p.shape[0], dtype=bool)
    sign = 1
    for start in range(p.shape[0]):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permutation_cycles(p) -> list:
    """Cycles of length >= 2, each as a list [e, p[e], p[p[e]], ...]."""
    p = np.asarray(p, dtype=np.int64)
    seen = np.zeros(p.shape[0], dtype=bool)
    cycles = []
    for start in range(p.shape[0]):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(int(j))
            j = p[j]
        cycles.append(cyc)
    return cycles


# ---------------------------------------------------------------------------
# LUP factorization


@dataclass(frozen=True)
class LupFactors:
    """Row-pivoted factorization A[perm] = lower @ upper.

    ``lower`` is unit lower triangular, ``upper`` upper triangular, and
    ``perm`` the row permutation (row i of lower@upper is row perm[i] of A).
    ``parity`` is the sign of ``perm``.
    """

    lower: np.ndarray
    upper: np.ndarray
    perm: np.ndarray
    parity: int


def lup(a) -> LupFactors:
    """LU factorization with partial pivoting on the max-abs pivot (getrf).

    Raises SingularMatrixError when a pivot falls below
    SINGULAR_RTOL * max|a|. getrf runs past tiny and zero pivots, so every
    pivot is checked here.
    """
    a = as_matrix_array(a)
    n, m = a.shape
    if n != m:
        raise ValueError("lup requires a square matrix")
    if n == 0:  # getrf rejects an empty matrix
        return LupFactors(lower=np.eye(0), upper=np.eye(0), perm=np.arange(0), parity=1)
    tol = SINGULAR_RTOL * np.max(np.abs(a))
    lu, piv, _ = lapack.dgetrf(a)
    bad = np.flatnonzero(~(np.abs(np.diag(lu)) > tol))  # a NaN pivot is singular too
    if bad.size:
        raise SingularMatrixError(f"pivot {bad[0]} below tolerance {tol:g}")
    # getrf reports row interchanges: row k was swapped with row piv[k]
    perm = list(range(n))
    for k, p in enumerate(piv.tolist()):
        perm[k], perm[p] = perm[p], perm[k]
    parity = -1 if np.count_nonzero(piv != np.arange(n)) % 2 else 1
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    return LupFactors(lower=lower, upper=upper, perm=np.array(perm), parity=parity)


def det(a) -> float:
    """Determinant via LUP (0.0 when singular to tolerance)."""
    try:
        f = lup(a)
    except SingularMatrixError:
        return 0.0
    return float(f.parity * np.prod(np.diag(f.upper)))


def slogdet(a):
    """(sign, log|det|) via LUP; sign 0 for a singular-to-tolerance input."""
    try:
        f = lup(a)
    except SingularMatrixError:
        return 0, -np.inf
    d = np.diag(f.upper)
    sign = f.parity * int(np.prod(np.sign(d)))
    return sign, float(np.sum(np.log(np.abs(d))))


def solve(a, b) -> np.ndarray:
    """Solve a @ x = b for a vector or a matrix of right-hand sides: one LUP
    factorization, then two triangular solves."""
    f = lup(a)
    pb = np.asarray(b, dtype=np.float64)[f.perm]
    return _trsm(f.upper, _trsm(f.lower, pb, lower=True, unit_diagonal=True), lower=False)


def inv(a) -> np.ndarray:
    n = as_matrix_array(a).shape[0]
    return solve(a, np.eye(n))


def triangular_solve(t, b, lower: bool = True) -> np.ndarray:
    """Solve t @ x = b for triangular t; only the ``lower`` (or upper)
    triangle of t is read. Raises SingularMatrixError when a diagonal entry
    falls below SINGULAR_RTOL * max|t|."""
    t = as_matrix_array(t)
    if np.any(np.abs(np.diag(t)) <= SINGULAR_RTOL * np.max(np.abs(t), initial=0.0)):
        raise SingularMatrixError("triangular matrix singular to tolerance")
    return _trsm(t, np.asarray(b, dtype=np.float64), lower=lower)


def _trsm(t, b, lower: bool, unit_diagonal: bool = False) -> np.ndarray:
    """t^{-1} b for a vector or matrix b; the caller has checked the diagonal.

    trtrs runs this same trsm after its zero-pivot check. OpenBLAS threads
    trtrs even on small systems, which made it 10x slower than trsm on
    16 x 16 blocks on a 2-core machine, so trsm is called directly.
    """
    x = blas.dtrsm(1.0, t, b[:, None] if b.ndim == 1 else b, lower=int(lower),
                   diag=int(unit_diagonal))
    return x.reshape(b.shape)


def triangular_inverse(t, lower: bool = True) -> np.ndarray:
    """Inverse of a triangular matrix (see triangular_solve)."""
    t = as_matrix_array(t)
    return triangular_solve(t, np.eye(t.shape[0]), lower=lower)


# ---------------------------------------------------------------------------
# eigenvalues


def eig(a) -> np.ndarray:
    """Eigenvalues of a real square matrix, as a complex array sorted by
    (real, imag).

    Backed by LAPACK's Hessenberg-reduction + shifted-QR driver. Conjugate
    pairing of complex eigenvalues is enforced on output.
    """
    a = as_matrix_array(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("eig requires a square matrix")
    if n > EIG_MAX_DIM:
        raise ValueError(f"eig supports n <= {EIG_MAX_DIM}")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigFailedError(str(exc)) from exc
    # pair conjugates exactly: sort, then average imaginary magnitudes
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    out = vals.copy()
    used = np.zeros(n, dtype=bool)
    for i in range(n):
        if used[i] or abs(vals[i].imag) == 0.0:
            continue
        # nearest unused conjugate partner
        best, best_d = -1, np.inf
        for j in range(n):
            if j == i or used[j]:
                continue
            d = abs(vals[j] - vals[i].conjugate())
            if d < best_d:
                best, best_d = j, d
        if best >= 0:
            re = 0.5 * (vals[i].real + vals[best].real)
            im = 0.5 * (abs(vals[i].imag) + abs(vals[best].imag))
            s = 1.0 if vals[i].imag > 0 else -1.0
            out[i] = complex(re, s * im)
            out[best] = complex(re, -s * im)
            used[i] = used[best] = True
    order = np.lexsort((out.imag, out.real))
    return out[order]


def spectral_radius(spectrum: np.ndarray) -> float:
    return float(np.max(np.abs(spectrum))) if len(spectrum) else 0.0


def triangular_eigvecs(a, min_gap: float = 1e-8, upper: bool = False) -> np.ndarray:
    """Eigenvector matrix of a triangular matrix with separated diagonal.

    For lower-triangular ``a`` with diagonal entries pairwise at least
    ``min_gap`` apart, returns V with unit diagonal such that
    a @ V = V @ diag(a_00, ..., a_nn), computed column by column with one
    triangular solve of (a - a_ii I) v = 0 per column.

    ``upper=True`` accepts an upper-triangular input (handled by index
    reversal, which turns it lower-triangular).
    """
    a = as_matrix_array(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if upper:
        rev = np.arange(n - 1, -1, -1)
        v = triangular_eigvecs(a[np.ix_(rev, rev)], min_gap=min_gap)
        return v[np.ix_(rev, rev)]
    if np.max(np.abs(np.triu(a, 1))) > 0:
        raise ValueError("matrix is not lower triangular")
    d = np.diag(a)
    if n > 1:
        diffs = np.abs(d[:, None] - d[None, :])
        np.fill_diagonal(diffs, np.inf)
        gap = float(np.min(diffs))
        if gap < min_gap:
            raise EigGapTooSmallError(f"diagonal gap {gap:g} below {min_gap:g}")
    v = np.eye(n)
    for i in range(n - 1):
        # rows below i of (a - d_i I) v = 0 with v_i = 1; the shifted
        # diagonal d_j - d_i is at least the checked gap away from zero
        shifted = a[i + 1 :, i + 1 :] - d[i] * np.eye(n - i - 1)
        v[i + 1 :, i] = _trsm(shifted, -a[i + 1 :, i], lower=True)
    return v


# ---------------------------------------------------------------------------
# singular values


def svd_small(a) -> np.ndarray:
    """Singular values of a small matrix, descending, via one-sided Jacobi.

    Columns of a working copy are rotated pairwise until the Gram matrix is
    diagonal to relative tolerance; singular values are the column norms.
    """
    a = as_matrix_array(a)
    if max(a.shape) > SVD_MAX_DIM:
        raise ValueError(f"svd_small supports n <= {SVD_MAX_DIM}")
    if a.shape[0] < a.shape[1]:
        a = a.T
    w = a.copy()
    n = w.shape[1]
    tol = 1e-15
    for _ in range(60):  # sweeps; converges much earlier in practice
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha = w[:, i] @ w[:, i]
                beta = w[:, j] @ w[:, j]
                gamma = w[:, i] @ w[:, j]
                if abs(gamma) <= tol * np.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                off = max(off, abs(gamma))
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                wi = w[:, i].copy()
                w[:, i] = c * wi - s * w[:, j]
                w[:, j] = s * wi + c * w[:, j]
        if off == 0.0:
            break
    sv = np.sqrt(np.sum(w * w, axis=0))
    return np.sort(sv)[::-1]


def condition_number(a) -> float:
    """sigma_max / sigma_min from svd_small; +inf when the matrix is rank
    deficient (including the all-zero matrix)."""
    sv = svd_small(a)
    if sv[-1] == 0.0:
        return np.inf
    return float(sv[0] / sv[-1])


# ---------------------------------------------------------------------------
# MAT1 text format


def write_mat1(path, a) -> None:
    """Write a matrix as `MAT1 <rows> <cols>` + row-major decimal values."""
    a = as_matrix_array(a)
    lines = [f"MAT1 {a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mat1(path) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3 or tokens[0] != "MAT1":
        raise ValueError("not a MAT1 file")
    rows, cols = int(tokens[1]), int(tokens[2])
    vals = [float(t) for t in tokens[3:]]
    if len(vals) != rows * cols:
        raise ValueError(f"expected {rows * cols} values, got {len(vals)}")
    return np.array(vals).reshape(rows, cols)
