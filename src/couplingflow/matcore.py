"""Dense numeric kernels.

Matrices are plain float64 numpy arrays, row-major, finite entries.
Permutations are int arrays ``p`` of length n with ``p[i] = image of i``,
i.e. the matrix ``P`` with ``P[p[i], i] = 1`` sends basis vector ``e_i``
to ``e_p[i]``.

Everything here is a pure function; no state is shared between calls.
The LU factorization, eigenvalues, triangular eigenvectors and singular
values run in LAPACK (getrf, geev, gesdd) and the triangular solves in
BLAS (trsm). A triangular kernel reads from its matrix whether it is lower
or upper triangular and refuses one that is neither.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from couplingflow.errors import EigFailedError, EigGapTooSmallError, SingularMatrixError

SINGULAR_RTOL = 1e-12  # pivot threshold relative to max |entry|


def as_matrix_array(a) -> np.ndarray:
    """Validate and return ``a`` as a finite float64 2-D array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


# ---------------------------------------------------------------------------
# permutations


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


def solve(a, b) -> np.ndarray:
    """Solve a @ x = b for a vector or a matrix of right-hand sides: one LUP
    factorization, then two triangular solves."""
    f = lup(a)
    pb = np.asarray(b, dtype=np.float64)[f.perm]
    return _trsm(f.upper, _trsm(f.lower, pb, lower=True, unit_diagonal=True), lower=False)


def inv(a) -> np.ndarray:
    n = as_matrix_array(a).shape[0]
    return solve(a, np.eye(n))


def is_lower_triangular(a) -> bool:
    """True for a lower-triangular (or diagonal) matrix, False for an
    upper-triangular one; ValueError for any other."""
    if not np.any(np.triu(a, 1)):
        return True
    if not np.any(np.tril(a, -1)):
        return False
    raise ValueError("matrix is neither lower nor upper triangular")


def triangular_solve(t, b) -> np.ndarray:
    """Solve t @ x = b for a lower or upper triangular t, whichever t is.
    Raises SingularMatrixError when a diagonal entry falls below
    SINGULAR_RTOL * max|t|."""
    t = as_matrix_array(t)
    lower = is_lower_triangular(t)
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


def triangular_inverse(t) -> np.ndarray:
    """Inverse of a lower or upper triangular matrix (see triangular_solve)."""
    t = as_matrix_array(t)
    return triangular_solve(t, np.eye(t.shape[0]))


# ---------------------------------------------------------------------------
# eigenvalues


def eig(a) -> np.ndarray:
    """Eigenvalues of a real square matrix, as a complex array sorted by
    (real, imag).

    Backed by LAPACK's Hessenberg-reduction + shifted-QR driver (geev),
    which returns each complex conjugate pair exactly: equal real parts and
    negated imaginary parts, bit for bit.
    """
    a = as_matrix_array(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eig requires a square matrix")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigFailedError(str(exc)) from exc
    return vals[np.lexsort((vals.imag, vals.real))]


def spectral_radius(spectrum: np.ndarray) -> float:
    return float(np.max(np.abs(spectrum))) if len(spectrum) else 0.0


def triangular_eigvecs(a, min_gap: float = 1e-8) -> np.ndarray:
    """Eigenvector matrix of a lower or upper triangular matrix whose
    diagonal entries are pairwise at least ``min_gap`` apart.

    Returns V with unit-norm columns in ascending order of the diagonal,
    a @ V = V @ diag(sorted diagonal), from one LAPACK geev call.
    """
    a = as_matrix_array(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    is_lower_triangular(a)  # refuses a full matrix
    gaps = np.diff(np.sort(np.diag(a)))
    if gaps.size and np.min(gaps) < min_gap:
        raise EigGapTooSmallError(f"diagonal gap {np.min(gaps):g} below {min_gap:g}")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigFailedError(str(exc)) from exc
    return vecs[:, np.argsort(vals)]


# ---------------------------------------------------------------------------
# singular values


def svd_small(a) -> np.ndarray:
    """Singular values of a matrix, or of each member of a stack
    (..., m, n), descending along the last axis, from LAPACK (gesdd) in one
    call."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.svd(a, compute_uv=False)


def condition_number(a):
    """sigma_max / sigma_min from svd_small: a float for one matrix, an
    array for a stack. +inf only when sigma_min is exactly 0 (the all-zero
    matrix, for one). A rank-deficient nonzero matrix usually gets a
    rounding-level sigma_min, about 1e-17 relative, and so a finite
    condition number near 1e16 or above."""
    sv = svd_small(a)
    smax, smin = sv[..., 0], sv[..., -1]
    cond = np.divide(smax, smin, out=np.full_like(smax, np.inf), where=smin != 0.0)
    return float(cond) if cond.ndim == 0 else cond


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
    if min(rows, cols) < 1:
        raise ValueError(f"dimensions {rows} x {cols} are not positive")
    vals = np.array([float(t) for t in tokens[3:]])
    if len(vals) != rows * cols:
        raise ValueError(f"expected {rows * cols} values, got {len(vals)}")
    if not np.isfinite(vals).all():
        raise ValueError("matrix has non-finite entries")
    return vals.reshape(rows, cols)
