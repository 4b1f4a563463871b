"""Cyclic Jacobi eigensolver for the small symmetric matrices used here (<= 6x6).

One sweep, _jacobi, rotates a whole stack of matrices at once; it is bit for
bit the numpy-slice kernel kept in tests/jacobi_reference.py.  The lemma
checks take every eigenvalue with jacobi_eigvals, and every norm with
spectral_norms, on stacks; jacobi_eigh and spectral_norm, their one-matrix
calls, are what perfbench binds.
vector_norm is the Euclidean norm the lemma modules take of a real vector,
and row_dots the dot product of each row of a stack, whose square root is
vector_norm of that row.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-13
MAX_SWEEPS = 60


def vector_norm(v: np.ndarray):
    """|v| of a real float vector: sqrt(v.v), which is what np.linalg.norm
    computes for it, bit for bit, without its dispatch."""
    return np.sqrt(v.dot(v))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k].b[k] of each row k of the stacks a[S, n] and b[S, n], each by
    one stacked matmul of a 1 x n by an n x 1 matrix: bit for bit the dot
    product vector_norm takes, also where rows end in zero padding."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _jacobi(A: np.ndarray, vectors: bool):
    """Cyclic Jacobi on a stack A[S, n, n] of shape-checked matrices: w[S, n],
    each row ascending, and with `vectors` also V[S, n, n], whose columns are
    the matching eigenvectors.

    Each matrix sweeps, at most MAX_SWEEPS times, until its off-diagonal
    Frobenius norm is <= TOL * |a_k|_F.  The checks, rotations and branches
    of the textbook method (Golub & Van Loan, Matrix Computations, 8.5) run on
    vectors of S entries, one vector per matrix entry, and each matrix stops
    on its own mask: np.where keeps the entries of a finished matrix, and of
    one whose rotation would underflow, through the rotations of the others.
    The off-diagonal norm is summed directly, in row-major order, because
    sqrt(|A|_F^2 - sum a_ii^2) cancels below about sqrt(eps) |A|_F; |a_k|_F
    is the square root of row_dots of each matrix's n^2 entries, bit for bit
    their vector_norm, because a stacked norm sums in another order than
    that BLAS dot.  The eigenvalue path
    leaves `vectors` off and pays for no V.
    """
    stack, n = A.shape[0], A.shape[1]
    if not np.isfinite(A).all():
        raise FloatingPointError("matrix has a non-finite entry")
    AT = A.transpose(0, 2, 1)
    amax = np.abs(A).max(axis=(1, 2))
    asym = np.abs(A - AT).max(axis=(1, 2))
    if not (asym <= 1e-12 * np.maximum(1.0, amax)).all():
        raise ValueError("matrix is not symmetric")
    A = 0.5 * (A + AT)
    flat = A.reshape(stack, n * n)
    norm = np.sqrt(row_dots(flat, flat))
    if not np.isfinite(norm).all():
        raise FloatingPointError("matrix norm overflows")
    target = TOL * norm  # a zero or 1x1 matrix meets it before any rotation
    # entry (i, j) of every matrix as one contiguous vector T[i, j]
    T = np.ascontiguousarray(A.transpose(1, 2, 0))
    # V[i] holds column i of every matrix's V, so a rotation of V is one of rows
    V = np.repeat(np.eye(n)[:, :, None], stack, axis=2) if vectors else None
    off_diagonal = [(i, k) for i in range(n) for k in range(n) if k != i]
    active = np.ones(stack, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_SWEEPS):
            off = np.zeros(stack)
            for i, k in off_diagonal:
                off = off + T[i, k] * T[i, k]
            active &= ~(np.sqrt(off) <= target)
            if not active.any():
                break
            for i in range(n - 1):
                for j in range(i + 1, n):
                    aij = T[i, j]
                    diff = T[j, j] - T[i, i]
                    tiny = (np.abs(aij) <= 1e-300) | (np.abs(aij) < 1e-200 * np.abs(diff))
                    rotate = active & ~tiny
                    # the garbage computed for matrices that do not rotate is discarded
                    theta = diff / (2.0 * aij)
                    t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                    t = np.where(np.abs(theta) > 1e100, 0.5 / theta, t)  # theta^2 overflows
                    t = np.where(theta == 0.0, 1.0, t)
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    x, y = T[:, i], T[:, j]  # columns i, j
                    T[:, i], T[:, j] = (np.where(rotate, c * x - s * y, x),
                                        np.where(rotate, s * x + c * y, y))
                    for M in (T, V) if vectors else (T,):  # rows i, j
                        x, y = M[i], M[j]
                        M[i], M[j] = (np.where(rotate, c * x - s * y, x),
                                      np.where(rotate, s * x + c * y, y))
                    # only the diagonal of a finished matrix is read again
                    T[i, j] = T[j, i] = 0.0
    d = np.diagonal(T)
    order = np.argsort(d, axis=1, kind="stable")
    w = np.take_along_axis(d, order, axis=1)
    if not vectors:
        return w
    # V.transpose(2, 1, 0)[k] is matrix k's V; its columns follow w
    return w, np.take_along_axis(V.transpose(2, 1, 0), order[:, None, :], axis=2)


def jacobi_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of real symmetric matrices, a[S, n, n] -> w[S, n],
    each row ascending and equal bit for bit to tests/jacobi_reference.py's
    eigenvalues of a[k], whatever stack a[k] is in.  It accumulates no
    eigenvectors.

    Raises, when any member would: ValueError for input that is not
    (S, n, n) with n >= 1 or for an asymmetric member, FloatingPointError for
    a non-finite entry or Frobenius norm (entries above about 1e154); the
    non-finite entry is reported before an asymmetric one.  An empty stack
    (S = 0) returns an empty (0, n) array.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2] or A.shape[1] == 0:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    return _jacobi(A, vectors=False)


def _matrix(a: np.ndarray) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def jacobi_eigh(a: np.ndarray):
    """Eigen-decomposition of one real symmetric n x n matrix, n >= 1: (w, V)
    with w ascending and V's columns the matching eigenvectors, as a
    one-matrix stack of the sweep behind jacobi_eigvals.  Raises
    jacobi_eigvals' errors, with ValueError for a matrix that is not square.
    """
    w, V = _jacobi(_matrix(a)[None], vectors=True)
    return w[0], V[0]


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """The largest absolute eigenvalue of each symmetric matrix of the stack a."""
    return np.abs(jacobi_eigvals(a)).max(axis=1)


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of one symmetric matrix."""
    return float(spectral_norms(_matrix(a)[None])[0])
