"""Cyclic Jacobi eigensolver for the small symmetric matrices used here (<= 6x6).

The lemma checks take every eigenvalue with jacobi_eigvals, on stacks;
jacobi_eigh, its one-matrix form, and spectral_norm are what perfbench binds.
vector_norm is the Euclidean norm the lemma modules take of a real vector.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-13
MAX_SWEEPS = 60


def _rotate_rows(m: list, i: int, j: int, c: float, s: float) -> None:
    """Rows i, j of the list of rows m <- (c r_i - s r_j, s r_i + c r_j)."""
    x, y = m[i], m[j]
    m[i] = [c * xk - s * yk for xk, yk in zip(x, y)]
    m[j] = [s * xk + c * yk for xk, yk in zip(x, y)]


def _off_norm(m: list) -> float:
    """Frobenius norm of the off-diagonal entries of the list of rows m, summed
    row by row in column order.  A direct sum: sqrt(|A|_F^2 - sum a_ii^2)
    cancels below about sqrt(eps) |A|_F."""
    return math.sqrt(sum(x * x for i, r in enumerate(m) for k, x in enumerate(r) if k != i))


def jacobi_eigh(a: np.ndarray):
    """Eigen-decomposition of a real symmetric matrix by cyclic Jacobi rotations.

    Sweeps, at most MAX_SWEEPS times, until the off-diagonal Frobenius norm is
    <= TOL * ||a||_F.  Returns (w, V) with w ascending and V's columns the
    matching eigenvectors.
    Raises FloatingPointError on a non-finite entry or Frobenius norm (entries
    above about 1e154), and ValueError when a is not square or not symmetric
    to within 1e-12 * max(1, max |a_ij|).

    The checks, the symmetrisation and the rotations run on Python floats:
    numpy's fixed cost per call and per slice would dominate at these sizes.
    Each rotation updates columns i, j, then rows i, j, then V's columns
    i, j, element by element in IEEE double, as the textbook method (Golub &
    Van Loan, Matrix Computations, 8.5) does on arrays.  The stop test sums
    the squared off-diagonal entries directly, on the same floats; numpy
    takes the Frobenius norm of `a` once.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    rows = A.tolist()
    n = len(rows)
    entries = [x for r in rows for x in r]
    if not all(map(math.isfinite, entries)):
        raise FloatingPointError("matrix has a non-finite entry")
    amax = max(map(abs, entries))
    asym = max((abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(i)), default=0.0)
    if not asym <= 1e-12 * max(1.0, amax):
        raise ValueError("matrix is not symmetric")
    rows = [[0.5 * (x + y) for x, y in zip(r, c)] for r, c in zip(rows, zip(*rows))]
    norm = np.linalg.norm(rows)
    if not math.isfinite(norm):
        raise FloatingPointError("matrix norm overflows")
    target = TOL * norm  # a zero or 1x1 matrix meets it before any rotation
    # V's columns, so a rotation of V is one of rows
    vcols = [[float(i == k) for k in range(n)] for i in range(n)]
    for _ in range(MAX_SWEEPS):
        if _off_norm(rows) <= target:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = rows[i][j]
                diff = rows[j][j] - rows[i][i]
                if abs(aij) <= 1e-300 or abs(aij) < 1e-200 * abs(diff):
                    rows[i][j] = rows[j][i] = 0.0  # rotation would underflow; off-diag negligible
                    continue
                theta = diff / (2.0 * aij)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e100:  # theta^2 would overflow; t ~ 1/(2 theta)
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for r in rows:  # columns i, j
                    x, y = r[i], r[j]
                    r[i] = c * x - s * y
                    r[j] = s * x + c * y
                _rotate_rows(rows, i, j, c, s)
                rows[i][j] = rows[j][i] = 0.0
                _rotate_rows(vcols, i, j, c, s)
    order = sorted(range(n), key=lambda k: rows[k][k])
    return np.array([rows[k][k] for k in order]), np.array([vcols[k] for k in order]).T


def vector_norm(v: np.ndarray):
    """|v| of a real float vector: sqrt(v.v), which is what np.linalg.norm
    computes for it, bit for bit, without its dispatch."""
    return np.sqrt(v.dot(v))


def jacobi_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of real symmetric matrices, a[S, n, n] -> w[S, n],
    each row ascending and equal bit for bit to jacobi_eigh(a[k])[0].

    It runs jacobi_eigh's checks, rotations and branches on vectors of S
    entries, one vector per matrix entry.  Each matrix stops on its own mask:
    np.where keeps the entries of a finished matrix, and of one whose
    rotation jacobi_eigh would skip, through the rotations of the others.
    The off-diagonal norm is summed in jacobi_eigh's row-major order, and
    |a_k|_F is vector_norm of each matrix's n^2 entries on its own, as
    np.linalg.norm takes it in jacobi_eigh, because a stacked norm sums in
    another order than that BLAS dot.
    This sweep accumulates no eigenvectors.

    Raises jacobi_eigh's errors when any member would raise them: ValueError
    for input that is not (S, n, n) with n >= 1 or for an asymmetric member,
    FloatingPointError for a non-finite entry or Frobenius norm; the
    non-finite entry is reported before an asymmetric one.  An empty stack
    (S = 0) returns an empty (0, n) array.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2] or A.shape[1] == 0:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    stack, n = A.shape[0], A.shape[1]
    if stack == 0:
        return np.empty((0, n))
    if not np.isfinite(A).all():
        raise FloatingPointError("matrix has a non-finite entry")
    AT = A.transpose(0, 2, 1)
    amax = np.abs(A).max(axis=(1, 2))
    asym = np.abs(A - AT).max(axis=(1, 2))
    if not (asym <= 1e-12 * np.maximum(1.0, amax)).all():
        raise ValueError("matrix is not symmetric")
    A = 0.5 * (A + AT)
    norm = np.array([vector_norm(m) for m in A.reshape(stack, n * n)])
    if not np.isfinite(norm).all():
        raise FloatingPointError("matrix norm overflows")
    target = TOL * norm
    # entry (i, j) of every matrix as one contiguous vector T[i, j]
    T = np.ascontiguousarray(A.transpose(1, 2, 0))
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
                    t = np.where(np.abs(theta) > 1e100, 0.5 / theta, t)
                    t = np.where(theta == 0.0, 1.0, t)
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    x, y = T[:, i], T[:, j]  # columns i, j
                    T[:, i], T[:, j] = (np.where(rotate, c * x - s * y, x),
                                        np.where(rotate, s * x + c * y, y))
                    x, y = T[i], T[j]  # rows i, j
                    T[i], T[j] = (np.where(rotate, c * x - s * y, x),
                                  np.where(rotate, s * x + c * y, y))
                    # only the diagonal of a finished matrix is read again
                    T[i, j] = T[j, i] = 0.0
    return np.sort(np.diagonal(T), axis=1, kind="stable")


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    w, _ = jacobi_eigh(a)
    return float(np.abs(w).max())
