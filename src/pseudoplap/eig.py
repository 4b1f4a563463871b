"""Cyclic Jacobi eigensolver for the small symmetric matrices used here (<= 6x6)."""

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


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    w, _ = jacobi_eigh(a)
    return float(np.abs(w).max())
