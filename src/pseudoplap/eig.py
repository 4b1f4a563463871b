"""Eigenvalues of the small real symmetric matrices used here, from LAPACK.

_eig checks a stack of matrices and hands it to numpy.linalg's symmetric
solver (eigvalsh, or eigh with eigenvectors), which is backward stable: each
computed eigenvalue is within about n eps |A|_2 of an exact one (Anderson et
al., LAPACK Users' Guide, 3rd ed., 4.7; Golub & Van Loan, Matrix
Computations, 8.4).  numpy solves each member of a stack on its own, so a
matrix's eigenvalues do not depend on the stack it is in.  The cyclic
Jacobi kernel in tests/jacobi_reference.py is the tests' independent oracle.
The lemma checks take every eigenvalue with jacobi_eigvals, and every norm
with spectral_norms, on stacks; jacobi_eigh and spectral_norm, their
one-matrix calls, are what perfbench binds.  The jacobi_ names are kept
for those callers.
vector_norm is the Euclidean norm the lemma modules take of a real vector,
and row_dots the dot product of each row of a stack, whose square root is
vector_norm of that row.
"""

from __future__ import annotations

import numpy as np


def vector_norm(v: np.ndarray):
    """|v| of a real float vector: sqrt(v.v), which is what np.linalg.norm
    computes for it, bit for bit, without its dispatch."""
    return np.sqrt(v.dot(v))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k].b[k] of each row k of the stacks a[S, n] and b[S, n], each by
    one stacked matmul of a 1 x n by an n x 1 matrix: bit for bit the dot
    product vector_norm takes, also where rows end in zero padding."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _eig(A: np.ndarray, vectors: bool):
    """The spectra of a stack A[S, n, n] of shape-checked matrices: w[S, n],
    each row ascending, and with `vectors` also V[S, n, n], whose columns are
    the matching eigenvectors.  Each matrix is checked, then symmetrised as
    (A + A^T) / 2, before LAPACK sees it."""
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
    if not np.isfinite(row_dots(flat, flat)).all():
        raise FloatingPointError("matrix norm overflows")
    return np.linalg.eigh(A) if vectors else np.linalg.eigvalsh(A)


def jacobi_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of real symmetric matrices, a[S, n, n] -> w[S, n],
    each row ascending and the same bit for bit whatever stack a[k] is in.
    It computes no eigenvectors.

    Raises, when any member would: ValueError for input that is not
    (S, n, n) with n >= 1 or for an asymmetric member, FloatingPointError for
    a non-finite entry or Frobenius norm (entries above about 1e154); the
    non-finite entry is reported before an asymmetric one.  An empty stack
    (S = 0) returns an empty (0, n) array.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2] or A.shape[1] == 0:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    return _eig(A, vectors=False)


def _matrix(a: np.ndarray) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def jacobi_eigh(a: np.ndarray):
    """Eigen-decomposition of one real symmetric n x n matrix, n >= 1: (w, V)
    with w ascending and V's columns the matching orthonormal eigenvectors.
    Raises jacobi_eigvals' errors, with ValueError for a matrix that is not
    square.
    """
    w, V = _eig(_matrix(a)[None], vectors=True)
    return w[0], V[0]


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """The largest absolute eigenvalue of each symmetric matrix of the stack a."""
    return np.abs(jacobi_eigvals(a)).max(axis=1)


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of one symmetric matrix."""
    return float(spectral_norms(_matrix(a)[None])[0])
