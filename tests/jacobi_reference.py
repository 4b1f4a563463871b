"""Reference eigensolver for cross-checks: cyclic Jacobi on numpy row and column slices.

One matrix at a time, it makes the floating-point operations of the stacked
sweep in `pseudoplap.eig` in the same order, so `eig.jacobi_eigh` and every
member of an `eig.jacobi_eigvals` stack must agree with it bit for bit.  Its stop
test is the kernel's: the off-diagonal norm is summed directly, entry by
entry in row-major order, not taken as sqrt(|A|_F^2 - sum a_ii^2), which
cancels below about sqrt(eps) |A|_F.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_eigh(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60):
    A = np.array(a, dtype=float, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    V = np.eye(n)
    norm = np.linalg.norm(A)
    if norm == 0.0 or n == 1:
        w = np.diag(A).copy()
        order = np.argsort(w, kind="stable")
        return w[order], V[:, order]
    target = tol * norm
    for _ in range(max_sweeps):
        off = math.sqrt(sum(float(A[i, k]) * float(A[i, k])
                            for i in range(n) for k in range(n) if k != i))
        if off <= target:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = A[i, j]
                diff = A[j, j] - A[i, i]
                if abs(aij) <= 1e-300 or abs(aij) < 1e-200 * abs(diff):
                    A[i, j] = A[j, i] = 0.0  # rotation would underflow; off-diag negligible
                    continue
                theta = diff / (2.0 * aij)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e100:  # theta^2 would overflow; t ~ 1/(2 theta)
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_i = c * A[:, i] - s * A[:, j]
                rot_j = s * A[:, i] + c * A[:, j]
                A[:, i], A[:, j] = rot_i, rot_j
                rot_i = c * A[i, :] - s * A[j, :]
                rot_j = s * A[i, :] + c * A[j, :]
                A[i, :], A[j, :] = rot_i, rot_j
                A[i, j] = A[j, i] = 0.0
                rot_i = c * V[:, i] - s * V[:, j]
                rot_j = s * V[:, i] + c * V[:, j]
                V[:, i], V[:, j] = rot_i, rot_j
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]

