"""Plain-numpy oracles shared by the input generator and the checker.

Nothing here imports matconv: these are the independent computations the
benchmark trusts instead of the package under test.
"""

from __future__ import annotations

import numpy as np


def herm_stack(mats):
    A = np.asarray(mats, dtype=complex)
    return (A + np.conj(np.swapaxes(A, -1, -2))) / 2.0


def opnorm(M):
    """Operator norm of one Hermitian matrix."""
    w = np.linalg.eigvalsh(herm_stack(M))
    return float(max(abs(w[0]), abs(w[-1])))


def frob_stack(A):
    """Frobenius norms of a stack of matrices, an upper bound on each
    operator norm."""
    return np.sqrt(np.sum(np.abs(A) ** 2, axis=(-2, -1)))


def combos(coeffs, X):
    """All linear combinations ``sum_j coeffs[f, j] X_j`` as one
    (F, n, n) array."""
    return np.tensordot(np.asarray(coeffs, dtype=float),
                        np.asarray(X, dtype=complex), axes=(1, 0))


def combo_max_eigs(coeffs, X):
    """Largest eigenvalue of every combination, from one batched
    ``eigvalsh``."""
    return np.linalg.eigvalsh(herm_stack(combos(coeffs, X)))[:, -1]


def signed_sum_max_eig(X, signs):
    return float(np.max(combo_max_eigs(signs, X)))
