"""Dense complex linear-algebra kernels shared by every other module.

Everything here operates on plain ``numpy`` arrays, and a d-tuple of n x n
matrices is one ``(d, n, n)`` stack, as ``sets.GenTuple.matrices`` holds it.
Hermitian matrices are always symmetrized on entry (``(M + M*)/2``) after a
tolerance check, so downstream eigensolves never see asymmetric garbage.
The kernels take whole stacks: :func:`lincomb` (linear combinations) and
:func:`kron_sum` (``sum_j A_j (x) B_j``) add terms in index order, bit for
bit the loops they replace, and :func:`sign_sums` builds the signed sums of
a range of sign vectors by doubling, equal to ``lincomb`` of their rows;
:func:`min_eig`, :func:`max_eig`, :func:`opnorm` (largest norm) and
:func:`opnorms` (each member's) make one LAPACK call per stack and route.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

HERMITICITY_TOL = 1e-12

# opnorm prunes by squared Frobenius norms only from this size up to overflow:
# outside that range the squares lose their relative precision.
_PRUNE_MIN = float(np.sqrt(np.finfo(float).tiny))


class NumKernelError(Exception):
    """Base error for this module."""


class NotHermitianError(NumKernelError):
    """Raised when a matrix fails the hermiticity tolerance."""


class EigenSolveError(NumKernelError):
    """Eigensolver did not converge; carries the residual diagnostic."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a complex matrix or stack of matrices (any leading axes),
    rejecting non-finite entries."""
    M = np.asarray(entries, dtype=complex)
    if M.ndim < 2:
        raise ValueError(f"expected a matrix, got array of ndim {M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def herm_deviation(M: np.ndarray) -> float:
    """Max-entry deviation of M (a matrix or a stack) from its adjoint."""
    if not M.size:
        return 0.0
    return float(np.max(np.abs(M - M.conj().swapaxes(-1, -2))))


def hermitize(M, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate hermiticity within ``tol`` (max-entry norm) and symmetrize.

    ``M`` is a matrix or a stack of matrices, such as a ``(d, n, n)``
    tuple; a stack is checked and symmetrized matrix by matrix.  With
    ``tol=np.inf`` only squareness and finiteness are checked.
    """
    M = as_cmatrix(M)
    if M.shape[-1] != M.shape[-2]:
        raise NotHermitianError(f"matrix is not square: shape {M.shape}")
    # An infinite (or NaN) tolerance admits every deviation: skip the pass.
    if tol < np.inf:
        dev = herm_deviation(M)
        if dev > tol:
            raise NotHermitianError(
                f"matrix deviates from Hermitian by {dev:.3e} "
                f"(tolerance {tol:.1e})")
    return (M + M.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and a unitary whose columns are eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        Q = self.eigenvectors
        return (Q * self.eigenvalues) @ Q.conj().T


def herm_eig(M, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Backed by LAPACK through ``numpy.linalg.eigh``; a convergence failure is
    reported as :class:`EigenSolveError` carrying the hermiticity residual.
    """
    H = hermitize(M, tol)
    try:
        w, Q = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenSolveError(f"eigensolver failed: {exc}",
                              residual=herm_deviation(M)) from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=Q)


def _eigvalsh(M, tol: float) -> np.ndarray:
    # Always complex, as ``hermitize`` casts: a real stack would go to
    # another LAPACK routine and could differ in the last digits.
    H = hermitize(M, tol)
    try:
        return np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenSolveError(f"eigensolver failed: {exc}") from exc


def min_eig(M, tol: float = HERMITICITY_TOL):
    """Smallest eigenvalue of a Hermitian matrix; for an ``(F, n, n)`` stack,
    an array of the F smallest eigenvalues, from one LAPACK call."""
    w = _eigvalsh(M, tol)
    return float(w[0]) if w.ndim == 1 else w[:, 0]


def max_eig(M, tol: float = HERMITICITY_TOL):
    """Largest eigenvalue of a Hermitian matrix; for an ``(F, n, n)`` stack,
    an array of the F largest eigenvalues, from one LAPACK call."""
    w = _eigvalsh(M, tol)
    return float(w[-1]) if w.ndim == 1 else w[:, -1]


def lincomb(coeffs, mats) -> np.ndarray:
    """Stack of linear combinations ``out[f] = sum_j coeffs[f, j] mats[j]``.

    ``coeffs`` is ``(F, d)`` and ``mats`` holds d matrices of one size.  The
    terms are added in index order onto a zero start, as Python's ``sum``
    over ``coeffs[f, j] * mats[j]`` adds them, so every slice is
    bit-identical to that loop.
    """
    coeffs = np.asarray(coeffs)
    mats = np.asarray(mats)
    if coeffs.ndim != 2 or coeffs.shape[1] != mats.shape[0]:
        raise ValueError(f"coefficients of shape {coeffs.shape} do not match "
                         f"{mats.shape[0]} matrices")
    out = np.zeros(coeffs.shape[:1] + mats.shape[1:],
                   dtype=np.result_type(coeffs, mats))
    for j in range(mats.shape[0]):
        out += coeffs[:, j, None, None] * mats[j]
    return out


def kron_sum(A, B) -> np.ndarray:
    """Tensor sum ``sum_j A_j (x) B_j`` of two stacks of d matrices each.

    The terms are added in index order onto a zero start, as Python's
    ``sum`` over ``np.kron(A[j], B[j])`` adds them, so the result is
    bit-identical to that loop; only one term is held at a time.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim != 3 or B.ndim != 3 or len(A) != len(B):
        raise ValueError(f"stacks of shape {A.shape} and {B.shape} do not "
                         f"pair up")
    out = np.zeros((A.shape[1] * B.shape[1], A.shape[2] * B.shape[2]),
                   dtype=np.result_type(A, B))
    for Aj, Bj in zip(A, B):
        out += np.kron(Aj, Bj)
    return out


def sign_rows(d: int, lo: int, hi: int) -> np.ndarray:
    """Sign vectors ``lo .. hi-1`` of ``{-1, 1}^d`` as integer rows, in the
    lexicographic order of ``np.ndindex(*(2,) * d)`` (bit j of the index,
    most significant first, picks the sign of coordinate j)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d - 1, -1, -1, dtype=np.int64)) & 1
    return bits * 2 - 1


def sign_sums(mats, lo: int, hi: int) -> np.ndarray:
    """Signed sums ``sum_j eps_j mats[j]`` for the sign vectors ``lo ..
    hi-1`` of :func:`sign_rows`, equal (``np.array_equal``) to
    ``lincomb(sign_rows(d, lo, hi), mats)``.

    The range splits into aligned blocks of 2^m rows, which share their
    leading d - m signs.  Each block sums those leading terms once, in
    index order, then doubles over the trailing ones (``s - X_j`` before
    ``s + X_j``), so every row goes through the float additions of
    ``lincomb`` in the same order: about two additions per row instead of
    d multiply-adds.
    """
    mats = np.asarray(mats)
    d = len(mats)
    out = np.empty((hi - lo,) + mats.shape[1:],
                   dtype=np.result_type(np.int64, mats))
    start = lo
    while start < hi:
        m = 0
        while (start >> m) & 1 == 0 and start + (2 << m) <= hi and m < d:
            m += 1
        block = np.zeros((1,) + mats.shape[1:], dtype=out.dtype)
        for j in range(d - m):
            if (start >> (d - 1 - j)) & 1:
                block = block + mats[j]
            else:
                block = block - mats[j]
        for j in range(d - m, d):
            grown = np.empty((2 * len(block),) + block.shape[1:],
                             dtype=out.dtype)
            pair = grown.reshape((len(block), 2) + block.shape[1:])
            np.subtract(block, mats[j], out=pair[:, 0])
            np.add(block, mats[j], out=pair[:, 1])
            block = grown
        out[start - lo:start - lo + len(block)] = block
        start += len(block)
    return out


def _member_norms(A: np.ndarray, herm: np.ndarray) -> np.ndarray:
    """Operator norms of the members of a nonempty ``(F, r, c)`` stack:
    the members flagged in ``herm`` by their extreme eigenvalues, the
    others by their largest singular value, one LAPACK call per route."""
    out = np.empty(len(A))
    if herm.any():
        H = A[herm]
        w = np.linalg.eigvalsh((H + H.conj().swapaxes(-1, -2)) / 2.0)
        out[herm] = np.abs(w[:, [0, -1]]).max(axis=1)
    if not herm.all():
        out[~herm] = np.linalg.svd(A[~herm], compute_uv=False)[:, 0]
    return out


def opnorm(A) -> float:
    """Operator (spectral) norm: largest singular value.  For a stack of
    matrices (any number of leading axes), the largest norm over the stack,
    from one LAPACK call; an empty stack has norm 0.

    Hermitian input, recognised relative to the largest entry of the whole
    stack (``herm_deviation <= HERMITICITY_TOL * max |A|``), takes the
    cheaper eigenvalue route.  Only members that can attain the maximum go
    to LAPACK, by ``||M|| >= ||M||_F / sqrt(r)`` with ``r`` the smaller
    side; a 1e-8 slack covers rounding, so the result is bit for bit that
    of the whole stack.
    """
    A = as_cmatrix(A)
    if A.size == 0:
        return 0.0
    dev = herm_deviation(A) if A.shape[-1] == A.shape[-2] else np.inf
    herm = dev == 0.0 or dev <= HERMITICITY_TOL * float(np.max(np.abs(A)))
    A = A.reshape(-1, *A.shape[-2:])
    if len(A) > 1:
        fro2 = (np.einsum("kij,kij->k", A.real, A.real)
                + np.einsum("kij,kij->k", A.imag, A.imag))
        top = float(fro2.max())
        if top == 0.0 and not A.any():
            return 0.0
        if _PRUNE_MIN <= top < np.inf:
            A = A[fro2 >= (1.0 - 1e-8) * top / min(A.shape[1:])]
    return float(_member_norms(A, np.full(len(A), herm)).max())


def opnorms(A) -> np.ndarray:
    """Operator norm of each member of an ``(F, r, c)`` stack; entry f is
    bit for bit ``opnorm(A[f])``, each member taking the Hermitian route
    by its own test."""
    A = as_cmatrix(A)
    if A.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim {A.ndim}")
    if A.size == 0:
        return np.zeros(len(A))
    herm = np.zeros(len(A), dtype=bool)
    if A.shape[1] == A.shape[2]:
        axes = (1, 2)
        dev = np.abs(A - A.conj().swapaxes(1, 2)).max(axis=axes)
        herm = (dev == 0.0) | (dev <= HERMITICITY_TOL * np.abs(A).max(axis=axes))
    return _member_norms(A, herm)


def re_im_parts(mats) -> np.ndarray:
    """Hermitian real and imaginary parts of a ``(d, n, n)`` stack,
    interleaved: ``(Re M_1, Im M_1, ..., Re M_d, Im M_d)`` with
    ``M = Re M + i Im M``."""
    M = np.asarray(mats, dtype=complex)
    if M.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim {M.ndim}")
    Mh = M.conj().swapaxes(1, 2)
    parts = np.empty((2 * len(M),) + M.shape[1:], dtype=complex)
    parts[0::2] = (M + Mh) / 2.0
    parts[1::2] = (M - Mh) / 2.0j
    return parts
