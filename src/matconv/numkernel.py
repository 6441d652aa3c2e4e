"""Dense complex linear-algebra kernels shared by every other module.

Everything here operates on plain ``numpy`` arrays.  Hermitian matrices are
always symmetrized on entry (``(M + M*)/2``) after a tolerance check, so
downstream eigensolves never see asymmetric garbage.  Linear combinations
and extreme eigenvalues are batched: :func:`lincomb` builds an ``(F, n, n)``
stack of combinations, and :func:`min_eig` and :func:`max_eig` take such a
stack and make one LAPACK call for all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12

# Simultaneous diagonalization: eigenvalue clusters of a random combination are
# split at 1e-8 * max operator norm of the family.
CLUSTER_TOL_REL = 1e-8


class NumKernelError(Exception):
    """Base error for this module."""


class NotHermitianError(NumKernelError):
    """Raised when a matrix fails the hermiticity tolerance."""


class EigenSolveError(NumKernelError):
    """Eigensolver did not converge; carries the residual diagnostic."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NotCommutingError(NumKernelError):
    """A family handed to the joint diagonalizer fails the commutator test."""

    def __init__(self, i: int, j: int, norm: float, bound: float):
        super().__init__(
            f"matrices {i} and {j} do not commute: "
            f"commutator norm {norm:.3e} exceeds bound {bound:.3e}"
        )
        self.pair = (i, j)
        self.norm = norm
        self.bound = bound


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    M = np.asarray(entries, dtype=complex)
    if M.ndim != 2:
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

    ``M`` is a matrix or an ``(F, n, n)`` stack of matrices; a stack is
    checked and symmetrized matrix by matrix.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 3:
        M = as_cmatrix(M)
    elif not np.all(np.isfinite(M)):
        raise ValueError("matrix stack has non-finite entries")
    if M.shape[-1] != M.shape[-2]:
        raise NotHermitianError(f"matrix is not square: shape {M.shape}")
    dev = herm_deviation(M)
    if dev > tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {dev:.3e} (tolerance {tol:.1e})"
        )
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


def sign_rows(d: int, lo: int, hi: int) -> np.ndarray:
    """Sign vectors ``lo .. hi-1`` of ``{-1, 1}^d`` as integer rows, in the
    lexicographic order of ``np.ndindex(*(2,) * d)`` (bit j of the index,
    most significant first, picks the sign of coordinate j)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d - 1, -1, -1, dtype=np.int64)) & 1
    return bits * 2 - 1


def opnorm(A) -> float:
    """Operator (spectral) norm: largest singular value.

    Hermitian input takes the cheaper eigenvalue route (max ``|eig|``).
    """
    A = as_cmatrix(A)
    if A.size == 0:
        return 0.0
    if A.shape[0] == A.shape[1] and herm_deviation(A) <= HERMITICITY_TOL:
        w = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.svd(A, compute_uv=False)[0])


@dataclass(frozen=True)
class JointSpectrum:
    """Joint eigenvalue tuples of a commuting family, listed with multiplicity.

    ``points`` has one row per ambient dimension; rows repeat according to
    multiplicity.  Rows are real for Hermitian families, complex for normal
    ones.
    """

    points: np.ndarray  # (n, d)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def sorted_points(self) -> np.ndarray:
        """Rows sorted lexicographically (real then imaginary parts)."""
        pts = self.points
        keys = []
        for j in range(pts.shape[1] - 1, -1, -1):
            keys.append(pts[:, j].imag)
            keys.append(pts[:, j].real)
        order = np.lexsort(keys)
        return pts[order]


def _offdiag_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M - np.diag(np.diag(M))))


def _split_clusters(w: np.ndarray, gap: float) -> list[slice]:
    """Slice the ascending eigenvalue list into clusters separated by > gap."""
    clusters = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            clusters.append(slice(start, i))
            start = i
    clusters.append(slice(start, len(w)))
    return clusters


def _simdiag_recurse(mats: list[np.ndarray], rng: np.random.Generator,
                     cluster_tol: float, depth: int) -> np.ndarray:
    n = mats[0].shape[0]
    if n == 1:
        return np.eye(1, dtype=complex)
    if all(_offdiag_norm(M) == 0.0 for M in mats):
        return np.eye(n, dtype=complex)
    # Deviation from a scalar family: any orthonormal basis diagonalizes it.
    dev = max(
        float(np.linalg.norm(M - (np.trace(M) / n) * np.eye(n))) for M in mats
    )
    if dev <= cluster_tol:
        return np.eye(n, dtype=complex)
    if depth > 40:
        raise EigenSolveError(
            "joint diagonalization failed to split a degenerate cluster",
            residual=dev,
        )
    coeffs = rng.standard_normal(len(mats))
    M = lincomb(coeffs[None, :], mats)[0]
    w, Q = np.linalg.eigh((M + M.conj().T) / 2.0)
    clusters = _split_clusters(w, cluster_tol)
    if len(clusters) == 1:
        # Unlucky combination; retry with fresh coefficients.
        return _simdiag_recurse(mats, rng, cluster_tol, depth + 1)
    blocks = []
    for cl in clusters:
        Qc = Q[:, cl]
        if cl.stop - cl.start == 1:
            blocks.append(Qc)
            continue
        sub = [Qc.conj().T @ A @ Qc for A in mats]
        Usub = _simdiag_recurse(sub, rng, cluster_tol, depth + 1)
        blocks.append(Qc @ Usub)
    return np.hstack(blocks)


def simultaneous_diagonalize(mats: Sequence, tol: float = 1e-8,
                             seed: int = 0) -> tuple[np.ndarray, JointSpectrum]:
    """Jointly diagonalize a commuting family of Hermitian matrices.

    Parameters
    ----------
    mats : sequence of Hermitian matrices, all the same size.
    tol : commutator tolerance, relative to the largest operator norm.
    seed : seed for the random linear combinations used to split degenerate
        eigenspaces (the sweep is deterministic for a fixed seed).

    Returns
    -------
    (U, spectrum) : unitary ``U`` with ``U* T_i U`` diagonal to within the
        commutator bound, and the joint spectrum read off the diagonals.
        An already-diagonal family is returned exactly, with ``U = I``.

    Raises
    ------
    NotCommutingError : some pair violates ``||[T_i, T_j]|| <= tol * max||T||``.
    """
    mats = [hermitize(M) for M in mats]
    if not mats:
        raise ValueError("empty family")
    n = mats[0].shape[0]
    if any(M.shape != (n, n) for M in mats):
        raise ValueError("family members must share one size")
    scale = max(opnorm(M) for M in mats)
    bound = tol * max(scale, 1e-300)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            nrm = opnorm(mats[i] @ mats[j] - mats[j] @ mats[i])
            if nrm > bound:
                raise NotCommutingError(i, j, nrm, bound)
    if all(_offdiag_norm(M) == 0.0 for M in mats):
        U = np.eye(n, dtype=complex)
        points = np.column_stack([np.diag(M) for M in mats])
        return U, JointSpectrum(points=points)
    rng = np.random.default_rng(seed)
    cluster_tol = CLUSTER_TOL_REL * max(scale, 1e-300)
    U = _simdiag_recurse(mats, rng, cluster_tol, 0)
    diags = []
    for M in mats:
        D = U.conj().T @ M @ U
        res = _offdiag_norm(D)
        if res > max(bound * 10 * n, cluster_tol * 10 * n):
            raise EigenSolveError(
                f"joint diagonalization residual {res:.3e} too large",
                residual=res,
            )
        diags.append(np.real(np.diag(D)))
    points = np.column_stack(diags)
    return U, JointSpectrum(points=points)


def re_im_parts(mats: Sequence) -> list[np.ndarray]:
    """Hermitian real and imaginary parts, interleaved:
    ``(Re M_1, Im M_1, ..., Re M_d, Im M_d)`` with ``M = Re M + i Im M``."""
    parts = []
    for M in mats:
        M = as_cmatrix(M)
        parts.append((M + M.conj().T) / 2.0)
        parts.append((M - M.conj().T) / 2.0j)
    return parts


def joint_spectrum_normal(mats: Sequence, tol: float = 1e-8,
                          seed: int = 0) -> tuple[np.ndarray, JointSpectrum]:
    """Joint spectrum of a commuting *normal* family via real/imaginary parts.

    Each matrix splits as ``M = R + iS`` with ``R, S`` Hermitian; for a
    commuting normal family the 2d-tuple of parts commutes, so the Hermitian
    routine applies and the complex points are recombined afterwards.
    """
    U, spec = simultaneous_diagonalize(re_im_parts(mats), tol=tol, seed=seed)
    pts = spec.points
    complex_pts = pts[:, 0::2] + 1j * pts[:, 1::2]
    return U, JointSpectrum(points=complex_pts)
