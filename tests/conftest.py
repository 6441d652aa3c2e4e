import numpy as np
import pytest

from matconv import sampling
from matconv.frames import Frame, check_tight
from matconv.numkernel import JointSpectrum
from matconv.sets import HermTuple


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pauli_pair() -> HermTuple:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    return HermTuple([sx, sz])


def frob(A) -> float:
    return float(np.linalg.norm(np.asarray(A)))


def random_isometry(big: int, small: int, rng) -> np.ndarray:
    """Random (big x small) complex isometry, V* V = I_small."""
    Q, R = np.linalg.qr(sampling.random_gen(big, rng))
    return (Q * (np.diag(R) / np.abs(np.diag(R))))[:, :small]


def random_povm(n: int, atoms: int, rng) -> list[np.ndarray]:
    """Random POVM: PSD effects summing exactly (numerically) to the
    identity."""
    G = []
    for _ in range(atoms):
        A = sampling.random_gen(n, rng)
        G.append(A @ A.conj().T)
    S = sum(G)
    w, Q = np.linalg.eigh((S + S.conj().T) / 2.0)
    S_isqrt = (Q / np.sqrt(w)) @ Q.conj().T
    return [S_isqrt @ g @ S_isqrt for g in G]


def random_gen_contraction_tuple(d: int, n: int, rng) -> list[np.ndarray]:
    """d general matrices, each of operator norm at most 1."""
    out = []
    for _ in range(d):
        A = sampling.random_gen(n, rng)
        nrm = float(np.linalg.svd(A, compute_uv=False)[0])
        out.append(A * (rng.uniform(0.2, 1.0) / max(nrm, 1e-12)))
    return out


def spectra_match(a: JointSpectrum, b: JointSpectrum, tol: float) -> bool:
    """Two joint spectra agree as multisets, within ``tol`` per
    coordinate."""
    if a.points.shape != b.points.shape:
        return False
    return bool(np.max(np.abs(a.sorted_points() - b.sorted_points())) <= tol)


def combine_frames(f1: Frame, f2: Frame) -> Frame:
    """The union of two frames placed on orthogonal coordinate blocks; tight
    when they share the vector norm and the frame constant."""
    V = np.zeros((f1.count + f2.count, f1.dim + f2.dim))
    V[:f1.count, :f1.dim] = f1.vectors
    V[f1.count:, f1.dim:] = f2.vectors
    return check_tight(V)
