"""Seeded random generators for matrices, tuples and sphere points.

Every function takes an explicit ``numpy.random.Generator`` so callers stay
deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import numkernel as nk


def rng_from(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_herm(n: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style random Hermitian matrix."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2.0


def random_herm_contraction_tuple(d: int, n: int, rng: np.random.Generator,
                                  shrink: float = 1.0) -> list[np.ndarray]:
    """d Hermitian matrices, each of operator norm <= shrink (<= 1)."""
    out = []
    for _ in range(d):
        H = random_herm(n, rng)
        nrm = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        scale = shrink * rng.uniform(0.2, 1.0) / max(nrm, 1e-12)
        out.append(H * scale)
    return out


def random_sign_sum_bounded_tuple(d: int, n: int, rng: np.random.Generator,
                                  bound: float = 1.0) -> np.ndarray:
    """Random Hermitian tuple, as a ``(d, n, n)`` stack, with every sign
    combination sum <= bound * I."""
    H = np.stack([random_herm(n, rng) for _ in range(d)])
    S = nk.lincomb(nk.sign_rows(d, 0, 2 ** d), H)
    worst = max(0.0, float(np.max(nk.max_eig(S, tol=np.inf))))
    t = bound * rng.uniform(0.2, 1.0) / max(worst, 1e-12)
    return t * H


def sphere_points(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere of R^d, as rows."""
    if d == 1:
        reps = (count + 1) // 2
        pts = np.array([[1.0], [-1.0]] * reps)[:count]
        return pts
    X = rng.standard_normal((count, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)
