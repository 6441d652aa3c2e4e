"""The signed-sum and facet sweeps of ``sets.first_failing_row``.

Signed sums come from ``numkernel.sign_sums`` by doubling, equal to the
``lincomb`` of the sign rows; a chunk that one batched Cholesky proves
inside skips its eigensolve.  Neither may change a verdict or the index of
the first failing row, which the plain eigensolve sweep of ``conftest``
decides.
"""

import numpy as np
import pytest

from conftest import first_failing_row_eig
from matconv import numkernel as nk
from matconv import sampling, sets
from matconv.sets import HermTuple, Polytope

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), n=st.integers(1, 3), real=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_sign_sums_equal_lincomb_of_sign_rows(d, n, real, seed, data):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((d, n, n))
    if not real:
        mats = mats + 1j * rng.standard_normal((d, n, n))
    rows = 2 ** d
    # Aligned: whole sweep chunks, as the sign sweep asks for them.
    lo = data.draw(st.integers(0, rows - 1)) // 256 * 256
    aligned = [(lo, min(lo + 256, rows))]
    # Unaligned: any range, empty ones included.
    a = data.draw(st.integers(0, rows))
    b = data.draw(st.integers(0, rows))
    for lo, hi in aligned + [(min(a, b), max(a, b))]:
        got = nk.sign_sums(mats, lo, hi)
        want = nk.lincomb(nk.sign_rows(d, lo, hi), mats)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _signed_top(X: HermTuple) -> float:
    S = nk.lincomb(nk.sign_rows(X.d, 0, 2 ** X.d), X.matrices)
    return float(nk.max_eig(S, tol=np.inf).max())


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-20, 20),
       tol=st.sampled_from([0.0, 1e-9]), at_tol=st.booleans())
def test_gated_sweep_finds_the_rows_of_the_eigensolve(d, n, seed, k, tol,
                                                      at_tol):
    # The largest signed-sum eigenvalue sits k * 1e-13 from 1, or from the
    # decision boundary 1 + tol, where the gate must hand every chunk
    # holding a near-boundary row to the eigensolve.
    rng = np.random.default_rng(seed)
    X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
    target = 1.0 + (tol if at_tol else 0.0) + k * 1e-13
    X = X.scaled(target / _signed_top(X))
    count = 2 ** d

    def signs(lo, hi):
        return nk.sign_rows(d, lo, hi), 1.0

    want = first_failing_row_eig(X, count, signs, tol)
    bad = sets.first_violated_sign(X, tol)
    assert (bad is None if want is None
            else bad.tolist() == nk.sign_rows(d, want, want + 1)[0].tolist())

    # Facet rows through lincomb: the diamond's facets with their offsets
    # spread over [1, 2], each row scaled to match.
    scale = rng.uniform(1.0, 2.0, count)
    normals = nk.sign_rows(d, 0, count) * scale[:, None]

    def facets(lo, hi):
        return normals[lo:hi], scale[lo:hi]

    assert (sets.first_failing_row(X, count, facets, tol)
            == first_failing_row_eig(X, count, facets, tol))


def test_in_set_diamond_sweep_skips_every_chunk_eigensolve(rng, monkeypatch):
    d = 10
    X = HermTuple(sampling.random_herm_contraction_tuple(d, 4, rng))
    X = X.scaled(0.95 / _signed_top(X))
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert sets.diamond_wmax_member(X)
    # Only X.norms() solves, on the d members of the tuple.
    assert shapes == [(d, 4, 4)]


def test_gate_subtracts_its_margin():
    # Facets +-x_j <= 1e3 and a diagonal tuple whose second entry exceeds
    # 1e3 by 2.3e-12: the row +x_2 fails at tol 0 and at tol 1e-12, by less
    # than the gate margin delta (about 5e-11 here).  A gate that added
    # delta to the shift would pass that chunk unsolved.
    X = HermTuple([np.diag([1e3, 999.0]), np.diag([-1e3, 1e3 + 2e-12])])
    P = Polytope(2, facet_normals=np.vstack([np.eye(2), -np.eye(2)]),
                 facet_offsets=np.full(4, 1e3))
    delta = sets._gate_gamma(2) * np.finfo(float).eps * 2e3
    assert delta > 1e-11
    for tol in (0.0, 1e-12):
        assert not sets.wmax_member(X, P, tol=tol)
        assert sets.first_failing_row(
            X, 4, lambda lo, hi: (P.facet_normals[lo:hi],
                                  P.facet_offsets[lo:hi]), tol) == 1
    assert sets.wmax_member(X, P, tol=1e-11)
