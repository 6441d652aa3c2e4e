"""``include spectra`` against an independent oracle.

For diagonal coefficients the level-1 domain ``D_A(1) = {x : Re sum_i
a_i[j] x_i <= 1 for every row j}`` is a polyhedron, and inclusion at level 1
is inclusion at every level: a row ``b`` of B with ``max b . x <= 1`` over
``D_A(1)`` is, by Farkas, ``sum_j l_j a[j]`` with ``l >= 0`` and ``sum_j
l_j <= 1``, and then ``Re sum_i b_i X_i <= (sum_j l_j) I <= I`` on
``D_A(n)``.  scipy's ``linprog`` maximises each row of B over ``D_A(1)``;
"unbounded" means "not included".  Complex entries act on ``x = u + iv``
through the real rows ``(Re a, -Im a)``.

The cases put 0 inside the level-1 range ``W_1(A) = conv{a[j]}``, on its
boundary and outside it: the last two have unbounded domains, and only the
zero-padded (CCP) reduction decides them.
"""

import numpy as np
import pytest

from conftest import choi_constraint_residual, tilde_tuple_loop
from matconv.sdp import WITNESS_TOL, Status
from matconv.sets import GenTuple, HermTuple
from matconv.ucp import MapMode, spectrahedron_inclusion

pytest.importorskip("hypothesis")
linprog = pytest.importorskip("scipy.optimize").linprog
from hypothesis import given, settings, strategies as st  # noqa: E402


def _real_rows(rows: np.ndarray) -> np.ndarray:
    return (np.hstack([rows.real, -rows.imag]) if np.iscomplexobj(rows)
            else rows)


def support(a: np.ndarray, b: np.ndarray) -> float:
    """``max Re(b . x)`` over ``D_A(1)``, or ``inf`` when it is unbounded."""
    res = linprog(-_real_rows(b[None])[0], A_ub=_real_rows(a),
                  b_ub=np.ones(len(a)), bounds=(None, None), method="highs")
    if res.status == 3:
        return np.inf
    assert res.status == 0, res.message
    return -res.fun


def included(a: np.ndarray, b: np.ndarray) -> bool:
    return all(support(a, row) <= 1.0 for row in b)


def diagonal_tuple(rows: np.ndarray):
    """The tuple ``(diag(rows[:, i]))_i``: Hermitian for real rows."""
    n, d = rows.shape
    mats = np.zeros((d, n, n), dtype=rows.dtype)
    mats[:, np.arange(n), np.arange(n)] = rows.T
    return GenTuple(mats) if np.iscomplexobj(rows) else HermTuple(mats)


def draw_pencils(rng, field: str, where: str, kind: str):
    """Diagonal rows ``a`` (three of them, in R^2 or C^1) with 0 ``where``
    in their hull, and two target rows.  ``in``: both rows are points of
    the cone of ``a`` scaled to support value 1/2.  ``out``: the second is
    scaled to 2.  ``unbounded``: the second is a random point times 3."""
    d = 2 if field == "real" else 1

    def points(k):
        p = rng.standard_normal((k, d))
        return p if field == "real" else p + 1j * rng.standard_normal((k, d))

    a = points(3)
    if where == "inside":
        a -= a.mean(axis=0)
    elif where == "boundary":  # the midpoint of an edge
        a -= a[:2].mean(axis=0)
    else:
        a += 2.5 * np.abs(a).max() - a.mean(axis=0)
    b = []
    for scale in (0.5, 0.5 if kind == "in" else 2.0):
        row = rng.dirichlet(np.ones(3)) @ a
        value = support(a, row)
        b.append(row * scale / value if value > 1e-9 else row)
    if kind == "unbounded":
        b[1] = 3.0 * points(1)[0]
    return a, np.array(b)


@pytest.mark.parametrize("where", ["inside", "boundary", "outside"])
@pytest.mark.parametrize("field", ["real", "complex"])
@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["in", "out", "unbounded"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_agrees_with_the_linprog_oracle(field, where, kind, seed):
    a, b = draw_pencils(np.random.default_rng(seed), field, where, kind)
    want = Status.FEASIBLE if included(a, b) else Status.INFEASIBLE
    mode, res = spectrahedron_inclusion(diagonal_tuple(a), diagonal_tuple(b))
    assert res.status is want
    if want is Status.INFEASIBLE:
        # Only the padded test can give "no"; its certificate is negative.
        assert mode is MapMode.CCP and res.certificate.value < 0
    else:
        assert res.witness is not None


@pytest.mark.parametrize("b, want", [
    (0.25, Status.FEASIBLE),     # x <= 1/2 lies in x <= 4
    (-1.0, Status.INFEASIBLE),   # x <= 1/2 is not in x >= -1
    (3.0, Status.INFEASIBLE),    # x <= 1/2 is not in x <= 1/3
])
def test_hand_cases_outside_the_range(b, want):
    # W_1(diag(1, 2)) = [1, 2] misses 0, so no UCP map reaches any of these
    # targets: each verdict is the padded test's.
    a = np.array([[1.0], [2.0]])
    mode, res = spectrahedron_inclusion(diagonal_tuple(a),
                                        HermTuple([[[b]]]))
    assert (mode, res.status) == (MapMode.CCP, want)
    assert (res.status is Status.FEASIBLE) == included(a, np.array([[b]]))


@pytest.mark.parametrize("field, seed", [("real", 14), ("complex", 55)])
def test_affine_side_witness_when_the_psd_side_misses(field, seed):
    # On these draws (entries up to about 7) the PSD-side point comes within
    # tol_feas of the affine set while its raw constraint residual is above
    # WITNESS_TOL (1.3e-7), so the solve once ended Undecided there; its
    # affine-side projection passes the same re-check.
    a, b = draw_pencils(np.random.default_rng(seed), field, "outside", "in")
    A, B = diagonal_tuple(a), diagonal_tuple(b)
    mode, res = spectrahedron_inclusion(A, B)
    assert (mode, res.status) == (MapMode.CCP, Status.FEASIBLE)
    C = res.witness[0]
    pad = type(A)
    assert choi_constraint_residual(C, pad(tilde_tuple_loop(A)),
                                    pad(tilde_tuple_loop(B))) <= WITNESS_TOL
    assert np.linalg.eigvalsh(C)[0] >= -WITNESS_TOL
