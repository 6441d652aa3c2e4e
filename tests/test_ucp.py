import tracemalloc

import numpy as np
import pytest

from conftest import (
    apply_choi,
    choi_constraint_residual,
    frob,
    pauli_pair,
    random_gen,
    random_isometry,
)
from matconv import numkernel as nk
from matconv import sampling
from matconv.sdp import Status
from matconv.sets import GenTuple, HermTuple, cube_polytope, diamond_polytope
from matconv.ucp import (
    _REDUCTIONS,
    MapMode,
    RelaxVerdict,
    cc_exists,
    ccp_exists,
    choi_affine_projector,
    choi_constraints,
    normal_ucp_exists,
    relax_cube,
    spectrahedron_inclusion,
    ucp_exists,
)
from matconv.witnesses import clifford_tuple


def ampliated_compression(A: HermTuple, m: int, rng) -> HermTuple:
    """B = W*(A (x) I_r)W with r = k*m: a compression with a strictly
    feasible Choi witness."""
    r = A.n * m
    W = random_isometry(A.n * r, m, rng)
    return HermTuple([W.conj().T @ np.kron(np.asarray(M), np.eye(r)) @ W
                      for M in A])


def recheck_witness(res, A, B, tol=1e-8):
    C = res.witness[0]
    assert nk.min_eig(C, tol=np.inf) >= -tol
    assert choi_constraint_residual(C, A, B) <= tol


class TestUcpExists:
    def test_identity_map(self, rng):
        A = HermTuple(sampling.random_herm_contraction_tuple(2, 2, rng))
        res = ucp_exists(A, A)
        assert res.status is Status.FEASIBLE
        recheck_witness(res, A, A)

    def test_isometry_compressions(self, rng):
        # Thin compressions have boundary-rank Choi witnesses; alternating
        # projections may converge sublinearly on such instances, so the hard
        # requirement is soundness: the analytically feasible instance must
        # never be declared Infeasible, and solver witnesses must re-verify.
        feasible_seen = 0
        for k, m, d in ((3, 2, 2), (4, 2, 2), (2, 2, 2)):
            A = HermTuple(sampling.random_herm_contraction_tuple(d, k, rng))
            V = random_isometry(k, m, rng)
            B = HermTuple([V.conj().T @ np.asarray(M) @ V for M in A])
            # Analytic oracle: the Choi matrix of X -> V* X V is PSD and
            # meets every constraint, so the instance is feasible.
            C4 = np.einsum("ai,bj->aibj", V.conj(), V)
            C = C4.reshape(k * m, k * m)
            assert nk.min_eig(C, tol=np.inf) >= -1e-12
            assert choi_constraint_residual(C, A, B) <= 1e-12
            res = ucp_exists(A, B)
            assert res.status is not Status.INFEASIBLE
            if res.status is Status.FEASIBLE:
                feasible_seen += 1
                recheck_witness(res, A, B)
        assert feasible_seen >= 2

    def test_ampliated_compressions(self, rng):
        for k, m, d in ((3, 3, 3), (4, 3, 2), (2, 3, 2)):
            A = HermTuple(sampling.random_herm_contraction_tuple(d, k, rng))
            B = ampliated_compression(A, m, rng)
            res = ucp_exists(A, B)
            assert res.status is Status.FEASIBLE
            recheck_witness(res, A, B)

    def test_diamond_vertices_cannot_reach_anticommuting_pair(self):
        # Source: diagonal pair with joint spectrum {+-e_i}.  A feasible map
        # would put the anticommuting pair inside the smallest matrix convex
        # set over the l1 ball, contradicting its tensor norm 2 > 1.
        A = HermTuple([np.diag([1.0, -1.0, 0.0, 0.0]),
                       np.diag([0.0, 0.0, 1.0, -1.0])])
        B = clifford_tuple(2).as_herm_tuple()
        res = ucp_exists(A, B)
        assert res.status is Status.INFEASIBLE
        M = sum(np.kron(np.asarray(Mj), np.conj(np.asarray(Mj))) for Mj in B)
        assert nk.opnorm(M) == pytest.approx(2.0)

    def test_inconsistent_values_short_circuit(self):
        A = HermTuple([np.zeros((2, 2))])
        B = HermTuple([np.eye(2)])
        res = ucp_exists(A, B)
        assert res.status is Status.INFEASIBLE
        assert res.iterations == 0

    def test_witness_soundness_random(self, rng):
        for _ in range(5):
            A = HermTuple(sampling.random_herm_contraction_tuple(2, 3, rng))
            B = ampliated_compression(A, 2, rng)
            res = ucp_exists(A, B)
            assert res.status is Status.FEASIBLE
            recheck_witness(res, A, B)

    def test_compression_closure(self, rng):
        # A feasible pair stays feasible after compressing the target.
        A = HermTuple(sampling.random_herm_contraction_tuple(2, 3, rng))
        B = ampliated_compression(A, 3, rng)
        assert ucp_exists(A, B).status is Status.FEASIBLE
        W = random_isometry(3, 2, rng)
        BW = HermTuple([W.conj().T @ np.asarray(M) @ W for M in B])
        res = ucp_exists(A, BW)
        assert res.status is Status.FEASIBLE
        recheck_witness(res, A, BW)


class TestChoiMachinery:
    def test_apply_choi_identity_map(self, rng):
        k = 3
        # Choi of the identity: C[a, i, b, j] = delta_ai delta_bj.
        C4 = np.zeros((k, k, k, k), dtype=complex)
        for a in range(k):
            for b in range(k):
                C4[a, a, b, b] = 1.0
        C = C4.reshape(k * k, k * k)
        assert nk.min_eig(C, tol=np.inf) >= -1e-12
        X = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        assert np.allclose(apply_choi(C, X, k, k), X)

    def test_mode_reductions_build_doubled_tuples(self):
        A = GenTuple([np.array([[1.0 + 1.0j]])])
        assert _REDUCTIONS[MapMode.UCP](A) is A
        H = _REDUCTIONS[MapMode.CC](A)
        assert H.hermitian
        assert np.allclose(H[0], np.array([[0, 1 + 1j], [1 - 1j, 0]]))
        T = _REDUCTIONS[MapMode.CCP](A)
        assert not T.hermitian
        assert np.allclose(T[0], np.array([[1 + 1j, 0], [0, 0]]))

    def test_mode_reductions_refuse_unequal_lengths(self):
        A = GenTuple([np.eye(2), np.eye(2)])
        for exists in (ucp_exists, cc_exists, ccp_exists):
            with pytest.raises(ValueError, match="share d"):
                exists(A, GenTuple([np.eye(2)]))


def herm_basis(q: int) -> np.ndarray:
    """Orthonormal real basis of the Hermitian q x q matrices, (q^2, q, q)."""
    s = 1.0 / np.sqrt(2.0)
    basis = []
    for i in range(q):
        for j in range(q):
            E = np.zeros((q, q), dtype=complex)
            if i == j:
                E[i, i] = 1.0
            elif i < j:
                E[i, j] = E[j, i] = s
            else:
                E[i, j], E[j, i] = 1j * s, -1j * s
            basis.append(E)
    return np.stack(basis)


def reference_system(A, B):
    """Dense oracle: the real constraint system ``M c = b`` on the Hermitian
    coordinates ``c`` of a Choi matrix, with its coordinate basis."""
    k, m = A.n, B.n
    basis = herm_basis(k * m)
    sources = [np.eye(k)] + list(A)
    M = np.stack([np.concatenate([apply_choi(H, X, k, m).ravel()
                                  for X in sources]) for H in basis], axis=1)
    M = np.vstack([M.real, M.imag])
    t = np.concatenate([np.eye(m).ravel()] + [np.ravel(T) for T in B])
    return basis, M, np.concatenate([t.real, t.imag])


def reference_projector(A, B):
    """Projector of the dense oracle, solved by least squares per call."""
    basis, M, b = reference_system(A, B)

    def project(C):
        c = np.real(np.einsum("aij,ij->a", basis.conj(), C))
        c = c - np.linalg.lstsq(M, M @ c - b, rcond=None)[0]
        return np.tensordot(c, basis, axes=1)

    return project


def projector_instance(kind, k, m, rng):
    """Reduced (source, target) pair: Hermitian UCP data, or the padded
    CCP embedding of a non-Hermitian source."""
    if kind == "herm":
        A = HermTuple(sampling.random_herm_contraction_tuple(2, k, rng))
        return A, HermTuple([sampling.random_herm(m, rng) for _ in range(2)])
    A = GenTuple([random_gen(k, rng) for _ in range(2)])
    B = GenTuple([random_gen(m, rng) for _ in range(2)])
    reduce = _REDUCTIONS[MapMode.CCP]
    return reduce(A), reduce(B)


class TestChoiProjector:
    @pytest.mark.parametrize("kind", ["herm", "ccp"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_dense_reference(self, kind, k, m, rng):
        A, B = projector_instance(kind, k, m, rng)
        project, short = choi_affine_projector(choi_constraints(A, B))
        assert short is None
        ref = reference_projector(A, B)
        q = A.n * B.n
        C, C2 = sampling.random_herm(q, rng), sampling.random_herm(q, rng)
        P, P2 = project([C])[0], project([C2])[0]
        assert np.max(np.abs(P - ref(C))) <= 1e-12
        assert np.max(np.abs(project([P])[0] - P)) <= 1e-12
        assert nk.herm_deviation(P) <= 1e-12
        assert choi_constraint_residual(P, A, B) <= 1e-12
        # Obtuse-angle characterization of the orthogonal projection.
        inner = np.vdot(C - P, P2 - P)
        assert abs(inner) <= 1e-12 * (1.0 + frob(C - P) * frob(P2 - P))

    def test_build_memory_at_q64(self, rng):
        A = HermTuple(sampling.random_herm_contraction_tuple(3, 8, rng))
        B = HermTuple(sampling.random_herm_contraction_tuple(3, 8, rng))
        C = sampling.random_herm(64, rng)
        tracemalloc.start()
        try:
            project, short = choi_affine_projector(choi_constraints(A, B))
            P = project([C])[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert short is None
        assert choi_constraint_residual(P, A, B) <= 1e-12
        assert peak < 5 * 2 ** 20


class TestRankDeficientSources:
    def dependent_pairs(self, rng):
        """Sources with A_2 = 2 A_1, and with A_1 = c I."""
        A1, A2 = sampling.random_herm_contraction_tuple(2, 3, rng, shrink=0.5)
        yield HermTuple([A1, 2.0 * A1])
        yield HermTuple([0.3 * np.eye(3), A2])

    def test_consistent_targets_feasible(self, rng):
        for A in self.dependent_pairs(rng):
            B = ampliated_compression(A, 2, rng)
            _, short = choi_affine_projector(choi_constraints(A, B))
            assert short is None
            res = ucp_exists(A, B)
            assert res.status is Status.FEASIBLE
            recheck_witness(res, A, B)

    def test_inconsistent_targets_short_circuit(self, rng):
        for A in self.dependent_pairs(rng):
            B = ampliated_compression(A, 2, rng)
            # Break the dependency in the target the first source pins.
            bad = np.asarray(B[0]) + 0.1 * np.diag([1.0, -1.0])
            B = HermTuple([bad, B[1]])
            res = ucp_exists(A, B)
            assert res.status is Status.INFEASIBLE
            assert res.iterations == 0
            assert res.message == "no linear map takes the prescribed values"
            # The residual is the least-squares distance of the values.
            _, M, b = reference_system(A, B)
            lsq = M @ np.linalg.lstsq(M, b, rcond=None)[0]
            assert res.residual == pytest.approx(np.linalg.norm(lsq - b),
                                                 rel=1e-9)


class TestCcCcp:
    def test_cc_unimodular_scalar(self):
        u = np.exp(0.9j)
        A = GenTuple([np.array([[1.0 + 0j]])])
        B = GenTuple([np.array([[u]])])
        assert cc_exists(A, B).status is Status.FEASIBLE

    def test_cc_norm_growth_rejected(self):
        A = HermTuple([np.array([[1.0]])])
        B = HermTuple([np.array([[1.5]])])
        assert cc_exists(A, B).status is Status.INFEASIBLE

    def test_cc_sign_flip_allowed(self):
        A = HermTuple([np.array([[1.0]])])
        B = HermTuple([np.array([[-1.0]])])
        assert cc_exists(A, B).status is Status.FEASIBLE

    @pytest.mark.parametrize("t,want", [
        (0.25, True), (0.9, True), (1.0 - 1e-6, True),
        (1.0 + 1e-6, False), (1.3, False),
    ])
    def test_ccp_scalar_threshold(self, t, want):
        A = HermTuple([np.array([[1.0]])])
        B = HermTuple([np.array([[t]])])
        res = ccp_exists(A, B)
        assert (res.status is Status.FEASIBLE) == want


class TestNormalAtoms:
    def test_cube_to_diamond_and_back(self):
        cube = cube_polytope(2).vertices
        diamond = diamond_polytope(2).vertices
        assert normal_ucp_exists(cube, diamond, MapMode.UCP)
        assert not normal_ucp_exists(diamond, cube, MapMode.UCP)

    def test_cc_accepts_sign_flip(self):
        one = np.array([[1.0]])
        minus = np.array([[-1.0]])
        assert normal_ucp_exists(one, minus, MapMode.CC)
        assert not normal_ucp_exists(one, minus, MapMode.UCP)

    def test_ccp_adds_origin(self):
        src = np.array([[1.0, 0.0], [0.0, 1.0]])
        tgt = np.array([[0.25, 0.25]])
        assert normal_ucp_exists(src, tgt, MapMode.CCP)
        assert not normal_ucp_exists(src, tgt, MapMode.UCP)

    def test_complex_atoms(self):
        src = np.array([[1.0 + 0j], [-1.0 + 0j], [1j], [-1j]])
        tgt = np.array([[0.2 + 0.2j]])
        assert normal_ucp_exists(src, tgt, MapMode.UCP)
        assert not normal_ucp_exists(tgt, src, MapMode.UCP)

    def test_cc_rejects_complex_atoms(self):
        with pytest.raises(ValueError, match="real"):
            normal_ucp_exists(np.array([[1j]]), np.array([[1.0 + 0j]]),
                              MapMode.CC)


class TestSpectrahedronInclusion:
    def test_reflexive(self):
        A = pauli_pair()
        res = spectrahedron_inclusion(A, A)
        assert res.status is Status.FEASIBLE

    def test_scaled_pair_orientation(self):
        # Halving the target coefficients doubles its domain, so inclusion
        # holds for (A, A/2) and fails for (A, 2A).
        A = pauli_pair()
        assert spectrahedron_inclusion(A, A.scaled(0.5)).status \
            is Status.FEASIBLE
        assert spectrahedron_inclusion(A, A.scaled(2.0)).status \
            is Status.INFEASIBLE

    def test_undecided_when_interior_probe_fails(self):
        A = HermTuple([np.eye(2), np.eye(2)])
        res = spectrahedron_inclusion(A, pauli_pair())
        assert res.status is Status.UNDECIDED
        assert "interiority" in res.message


class TestRelaxCube:
    def test_half_clifford_inconclusive(self):
        # min eig of I - (sx + sz)/2 is 1 - sqrt(2)/2 > 0: the cube fits in
        # the level-1 domain, so the relaxation must not exclude it.
        B = clifford_tuple(2).as_herm_tuple().scaled(0.5)
        S = (np.asarray(B[0]) + np.asarray(B[1]))
        assert nk.min_eig(np.eye(2) - S) == pytest.approx(1 - np.sqrt(2) / 2)
        out = relax_cube(B)
        assert out.cube_in_level1
        assert out.verdict is RelaxVerdict.INCONCLUSIVE

    def test_clifford_pair_excluded(self):
        B = clifford_tuple(2).as_herm_tuple()
        out = relax_cube(B)
        assert not out.cube_in_level1
        assert out.verdict is RelaxVerdict.CUBE_EXCLUDED
        # Dual-pair certificate: Y = B / sqrt(2) satisfies every signed-sum
        # inequality, yet the tensor pairing with B tops 1, so B is outside
        # the smallest matrix convex set over the cube.
        Y = B.scaled(1 / np.sqrt(2))
        for eps in np.ndindex(2, 2):
            signs = np.array(eps) * 2 - 1
            S = sum(float(s) * np.asarray(M) for s, M in zip(signs, Y))
            assert nk.max_eig(S, tol=np.inf) <= 1 + 1e-12
        pairing = sum(np.kron(np.asarray(Bi), np.asarray(Yi))
                      for Bi, Yi in zip(B, Y))
        assert nk.max_eig(pairing, tol=np.inf) == pytest.approx(np.sqrt(2.0))

    def test_zero_tuple_inconclusive(self):
        B = HermTuple([np.zeros((2, 2)), np.zeros((2, 2))])
        out = relax_cube(B)
        assert out.cube_in_level1
        assert out.verdict is RelaxVerdict.INCONCLUSIVE

    def test_never_excludes_when_level1_holds(self, rng):
        for _ in range(5):
            B = HermTuple(sampling.random_sign_sum_bounded_tuple(2, 2, rng))
            out = relax_cube(B)
            if out.cube_in_level1:
                assert out.verdict is RelaxVerdict.INCONCLUSIVE
