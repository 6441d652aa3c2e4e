import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_search_matches_backtracking,
    closure_all_pairs,
    combine_frames,
    projection_invariance_per_point,
    random_povm,
    simultaneous_diagonalize,
)
from matconv import frames, sampling, sdp
from matconv import numkernel as nk
from matconv.cli import main
from matconv.dilation import LambdaFamily, lambda_dilation
from matconv.frames import (
    SYMMETRY_ENTRY_CAP,
    FrameError,
    NotEqualNormError,
    NotTightError,
    SymmetryGroup,
    _gram_permutations,
    _independent_rows,
    build_frame,
    check_tight,
    cube_corners_frame,
    is_vertex_reflexive,
    pentagon_frame,
    pm_basis_frame,
    projection_invariance,
    s5_orbit_frame,
    simplex3_frame,
    symmetry_group,
)
from matconv.sdp import hull_weights
from matconv.sets import HermTuple, Polytope, cube_polytope, wmax_member
from matconv.witnesses import clifford_tuple

SRC = Path(__file__).resolve().parents[1] / "src"


class TestCheckTight:
    def test_pm_basis(self):
        f = pm_basis_frame(3)
        assert f.count == 6
        assert f.sigma == pytest.approx(2.0)
        assert f.norm == pytest.approx(1.0)

    def test_pentagon(self):
        f = pentagon_frame()
        assert f.count == 5
        assert f.sigma == pytest.approx(2.5, abs=1e-12)

    def test_s5_orbit(self):
        f = s5_orbit_frame()
        assert f.count == 10
        assert f.dim == 4
        assert f.sigma == pytest.approx(2.5, abs=1e-9)
        # No vector is the negative of another.
        for i in range(10):
            for j in range(10):
                assert np.linalg.norm(f.vectors[i] + f.vectors[j]) > 1e-6

    def test_not_tight(self):
        with pytest.raises(NotTightError) as err:
            check_tight(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
                        / np.sqrt([1, 1, 2])[:, None])
        assert err.value.deviation > 0

    def test_not_equal_norm(self):
        with pytest.raises(NotEqualNormError):
            check_tight(np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0],
                                  [0.0, -1.0]]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="coincide"):
            check_tight(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                  [0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_nonspanning(self):
        with pytest.raises(ValueError, match="span"):
            check_tight(np.array([[1.0, 0.0], [-1.0, 0.0]]))


class TestSymmetryGroup:
    def test_square_frame_order_eight(self):
        g = symmetry_group(pm_basis_frame(2))
        assert g.order == 8
        assert g.verify_closure()
        assert g.is_transitive()

    def test_pentagon_dihedral(self):
        g = symmetry_group(pentagon_frame())
        assert g.order == 10
        assert g.verify_closure()

    def test_s5_orbit_order(self):
        g = symmetry_group(s5_orbit_frame())
        assert g.order == 120
        assert g.verify_closure()

    def test_simplex_order(self):
        g = symmetry_group(simplex3_frame())
        assert g.order == 24

    def test_combined_frame_splits(self):
        theta = combine_frames(s5_orbit_frame(), pentagon_frame())
        assert theta.sigma == pytest.approx(2.5, abs=1e-9)
        g = symmetry_group(theta)
        assert g.order == 1200
        assert not g.is_transitive()
        # Orbits stay inside the two parts, and every element is block
        # diagonal with respect to the 4 + 2 coordinate split.
        assert set(g.permutations[:, 0].tolist()) == set(range(10))
        assert set(g.permutations[:, 10].tolist()) == set(range(10, 15))
        for U in g.matrices:
            assert np.max(np.abs(U[:4, 4:])) <= 1e-8
            assert np.max(np.abs(U[4:, :4])) <= 1e-8

    def test_cap(self):
        with pytest.raises(FrameError, match="cap"):
            symmetry_group(cube_corners_frame(5), cap=24)

    @staticmethod
    def _square_group_without(k):
        g = symmetry_group(pm_basis_frame(2))
        return SymmetryGroup(np.delete(g.permutations, k, axis=0),
                             np.delete(g.matrices, k, axis=0))

    def test_closure_fails_with_an_element_missing(self):
        g = symmetry_group(pm_basis_frame(2))
        identity = np.all(g.permutations == np.arange(4), axis=1)
        for k in np.flatnonzero(~identity):
            assert not self._square_group_without(k).verify_closure()

    def test_closure_fails_with_a_non_symmetry_added(self):
        # Vectors e1, e2, -e1, -e2: swapping e1 and e2 alone is a
        # permutation, its own inverse, but no linear map.
        g = symmetry_group(pm_basis_frame(2))
        bad = SymmetryGroup(np.vstack([g.permutations, [[1, 0, 2, 3]]]),
                            np.concatenate([g.matrices, np.eye(2)[None]]))
        assert not bad.verify_closure()

    def test_closure_of_the_combined_frame(self):
        g = symmetry_group(combine_frames(s5_orbit_frame(), pentagon_frame()))
        assert g.order == 1200
        assert g.verify_closure()
        assert closure_all_pairs(g.permutations)

    @pytest.mark.parametrize("name, d", [
        ("simplex3", None), ("pentagon", None), ("s5_orbit", None),
        *(("pm_basis", d) for d in range(1, 5)),
        *(("cube_corners", d) for d in range(1, 5)),
    ])
    def test_closure_of_every_builder_matches_all_pairs(self, name, d):
        perms = symmetry_group(build_frame(name, d)).permutations
        assert SymmetryGroup(perms, None).verify_closure()
        assert closure_all_pairs(perms)
        # Without its last row (never the identity, which comes first) the
        # set is a group only when the identity alone is left.
        fewer = perms[:-1]
        assert (SymmetryGroup(fewer, None).verify_closure()
                == closure_all_pairs(fewer) == (len(fewer) == 1))

    def test_closure_runs_on_few_generators(self, monkeypatch):
        # pm_basis --d 5: 3840 symmetries, each right-multiplication map
        # looked up once per generator, at most log2(3840) < 12 of them.
        perms = symmetry_group(pm_basis_frame(5)).permutations
        calls = []
        lookup = frames._row_indices

        def counted(rows, table):
            calls.append(len(rows))
            return lookup(rows, table)

        monkeypatch.setattr(frames, "_row_indices", counted)
        assert SymmetryGroup(perms, None).verify_closure()
        assert 1 <= len(calls) <= 11 and set(calls) == {len(perms)}

    def test_closure_indices_beyond_a_byte(self):
        # The cyclic group on 300 points: indices above 255 must survive.
        N = 300
        perms = (np.arange(N)[None, :] + np.arange(N)[:, None]) % N
        mats = np.ones((N, 1, 1))
        assert SymmetryGroup(perms, mats).verify_closure()
        assert not SymmetryGroup(perms[:-1], mats[:-1]).verify_closure()
        assert SymmetryGroup(perms, mats).is_transitive()

    @staticmethod
    def _reference_lift(frame, tol=1e-8):
        """The element-by-element lift the batched one must match."""
        V = frame.vectors
        perms = _gram_permutations(frame.gram(), tol * max(frame.norm ** 2, 1))
        basis = _independent_rows(V, frame.dim)
        Binv = np.linalg.inv(V[basis].T)
        kept = []
        for p in perms:
            U = V[p[basis]].T @ Binv
            if (np.linalg.norm(U.T @ U - np.eye(frame.dim)) <= tol * frame.dim
                    and np.max(np.abs(V @ U.T - V[p]))
                    <= tol * max(frame.norm, 1.0)):
                kept.append((p, U))
        return kept

    @pytest.mark.parametrize("frame", [
        pentagon_frame(), simplex3_frame(), pm_basis_frame(3),
        cube_corners_frame(3),
        check_tight(np.column_stack([np.cos(np.deg2rad([0, 45, 90, 135])),
                                     np.sin(np.deg2rad([0, 45, 90, 135]))])),
    ])
    def test_batched_lift_matches_elementwise(self, frame):
        g = symmetry_group(frame)
        ref = self._reference_lift(frame)
        assert np.array_equal(g.permutations, [p for p, _ in ref])
        assert np.allclose(g.matrices, [U for _, U in ref], atol=1e-12)

    def test_closure_and_transitivity_match_set_references(self, rng):
        def generated(gens):
            rows = {tuple(range(gens.shape[1]))}
            frontier = list(rows)
            while frontier:
                p = np.array(frontier.pop())
                for q in gens:
                    r = tuple(q[p].tolist())
                    if r not in rows:
                        rows.add(r)
                        frontier.append(r)
            return np.array(sorted(rows))  # the identity comes first

        def closed(perms):
            rows = {tuple(p) for p in perms.tolist()}
            return all(tuple(np.argsort(p)) in rows
                       and all(tuple(q[p]) in rows for q in perms)
                       for p in perms)

        def transitive(perms):
            orbit, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for p in perms:
                    if p[x] not in orbit:
                        orbit.add(int(p[x]))
                        frontier.append(int(p[x]))
            return len(orbit) == perms.shape[1]

        full = symmetry_group(pm_basis_frame(3)).permutations
        seen = set()
        for _ in range(20):
            gens = full[rng.choice(len(full), size=rng.integers(1, 3),
                                   replace=False)]
            H = generated(gens)
            for perms in (gens, H, H[1:], np.vstack([H, rng.permutation(6)])):
                if len(perms) == 0:
                    continue
                g = SymmetryGroup(perms, np.ones((len(perms), 1, 1)))
                verdicts = (g.verify_closure(), g.is_transitive())
                assert verdicts == (closed(perms), transitive(perms))
                seen.add(verdicts)
        assert seen == {(a, b) for a in (True, False) for b in (True, False)}


class TestGramSearch:
    @pytest.mark.parametrize("frame", [
        pentagon_frame(), simplex3_frame(), s5_orbit_frame(),
        *(pm_basis_frame(d) for d in range(2, 6)),
        *(cube_corners_frame(d) for d in range(2, 5)),
    ], ids=lambda f: f"N{f.count}d{f.dim}")
    def test_builders_match_backtracking(self, frame):
        assert_search_matches_backtracking(
            frame.gram(), 1e-8 * max(frame.norm ** 2, 1.0))

    def test_entry_cap_boundary(self, monkeypatch):
        # cube_corners --d 3: its last depth holds 48 rows of 8 indices.
        G = cube_corners_frame(3).gram()
        monkeypatch.setattr(frames, "SYMMETRY_ENTRY_CAP", 48 * 8)
        assert _gram_permutations(G, 1e-8).shape == (48, 8)
        monkeypatch.setattr(frames, "SYMMETRY_ENTRY_CAP", 48 * 8 - 1)
        with pytest.raises(FrameError, match="SYMMETRY_ENTRY_CAP"):
            _gram_permutations(G, 1e-8)

    def test_group_past_entry_cap_exits_4(self):
        # pm_basis --d 8 has 16 vectors, under the vector cap, and 2^8 8!
        # symmetries: refused from its sixth depth, long before the search
        # or the lift could fill memory.
        assert 2 ** 8 * math.factorial(8) * 16 > SYMMETRY_ENTRY_CAP
        run = subprocess.run(
            [sys.executable, "-m", "matconv.cli", "frame", "reflexive",
             "pm_basis", "--d", "8"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=60)
        assert run.returncode == 4 and run.stdout == ""
        assert "SYMMETRY_ENTRY_CAP" in run.stderr

    def test_group_under_entry_cap_runs(self, capsys):
        assert main(["frame", "reflexive", "pm_basis", "--d", "6"]) == 0
        report = json.loads(capsys.readouterr().out)["result"]
        assert report["vertex_reflexive"] is True
        # 46080 symmetries; the stabilizer of each +-e_i is the signed
        # permutations of the other five coordinates, 2^5 5! of them.
        assert all(r["stabilizer_order"] == 3840
                   for r in report["per_vector"])


class TestVertexReflexive:
    def test_simplex(self):
        f = simplex3_frame()
        ok, report = is_vertex_reflexive(f, symmetry_group(f))
        assert ok
        assert all(r["stabilizer_order"] == 6 for r in report)

    def test_pentagon(self):
        f = pentagon_frame()
        ok, report = is_vertex_reflexive(f, symmetry_group(f))
        assert ok
        assert all(r["stabilizer_order"] == 2 for r in report)

    def test_s5_orbit(self):
        f = s5_orbit_frame()
        ok, report = is_vertex_reflexive(f, symmetry_group(f))
        assert ok
        assert all(r["stabilizer_order"] == 12 for r in report)

    def test_generic_tight_frame_is_not(self):
        # Angles 0, 45, 90, 135 degrees form a tight frame (doubled angles
        # cancel) whose per-vector stabilizers are trivial, so each averaged
        # projection fixes the whole plane, not a line.
        th = np.deg2rad([0.0, 45.0, 90.0, 135.0])
        f = check_tight(np.column_stack([np.cos(th), np.sin(th)]))
        g = symmetry_group(f)
        ok, report = is_vertex_reflexive(f, g)
        assert not ok
        assert any(r["fixed_dim"] == 2 for r in report)

    def test_barycenter_zero(self):
        for f in (simplex3_frame(), pentagon_frame(), s5_orbit_frame()):
            assert np.linalg.norm(f.barycenter()) <= 1e-9


class TestProjectionInvariance:
    def test_symmetric_frames(self):
        # -Phi = Phi makes every projected vertex a rescaling of a vector.
        assert projection_invariance(pm_basis_frame(3))
        assert projection_invariance(cube_corners_frame(2))

    def test_simplex(self):
        assert projection_invariance(simplex3_frame())

    def test_reflexive_implies_invariant(self):
        for f in (pentagon_frame(), s5_orbit_frame(), simplex3_frame()):
            ok, _ = is_vertex_reflexive(f, symmetry_group(f))
            assert ok
            assert projection_invariance(f)

    def test_broken_tight_frame_fails(self):
        # Angles 0, 45, 90, 135 degrees: tight and equal-norm, but the
        # projection of the 45-degree vector onto the first leaves the hull.
        th = np.deg2rad([0.0, 45.0, 90.0, 135.0])
        f = check_tight(np.column_stack([np.cos(th), np.sin(th)]))
        assert not projection_invariance(f)

    def test_one_lp_per_distinct_point(self, monkeypatch):
        # 16 vectors give 256 ordered pairs and 33 distinct projected points
        # (0, the 16 vectors and their 16 halves), but only the far end
        # m_i v_i = -v_i of each ray is tested: at most one LP per vector.
        calls = []

        def counting(V, w):
            calls.append(w)
            return hull_weights(V, w)

        monkeypatch.setattr(frames, "hull_weights", counting)
        f = cube_corners_frame(4)
        assert projection_invariance(f)
        assert len(calls) == f.count
        # Distinct, in the lexicographic order of np.unique.
        assert np.array_equal(calls, np.unique(calls, axis=0))
        assert np.array_equal(calls, np.unique(-f.vectors, axis=0))

    def test_built_frames_match_per_point_oracle(self):
        th = np.deg2rad([0.0, 45.0, 90.0, 135.0])
        built = ([pm_basis_frame(d) for d in range(1, 6)]
                 + [cube_corners_frame(d) for d in range(1, 6)]
                 + [simplex3_frame(), pentagon_frame(), s5_orbit_frame(),
                    combine_frames(pentagon_frame(), pentagon_frame()),
                    check_tight(np.column_stack([np.cos(th), np.sin(th)]))])
        for f in built:
            assert projection_invariance(f) == \
                projection_invariance_per_point(f)

    def test_cli_cube_corners_d10_is_decided(self, capsys):
        # 1024 vectors: the per-point test ran its LPs until the pivot cap.
        assert main(["frame", "invariance", "cube_corners", "--d", "10"]) == 0
        report = json.loads(capsys.readouterr().out)["result"]
        assert report == {"projection_invariant": True}

    def test_cold_cli_run_skips_numpy_ma(self):
        # np.unique(axis=0) imports numpy.ma (about 13 ms) on first use.
        code = ("import contextlib, io, sys\n"
                "from matconv.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['frame', 'invariance', 'simplex3']) == 0\n"
                "assert 'numpy.ma' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("name, d", [("cube_corners", 5),
                                         ("pm_basis", 8)])
    def test_cli_skips_the_symmetry_search(self, capsys, name, d):
        # Neither group can be searched: 32 vectors are above the default
        # search cap of 24, and 2^8 8! symmetries above SYMMETRY_ENTRY_CAP.
        # Invariance never reads the group.
        assert main(["frame", "invariance", name, "--d", str(d)]) == 0
        report = json.loads(capsys.readouterr().out)["result"]
        assert report == {"projection_invariant": True}
        assert main(["frame", "sym", name, "--d", str(d)]) == 4

    def test_cli_lp_cap_is_undecided(self, capsys, monkeypatch):
        monkeypatch.setattr(sdp, "LP_PIVOT_CAP", 1)
        assert main(["frame", "invariance", "cube_corners", "--d", "3"]) == 2
        report = json.loads(capsys.readouterr().out)["result"]
        assert report["projection_invariant"] is None
        assert "iteration cap" in report["message"]


def _frame_family_spectrum_in_hull(f, X, facets) -> bool:
    """The paper's scaled dilation for K = conv(frame): X meets K's facet
    inequalities, the rank-one family ``(d/l^2) v v^T`` dilates it, and the
    joint spectrum of ``T/d`` lies in K, point by point."""
    assert wmax_member(X, facets, tol=1e-8)
    d = f.dim
    lams = (d / f.norm ** 2) * f.vectors[:, :, None] * f.vectors[:, None, :]
    D = lambda_dilation(X, LambdaFamily(lams, np.full(f.count, 1 / f.count)))
    assert D.residuals["compression"] <= 1e-9
    _, spec = simultaneous_diagonalize(D.T, seed=0)
    return all(hull_weights(f.vectors, pt / d) is not None
               for pt in spec.points)


class TestPipeline:
    def test_simplex_scalar_vertex(self):
        f = simplex3_frame()
        assert is_vertex_reflexive(f, symmetry_group(f))[0]
        X = HermTuple([np.array([[c]]) for c in f.vectors[0]])
        facets = Polytope(3, vertices=f.vectors,
                          facet_normals=-f.vectors,
                          facet_offsets=np.ones(4))
        assert _frame_family_spectrum_in_hull(f, X, facets)

    def test_cube_corner_frame_with_anticommuting_pair(self):
        f = cube_corners_frame(2)
        X = clifford_tuple(2).as_herm_tuple()
        assert _frame_family_spectrum_in_hull(f, X, cube_polytope(2))

    def test_pentagon_random_member(self, rng):
        f = pentagon_frame()
        # Facets of the regular pentagon: edge normals at half-angles.
        k = np.arange(5)
        mids = np.column_stack([np.cos(2 * np.pi * (k + 0.5) / 5),
                                np.sin(2 * np.pi * (k + 0.5) / 5)])
        facets = Polytope(2, vertices=f.vectors, facet_normals=mids,
                          facet_offsets=np.full(5, np.cos(np.pi / 5)))
        X = HermTuple(sampling.random_herm_contraction_tuple(2, 2, rng,
                                                             shrink=0.3))
        assert _frame_family_spectrum_in_hull(f, X, facets)

    def test_right_angled_simplex_family(self, rng):
        # K = conv{0, e1, e2, e3} is not a frame hull, but the scaled
        # coordinate projections give the same style of dilation with C = 3:
        # tuples satisfying K's facet inequalities dilate with spectrum in 3K.
        lams = np.stack([3.0 * np.outer(np.eye(3)[i], np.eye(3)[i])
                         for i in range(3)])
        fam = LambdaFamily(lams, np.full(3, 1 / 3))
        K_vertices = np.vstack([np.zeros(3), np.eye(3)])
        for _ in range(5):
            # Members: X_i >= 0 with sum X_i <= I.
            G = random_povm(2, 4, rng)
            X = HermTuple([g.astype(complex) for g in G[:3]])
            D = lambda_dilation(X, fam)
            assert D.residuals["compression"] <= 1e-10
            _, spec = simultaneous_diagonalize(D.T, seed=0)
            for pt in spec.points:
                assert hull_weights(3.0 * K_vertices, pt) is not None


class TestBuilders:
    def test_build_by_name(self):
        assert build_frame("pentagon").count == 5
        assert build_frame("simplex3").count == 4
        assert build_frame("pm_basis", d=4).count == 8
        assert build_frame("cube_corners", d=3).count == 8
        assert build_frame("s5_orbit").count == 10

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            build_frame("dodecahedron")

    def test_dimension_required(self):
        with pytest.raises(ValueError, match="dimension"):
            build_frame("pm_basis")
