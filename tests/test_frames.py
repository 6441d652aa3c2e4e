import numpy as np
import pytest

from conftest import combine_frames, random_povm
from matconv import sampling
from matconv.frames import (
    FrameError,
    NotEqualNormError,
    NotTightError,
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
    vertex_reflexive_pipeline,
)
from matconv.sdp import point_in_hull
from matconv.sets import HermTuple, Polytope, cube_polytope


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
        assert g.orbit(0) == set(range(10))
        assert g.orbit(10) == set(range(10, 15))
        for U in g.matrices:
            assert np.max(np.abs(U[:4, 4:])) <= 1e-8
            assert np.max(np.abs(U[4:, :4])) <= 1e-8

    def test_cap(self):
        with pytest.raises(FrameError, match="cap"):
            symmetry_group(cube_corners_frame(5), cap=24)


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


class TestPipeline:
    def test_simplex_scalar_vertex(self):
        f = simplex3_frame()
        x = f.vectors[0]
        X = HermTuple([np.array([[c]]) for c in x])
        facets = Polytope(3, vertices=f.vectors,
                          facet_normals=-f.vectors,
                          facet_offsets=np.ones(4))
        rep = vertex_reflexive_pipeline(f, X, facets=facets)
        assert rep.spectrum_ok
        assert rep.hypothesis == "vertex reflexive"
        assert rep.residuals["compression"] <= 1e-9

    def test_cube_corner_frame_with_anticommuting_pair(self):
        from matconv.witnesses import clifford_tuple
        f = cube_corners_frame(2)
        X = clifford_tuple(2).as_herm_tuple()
        rep = vertex_reflexive_pipeline(f, X, facets=cube_polytope(2))
        assert rep.spectrum_ok
        assert rep.scale == 2.0

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
        rep = vertex_reflexive_pipeline(f, X, facets=facets)
        assert rep.spectrum_ok

    def test_missing_facets_requested(self):
        f = simplex3_frame()
        X = HermTuple([np.zeros((1, 1))] * 3)
        with pytest.raises(Exception, match="facets"):
            vertex_reflexive_pipeline(f, X, facets=None)

    def test_right_angled_simplex_family(self, rng):
        # K = conv{0, e1, e2, e3} is not a frame hull, but the scaled
        # coordinate projections give the same style of dilation with C = 3:
        # tuples satisfying K's facet inequalities dilate with spectrum in 3K.
        from matconv.dilation import LambdaFamily, joint_spectrum_rank_one, \
            lambda_dilation
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
            spec = joint_spectrum_rank_one(fam, X)
            for pt in spec.points:
                assert point_in_hull(3.0 * K_vertices, np.real(pt))


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
