"""Ball carving, missing faces, compatible families, filling, realization."""

import random
from itertools import product

import pytest

from sphereforge import (
    BallInComplex,
    CompatibleFamily,
    Simplex,
    SimplicialComplex,
    VertexId,
    betti_gf2,
    boundary_complex,
    carve_and_fill,
    certify,
    fill_ball,
    is_compatible,
    join_of_paths,
    missing_face,
    realize,
    triangulate_cell,
)
from sphereforge import constructions
from sphereforge.carvefill import FillManifest, FreeSumCell
from sphereforge.constructions import BUILDERS
from sphereforge.errors import (
    BallOverlap,
    ChoiceLengthMismatch,
    DegenerateInput,
    DisjointnessViolation,
    FaceNotFound,
    IncompatibleFamily,
    NoBoundaryContact,
    SingleSimplexBall,
)

from oracles import (
    boundary_facets,
    boundary_restriction,
    missing_face_reference,
    poly_boundary,
    validate_proper_intersections,
)

R = VertexId.raw


def rs(*ns):
    return Simplex(R(n) for n in ns)


def glued_tetrahedra():
    host = SimplicialComplex.from_facets([rs(1, 2, 3, 4), rs(2, 3, 4, 5)])
    ball = BallInComplex.of(host, host.facets)
    return host, ball


def grid_ball(n, m):
    host = join_of_paths((n, m))
    return host, BallInComplex.of(host.complex, host.complex.facets)


class TestBallInComplex:
    def test_single_simplex_rejected(self):
        host = SimplicialComplex.from_facets([rs(1, 2, 3, 4), rs(2, 3, 4, 5)])
        with pytest.raises(SingleSimplexBall):
            BallInComplex.of(host, [rs(1, 2, 3, 4)])

    def test_foreign_facet_rejected(self):
        host = SimplicialComplex.from_facets([rs(1, 2, 3, 4), rs(2, 3, 4, 5)])
        with pytest.raises(FaceNotFound):
            BallInComplex.of(host, [rs(1, 2, 3, 4), rs(7, 8, 9, 10)])


class TestBoundaryRestriction:
    def test_corner_of_2x2_grid(self):
        host, ball = grid_ball(3, 3)
        corner = host.facet_of((1, 1))
        d = boundary_restriction(ball, corner)
        assert d.n_facets == 2 and d.dim == 2

    def test_interior_cell_empty(self):
        host, ball = grid_ball(4, 4)
        mid = host.facet_of((2, 2))
        assert boundary_restriction(ball, mid).is_void

    def test_glued_tetrahedra(self):
        host, ball = glued_tetrahedra()
        for f in host.facets:
            d = boundary_restriction(ball, f)
            assert d.n_facets == 3

    def test_foreign_cell(self):
        host, ball = grid_ball(3, 3)
        with pytest.raises(FaceNotFound):
            boundary_restriction(ball, rs(1, 2, 3, 4))


class TestMissingFace:
    def test_two_boundary_facets_give_edge(self):
        host, ball = grid_ball(4, 4)
        corner = host.facet_of((1, 1))
        f = missing_face(ball, corner)
        # corner cell: missing neighbors below and left, missing face is the
        # opposite diagonal edge
        assert f == Simplex([VertexId.path(1, 2), VertexId.path(2, 2)])

    def test_single_boundary_facet_gives_opposite_vertex(self):
        # in the full 3x3 grid ball, an edge-midside cell has exactly one
        # boundary facet, and the missing face is the vertex opposite it
        host, ball = grid_ball(4, 4)
        sigma = host.facet_of((2, 1))
        d = boundary_restriction(ball, sigma)
        assert d.n_facets == 1
        tau = next(iter(d.facets))
        f = missing_face(ball, sigma)
        assert f.vset == sigma.vset - tau.vset
        assert len(f) == 1

    def test_glued_tetrahedra_missing_faces_coincide(self):
        host, ball = glued_tetrahedra()
        f1 = missing_face(ball, rs(1, 2, 3, 4))
        f2 = missing_face(ball, rs(2, 3, 4, 5))
        assert f1 == f2 == rs(2, 3, 4)

    def test_no_contact(self):
        host, ball = grid_ball(4, 4)
        with pytest.raises(NoBoundaryContact):
            missing_face(ball, host.facet_of((2, 2)))


def _families_of(kind, *params):
    """The compatible families a builder fills, as handed to carve_and_fill."""
    seen = []
    real = constructions.carve_and_fill

    def recording(host, fams, keys=None):
        seen.extend(fams)
        return real(host, fams, keys=keys)

    constructions.carve_and_fill = recording
    try:
        BUILDERS[kind](*params)
    finally:
        constructions.carve_and_fill = real
    return seen


# Each builder's parameters are drawn from a seeded generator within
# ranges that build in well under a second.
PARAM_RANGES = {
    "holes4": lambda rng: (rng.randint(4, 9), rng.randint(4, 9)),
    "holes3": lambda rng: (rng.randint(4, 8), rng.randint(4, 8)),
    "aztec": lambda rng: (rng.choice((3, 5)), rng.randint(1, 2)),
    "cyclic": lambda rng: (rng.randint(3, 5),),
    "highd": lambda rng: (3, rng.randint(4, 6)),
    "aztec-hd": lambda rng: (rng.choice((2, 3)), 3, 1),
}


class TestMissingFaceDifferential:
    @pytest.mark.parametrize("kind", list(PARAM_RANGES))
    def test_read_off_matches_the_intersection_on_every_ball_facet(self, kind):
        rng = random.Random(f"missing-face-{kind}")
        for _ in range(2):
            fams = _families_of(kind, *PARAM_RANGES[kind](rng))
            assert fams
            for fam in fams:
                ball = fam.ball
                for m in fam.members:
                    assert fam.missing_faces[m] == missing_face(ball, m) == missing_face_reference(ball, m)
                for sigma in ball.ball_facets:
                    try:
                        want = missing_face_reference(ball, sigma)
                    except (NoBoundaryContact, SingleSimplexBall) as exc:
                        with pytest.raises(type(exc)):
                            missing_face(ball, sigma)
                    else:
                        got = missing_face(ball, sigma)
                        assert got == want and got.verts == want.verts


class TestBoundaryReads:
    """Once the ball boundary is built, each member's boundary facets are
    read once, by ``CompatibleFamily.of``; compatibility and filling reuse
    the missing faces it recorded."""

    @pytest.mark.parametrize("width", [3, 4])
    def test_one_facet_list_per_member(self, monkeypatch, width):
        host = join_of_paths((9, 7))
        _, balls, member_lists = constructions._grid_band_families(host, width)
        for ball in balls:
            ball.boundary
        reads = []
        real = Simplex.facets

        def counting(self):
            reads.append(self)
            return real(self)

        monkeypatch.setattr(Simplex, "facets", counting)
        outcomes = set()
        for ball, members in zip(balls, member_lists):
            reads.clear()
            fam = CompatibleFamily.of(ball, members)
            assert sorted(reads) == sorted(members)
            compatible = is_compatible(fam)
            if compatible:
                fill_ball(fam, VertexId.hole(1))
            assert len(reads) == len(members)
            outcomes.add(compatible)
        # every width-3 band here has two members sharing a missing face,
        # so both outcomes of is_compatible are read-free
        assert outcomes == {width == 4}


class TestFamilyErrors:
    def test_a_member_without_a_boundary_facet(self):
        host, ball = grid_ball(4, 4)
        with pytest.raises(NoBoundaryContact, match="has no facet on the ball boundary"):
            CompatibleFamily.of(ball, [host.facet_of((2, 2))])

    def test_a_member_with_one_boundary_facet(self):
        host, ball = grid_ball(4, 4)
        with pytest.raises(IncompatibleFamily, match="single boundary facet"):
            CompatibleFamily.of(ball, [host.facet_of((2, 1))])

    def test_a_member_whose_every_facet_is_on_the_boundary(self):
        # two triangles meeting in a vertex: each one's three edges all
        # lie on the ball boundary
        host = SimplicialComplex.from_facets([rs(1, 2, 3), rs(3, 4, 5)])
        ball = BallInComplex.of(host, host.facets)
        with pytest.raises(SingleSimplexBall):
            CompatibleFamily.of(ball, [rs(1, 2, 3)])


class TestCompatibility:
    def test_empty_family(self):
        host, ball = grid_ball(3, 3)
        fam = CompatibleFamily.of(ball, [])
        assert is_compatible(fam)

    def test_glued_tetrahedra_incompatible(self):
        host, ball = glued_tetrahedra()
        fam = CompatibleFamily.of(ball, host.facets)
        assert not is_compatible(fam)

    def test_grid_corner_family(self):
        host, ball = grid_ball(4, 4)
        fam = CompatibleFamily.of(
            ball, [host.facet_of((1, 1)), host.facet_of((3, 3))]
        )
        assert is_compatible(fam)


class TestFillBall:
    def test_empty_family_is_cone(self):
        host, ball = grid_ball(3, 3)
        fam = CompatibleFamily.of(ball, [])
        filled, free = fill_ball(fam, VertexId.hole(1))
        assert not free
        assert len(filled.simplex_cells) == ball.boundary.n_facets
        assert poly_boundary(filled).facets == ball.boundary.facets

    def test_fill_preserves_boundary(self):
        host, ball = grid_ball(4, 4)
        members = [host.facet_of((1, 1)), host.facet_of((3, 3))]
        fam = CompatibleFamily.of(ball, members)
        filled, free = fill_ball(fam, VertexId.hole(1))
        assert len(free) == 2
        assert poly_boundary(filled).facets == ball.boundary.facets
        validate_proper_intersections(filled)

    def test_incompatible_rejected(self):
        host, ball = glued_tetrahedra()
        fam = CompatibleFamily.of(ball, host.facets)
        with pytest.raises(IncompatibleFamily):
            fill_ball(fam, VertexId.hole(1))

    def test_apex_collision(self):
        host = SimplicialComplex.from_facets(
            [Simplex([VertexId.hole(1), R(1), R(2)]), Simplex([R(1), R(2), R(3)])]
        )
        ball = BallInComplex.of(host, host.facets)
        fam = CompatibleFamily.of(ball, [])
        with pytest.raises(DisjointnessViolation):
            fill_ball(fam, VertexId.hole(1))


def small_two_hole_manifest():
    # two 2x2 blocks; all four cells of a block share one missing face, so
    # each compatible family holds a single member
    host = join_of_paths((5, 5))
    cells1 = [(1, 1), (1, 2), (2, 1), (2, 2)]
    cells2 = [(3, 3), (3, 4), (4, 3), (4, 4)]
    fams = []
    for cells, member in ((cells1, (1, 1)), (cells2, (4, 4))):
        ball = BallInComplex.of(host.complex, [host.facet_of(c) for c in cells])
        fams.append(CompatibleFamily.of(ball, [host.facet_of(member)]))
    return host, carve_and_fill(host.complex, fams, keys=[1, 2])


class TestCarveAndFill:
    def test_zero_balls_identity(self):
        host = join_of_paths((3, 3))
        manifest = carve_and_fill(host.complex, [])
        assert manifest.result.simplex_cells == host.complex.facets
        assert not manifest.free_cells

    def test_vertex_count(self):
        host, manifest = small_two_hole_manifest()
        assert len(manifest.result.vertex_set) == len(host.complex.vertex_set) + 2

    def test_free_cell_bookkeeping(self):
        host, manifest = small_two_hole_manifest()
        assert manifest.n_free_cells == 2
        assert [len(manifest.free_cells_by_ball[k]) for k in manifest.hole_keys] == [1, 1]
        assert manifest.apex_of_ball[1] == VertexId.hole(1)
        validate_proper_intersections(manifest.result)

    def test_manifest_holes_must_list_each_free_cell_once(self):
        _, m = small_two_hole_manifest()
        cell1, cell2 = m.free_cells
        for keys, by_ball in (
            ((1, 2, 2), m.free_cells_by_ball),
            ((1, 2), {1: (cell1,), 2: ()}),
            ((1, 2), {1: (cell1,), 2: (cell2, cell2)}),
            ((1, 2), {1: (cell1, cell2), 2: (cell2,)}),
        ):
            with pytest.raises(DegenerateInput):
                FillManifest(m.result, keys, by_ball, m.apex_of_ball)
        # only the cover is checked, not which hole holds a cell
        FillManifest(m.result, (2, 1), {1: (), 2: (cell2, cell1)}, m.apex_of_ball)

    def test_overlapping_balls_rejected(self):
        host = join_of_paths((5, 5))
        cells1 = [(1, 1), (1, 2), (2, 1), (2, 2)]
        cells2 = [(2, 2), (2, 3), (3, 2), (3, 3)]
        fams = []
        for cells in (cells1, cells2):
            ball = BallInComplex.of(host.complex, [host.facet_of(c) for c in cells])
            fams.append(CompatibleFamily.of(ball, []))
        with pytest.raises(BallOverlap):
            carve_and_fill(host.complex, fams)


class TestTriangulateCell:
    def test_bipyramid(self):
        cell = FreeSumCell(rs(1, 2), rs(3, 4, 5))
        t0 = triangulate_cell(cell, 0)
        t1 = triangulate_cell(cell, 1)
        assert len(t0) == 3 and len(t1) == 2
        assert t0 == sorted([rs(1, 2, 3, 4), rs(1, 2, 3, 5), rs(1, 2, 4, 5)])
        assert t1 == sorted([rs(1, 3, 4, 5), rs(2, 3, 4, 5)])

    def test_square_cell(self):
        cell = FreeSumCell(rs(1, 2), rs(3, 4))
        assert len(triangulate_cell(cell, 0)) == 2
        assert len(triangulate_cell(cell, 1)) == 2

    def test_high_dim_cell(self):
        cell = FreeSumCell(rs(1, 2, 3), rs(4, 5, 6, 7))
        assert len(triangulate_cell(cell, 0)) == 4
        assert len(triangulate_cell(cell, 1)) == 3

    def test_boundary_intact(self):
        cell = FreeSumCell(rs(1, 2), rs(3, 4, 5))
        for choice in (0, 1):
            tris = SimplicialComplex.from_facets(triangulate_cell(cell, choice))
            assert boundary_complex(tris).facets == frozenset(boundary_facets(cell))


class TestRealize:
    def test_identity_without_free_cells(self):
        host = join_of_paths((3, 3))
        manifest = carve_and_fill(host.complex, [])
        assert realize(manifest, []).facets == host.complex.facets

    def test_choice_length(self):
        _, manifest = small_two_hole_manifest()
        with pytest.raises(ChoiceLengthMismatch):
            realize(manifest, [0, 1, 1])

    def test_all_realizations_distinct_and_homology_preserved(self):
        host, manifest = small_two_hole_manifest()
        base = betti_gf2(host.complex)
        seen = set()
        for bits in product((0, 1), repeat=manifest.n_free_cells):
            r = realize(manifest, bits)
            seen.add(r.facets)
            assert betti_gf2(r) == base
        assert len(seen) == 2 ** manifest.n_free_cells

    def test_one_bit_flip_is_bistellar(self):
        _, manifest = small_two_hole_manifest()
        zero = realize(manifest, [0, 0]).facets
        for i in range(2):
            bits = [0, 0]
            bits[i] = 1
            other = realize(manifest, bits).facets
            cell = manifest.free_cells[i]
            assert len(zero ^ other) == len(cell.f_part) + len(cell.g_part)

    def test_realizations_certify(self):
        host, manifest = small_two_hole_manifest()
        for bits in ((0, 0), (1, 1), (0, 1)):
            assert certify(realize(manifest, bits)).is_ball(3)
