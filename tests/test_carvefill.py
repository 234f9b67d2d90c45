"""Ball carving, missing faces, compatible families, filling, realization."""

import copy
import pickle
import random
import re
from collections import Counter
from itertools import combinations, product

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
    join_of_paths,
    missing_face,
    realize,
    triangulate_cell,
)
from sphereforge import carvefill, constructions
from sphereforge.carvefill import FillManifest, FreeSumCell
from sphereforge.constructions import BUILDERS, fill_holes
from sphereforge.errors import DegenerateInput
from sphereforge.sampling import choice_vector

from oracles import (
    boundary_facets,
    boundary_reference,
    boundary_restriction,
    missing_face_reference,
    poly_boundary,
    relabelled,
    triangulate_cell_reference,
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
        with pytest.raises(DegenerateInput, match="^a single-simplex ball cannot be carved$"):
            BallInComplex.of(host, [rs(1, 2, 3, 4)])

    def test_foreign_facet_rejected(self):
        host = SimplicialComplex.from_facets([rs(1, 2, 3, 4), rs(2, 3, 4, 5)])
        with pytest.raises(DegenerateInput, match=f"^{re.escape(repr(rs(7, 8, 9, 10)))} is not a facet of the host$"):
            BallInComplex.of(host, [rs(1, 2, 3, 4), rs(7, 8, 9, 10)])

    def test_no_facet_rejected(self):
        host = SimplicialComplex.from_facets([rs(1, 2, 3, 4), rs(2, 3, 4, 5)])
        with pytest.raises(DegenerateInput, match="^ball needs at least one facet$"):
            BallInComplex.of(host, [])


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
        with pytest.raises(DegenerateInput, match=f"^{re.escape(repr(rs(1, 2, 3, 4)))} is not a facet of the ball$"):
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
        assert frozenset(f) == frozenset(sigma) - frozenset(tau)
        assert len(f) == 1

    def test_glued_tetrahedra_missing_faces_coincide(self):
        host, ball = glued_tetrahedra()
        f1 = missing_face(ball, rs(1, 2, 3, 4))
        f2 = missing_face(ball, rs(2, 3, 4, 5))
        assert f1 == f2 == rs(2, 3, 4)

    def test_no_contact(self):
        host, ball = grid_ball(4, 4)
        mid = host.facet_of((2, 2))
        with pytest.raises(DegenerateInput, match=f"^{re.escape(repr(mid))} has no facet on the ball boundary$"):
            missing_face(ball, mid)

    def test_a_facet_outside_the_ball_is_refused(self):
        host = join_of_paths((4, 4))
        ball = BallInComplex.of(host.complex, [host.facet_of((1, 1)), host.facet_of((1, 2))])
        outside = host.facet_of((3, 3))
        with pytest.raises(DegenerateInput, match=f"^{re.escape(repr(outside))} is not a facet of the ball$"):
            missing_face(ball, outside)


def _families_of(kind, *params):
    """The compatible families a builder fills, as handed to carve_and_fill."""
    seen = []
    real = constructions.carve_and_fill

    def recording(host, holes):
        seen.extend(fam for _, fam in holes)
        return real(host, holes)

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
    "highd": lambda rng: (3, rng.randint(6, 7)),
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
                    except DegenerateInput as exc:
                        with pytest.raises(DegenerateInput, match=f"^{re.escape(str(exc))}$"):
                            missing_face(ball, sigma)
                    else:
                        got = missing_face(ball, sigma)
                        assert got == want and tuple(got) == tuple(want)


class TestBoundaryDifferential:
    """``boundary_complex`` counts ridges on vertex tuples; the
    reference counts every ridge as a ``Simplex``."""

    @pytest.mark.parametrize("kind, params", [
        ("holes4", (5, 7)),
        ("holes3", (6,)),
        ("aztec", (3, 2)),
        ("cyclic", (3,)),
        ("highd", (3, 6)),
        ("aztec-hd", (3, 3, 1)),
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_hosts_holes_and_realizations_match_the_reference(self, monkeypatch, kind, params):
        balls = []
        real = constructions.certified_hole

        def recording(host, key, facets):
            balls.append(real(host, key, facets))
            return balls[-1]

        monkeypatch.setattr(constructions, "certified_hole", recording)
        manifest = BUILDERS[kind](*params).manifest
        assert balls
        for ball in balls:
            assert ball.boundary == boundary_reference(ball.subcomplex)
        xs = list({id(b.host): b.host for b in balls}.values())
        xs += [b.subcomplex for b in balls]
        for seed in (1, 2):
            x = realize(manifest, choice_vector(seed, 0, manifest.n_free_cells))
            xs += [x, SimplicialComplex.from_facets(x.sorted_facets[1:])]
        for i, x in enumerate(xs):
            for y in (x, relabelled(x, i)):
                assert boundary_complex(y) == boundary_reference(y)

    def test_random_complexes_match_the_reference_or_name_the_same_ridge(self):
        rng = random.Random(21)
        for _ in range(300):
            k = rng.randint(1, 4)
            pool = range(rng.randint(k, 8))
            x = SimplicialComplex.from_facets(
                {rs(*rng.sample(pool, k)) for _ in range(rng.randint(1, 10))}
            )
            try:
                want = boundary_reference(x)
            except DegenerateInput as exc:
                with pytest.raises(DegenerateInput, match=f"^{re.escape(str(exc))}$"):
                    boundary_complex(x)
            else:
                assert boundary_complex(x) == want


class TestBoundaryReads:
    """Once the ball boundary is built, each member's missing face is read
    once, by ``CompatibleFamily.of``; compatibility and filling reuse the
    missing faces it recorded.  None of them builds a ``Simplex`` for a
    ridge: the ridges are read as vertex tuples."""

    @staticmethod
    def _counting(monkeypatch):
        """Record each missing-face read and count the simplices built."""
        reads, built = [], []
        real_read = carvefill.missing_face
        real_new = Simplex.__new__
        real_face = Simplex._face.__func__

        def read(ball, sigma):
            reads.append(sigma)
            return real_read(ball, sigma)

        def new(cls, verts):
            built.append(None)
            return real_new(cls, verts)

        def face(cls, verts):
            built.append(None)
            return real_face(cls, verts)

        monkeypatch.setattr(carvefill, "missing_face", read)
        monkeypatch.setattr(Simplex, "__new__", staticmethod(new))
        monkeypatch.setattr(Simplex, "_face", classmethod(face))
        return reads, built

    @pytest.mark.parametrize("width", [3, 4])
    def test_one_missing_face_read_per_member(self, monkeypatch, width):
        host = join_of_paths((9, 7))
        bands = constructions._bands(host, width)
        balls = [constructions.certified_hole(host.complex, q, facets) for q, facets, _, _ in bands]
        member_lists = [bottom + top for _, _, bottom, top in bands]
        for ball in balls:
            ball.boundary
        reads, built = self._counting(monkeypatch)
        outcomes = set()
        for ball, members in zip(balls, member_lists):
            reads.clear()
            built.clear()
            try:
                fam = CompatibleFamily.of(ball, members)
            except DegenerateInput as exc:
                # the two refusals of an incompatible family
                assert str(exc) == "missing faces collide or touch the boundary" or re.fullmatch(
                    r"member .* has a single boundary facet; its fill cell would degenerate to a simplex",
                    str(exc),
                ), exc
                compatible = False
            else:
                compatible = True
            assert sorted(reads) == sorted(members)
            # one simplex per member, its missing face; the compatibility
            # test builds none
            assert len(built) == len(members)
            if compatible:
                built.clear()
                filled, _ = fill_ball(fam, VertexId.hole(1))
                # one per g part and one per cone
                assert len(built) == len(members) + len(filled.simplex_cells)
            assert len(reads) == len(members)
            outcomes.add(compatible)
        # every width-3 band here has two members sharing a missing face,
        # so both outcomes of the compatibility test are read-free
        assert outcomes == {width == 4}

    def test_holes3_reads_the_missing_faces_of_its_bottom_members_once(self, monkeypatch):
        # build_holes3 makes the family of each band's bottom members, so
        # it reads each of their missing faces once and no top member's.
        # Certification interleaves with family building, so the read log
        # is not cleared in it.
        real_bands = constructions._bands
        bottoms, tops = [], []

        def bands(host, width):
            out = real_bands(host, width)
            for _, _, bottom, top in out:
                bottoms.extend(bottom)
                tops.extend(top)
            return out

        class Built(Exception):
            pass

        def stop(host, holes):
            raise Built([fam for _, fam in holes])

        monkeypatch.setattr(constructions, "_bands", bands)
        monkeypatch.setattr(constructions, "carve_and_fill", stop)
        reads, _ = self._counting(monkeypatch)
        with pytest.raises(Built) as built:
            constructions.build_holes3(9, 7)
        assert sorted(reads) == sorted(bottoms)
        assert tops
        fams = built.value.args[0]
        assert sorted(m for fam in fams for m in fam.members) == sorted(bottoms)


class TestFamilyErrors:
    def test_a_member_without_a_boundary_facet(self):
        host, ball = grid_ball(4, 4)
        with pytest.raises(DegenerateInput, match="has no facet on the ball boundary"):
            CompatibleFamily.of(ball, [host.facet_of((2, 2))])

    def test_a_member_with_one_boundary_facet(self):
        host, ball = grid_ball(4, 4)
        with pytest.raises(DegenerateInput, match="single boundary facet"):
            CompatibleFamily.of(ball, [host.facet_of((2, 1))])

    def test_a_member_whose_every_facet_is_on_the_boundary(self):
        # two triangles meeting in a vertex: each one's three edges all
        # lie on the ball boundary
        host = SimplicialComplex.from_facets([rs(1, 2, 3), rs(3, 4, 5)])
        ball = BallInComplex.of(host, host.facets)
        with pytest.raises(DegenerateInput, match="^boundary restriction is the whole cell boundary$"):
            CompatibleFamily.of(ball, [rs(1, 2, 3)])


class TestTheLeastOffenderIsNamed:
    """An error about a set of simplices names the least of them by
    ``verts``, not whichever the set's hash order gives first."""

    def test_facets_outside_the_host(self):
        host = join_of_paths((5, 5))
        wider = join_of_paths((7, 7))
        foreign = [wider.facet_of(c) for c in ((5, 1), (6, 6), (2, 5), (5, 2), (1, 5), (6, 3))]
        least = wider.facet_of((1, 5))
        assert least == min(foreign)
        with pytest.raises(DegenerateInput, match=f"^{re.escape(repr(least))} is not a facet of the host$"):
            BallInComplex.of(host.complex, [host.facet_of((1, 1)), *foreign])

    def test_members_outside_the_ball(self):
        host = join_of_paths((5, 5))
        inside = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)]
        ball = BallInComplex.of(host.complex, [host.facet_of(c) for c in inside])
        outside = [host.facet_of(c) for c in host.box.all_cells() if c not in inside]
        least = host.facet_of((2, 3))
        assert least == min(outside)
        with pytest.raises(DegenerateInput, match=f"^member {re.escape(repr(least))} is not a facet of the ball$"):
            CompatibleFamily.of(ball, [host.facet_of((1, 1)), *outside])

    def test_balls_that_overlap(self):
        host = join_of_paths((5, 5))
        facets = host.complex.sorted_facets
        fams = [
            CompatibleFamily.of(BallInComplex.of(host.complex, part), [])
            for part in (facets[:8], facets[2:12])
        ]
        with pytest.raises(DegenerateInput, match=f"^balls share the simplex {re.escape(repr(facets[2]))}$"):
            carve_and_fill(host.complex, enumerate(fams, start=1))


class TestCompatibility:
    """``CompatibleFamily.of`` makes only compatible families: missing
    faces pairwise distinct and none on the ball boundary."""

    def test_empty_family(self):
        host, ball = grid_ball(3, 3)
        assert CompatibleFamily.of(ball, []).missing_faces == {}

    def test_glued_tetrahedra_incompatible(self):
        host, ball = glued_tetrahedra()
        with pytest.raises(DegenerateInput, match="^missing faces collide or touch the boundary$"):
            CompatibleFamily.of(ball, host.facets)

    def test_grid_corner_family(self):
        host, ball = grid_ball(4, 4)
        members = [host.facet_of((1, 1)), host.facet_of((3, 3))]
        fam = CompatibleFamily.of(ball, members)
        assert fam.members == frozenset(members)

    def test_a_missing_face_on_the_boundary(self):
        # in a strip of three cubes the middle one's missing face is an
        # edge of the strip's boundary; the end ones' are interior
        host = join_of_paths((3, 5))
        ball = BallInComplex.of(host.complex, [host.facet_of((1, j)) for j in (1, 2, 3)])
        assert missing_face(ball, host.facet_of((1, 2))) == Simplex([VertexId.path(1, 1), VertexId.path(1, 2)])
        with pytest.raises(DegenerateInput, match="^missing faces collide or touch the boundary$"):
            CompatibleFamily.of(ball, [host.facet_of((1, 2))])
        CompatibleFamily.of(ball, [host.facet_of((1, 1)), host.facet_of((1, 3))])

    def test_an_incompatible_family_is_refused_before_the_balls_are_compared(self):
        # a width-3 band with the members of both extreme diagonals, and a
        # second hole that overlaps it: the band's family is refused when
        # it is made, before carve_and_fill compares the balls
        host = join_of_paths((9, 9))
        [(q, facets, bottom, top)] = [band for band in constructions._bands(host, 3) if band[0] == 2]
        overlap = [host.facet_of((3, 3)), host.facet_of((3, 4))]
        with pytest.raises(DegenerateInput, match="^missing faces collide or touch the boundary$"):
            constructions.fill_holes(host.complex, [(q, facets, bottom + top), (9, overlap, [])])
        with pytest.raises(DegenerateInput, match="^balls share the simplex "):
            constructions.fill_holes(host.complex, [(q, facets, bottom), (9, overlap, [])])

    @pytest.mark.parametrize("kind", ["holes4", "cyclic", "aztec-hd"])
    def test_faces_on_boundary_agree_with_a_scan_of_every_ridge(self, kind):
        rng = random.Random(f"faces-on-boundary-{kind}")
        for fam in _families_of(kind, *PARAM_RANGES[kind](rng)):
            ball = fam.ball
            ridges = [frozenset(t) for t in ball.boundary.facets]
            faces = [
                Simplex(rng.sample(sigma, k))
                for sigma in rng.sample(sorted(ball.ball_facets), min(6, len(ball.ball_facets)))
                for k in range(1, len(sigma) + 1)
            ]
            want = {f for f in faces if any(frozenset(f) <= r for r in ridges)}
            assert ball.faces_on_boundary(faces) == want
            assert want and want != set(faces)
            for k in {len(f) for f in faces}:
                of_size = [f for f in faces if len(f) == k]
                assert ball.faces_on_boundary(of_size) == want.intersection(of_size)


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

    def test_a_closed_ball_without_members_fills_nothing(self):
        # the boundary of a tetrahedron has no boundary, so there is
        # nothing to cone and, with no members, nothing to merge
        host = SimplicialComplex.from_facets([rs(1, 2, 3), rs(1, 2, 4), rs(1, 3, 4), rs(2, 3, 4)])
        fam = CompatibleFamily.of(BallInComplex.of(host, host.facets), [])
        with pytest.raises(DegenerateInput, match="^fill produced no cells$"):
            fill_ball(fam, VertexId.hole(1))

    def test_apex_collision(self):
        host = SimplicialComplex.from_facets(
            [Simplex([VertexId.hole(1), R(1), R(2)]), Simplex([R(1), R(2), R(3)])]
        )
        ball = BallInComplex.of(host, host.facets)
        fam = CompatibleFamily.of(ball, [])
        with pytest.raises(DegenerateInput, match="^apex h:1 already used$"):
            fill_ball(fam, VertexId.hole(1))


def two_holes():
    # two 2x2 blocks as (key, family) pairs; all four cells of a block
    # share one missing face, so each compatible family holds a single
    # member
    host = join_of_paths((5, 5))
    cells1 = [(1, 1), (1, 2), (2, 1), (2, 2)]
    cells2 = [(3, 3), (3, 4), (4, 3), (4, 4)]
    holes = []
    for key, cells, member in ((1, cells1, (1, 1)), (2, cells2, (4, 4))):
        ball = BallInComplex.of(host.complex, [host.facet_of(c) for c in cells])
        holes.append((key, CompatibleFamily.of(ball, [host.facet_of(member)])))
    return host, holes


def small_two_hole_manifest():
    host, holes = two_holes()
    return host, carve_and_fill(host.complex, holes)


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
        assert [(h.key, len(h.cells)) for h in manifest.holes] == [(1, 1), (2, 1)]
        assert manifest.holes[0].apex == VertexId.hole(1)
        validate_proper_intersections(manifest.result)

    def test_pairs_in_any_order_give_the_manifest_in_key_order(self):
        host, holes = two_holes()
        manifest = carve_and_fill(host.complex, holes)
        assert [(h.key, h.apex) for h in manifest.holes] == [(1, VertexId.hole(1)), (2, VertexId.hole(2))]
        assert carve_and_fill(host.complex, iter(holes[::-1])) == manifest

    def test_a_repeated_key_is_refused(self):
        host, (one, two) = two_holes()
        for key in (1, 2):
            with pytest.raises(DegenerateInput, match=f"^hole key {key} appears twice$"):
                carve_and_fill(host.complex, [(key, one[1]), (key, two[1])])

    @pytest.mark.parametrize("keys, named", [
        ((1, (2, 3)), "hole keys 1 and (2, 3) mix integers and tuples"),
        (((2, 3), 1), "hole keys (2, 3) and 1 mix integers and tuples"),
        (("a", 7), "hole key 'a' is neither"),
        ((7, "a"), "hole key 'a' is neither"),
        ((0.5, 1), "hole key 0.5 is neither"),
        ((True, 2), "hole key True is neither"),
        (((1, True), (2, 3)), "hole key (1, True) is neither"),
        (((3,), (4,)), "hole key (3,) is neither"),
        (("a",), "hole key 'a' is neither"),
        ((True,), "hole key True is neither"),
        ((0.5,), "hole key 0.5 is neither"),
        (((3,),), "hole key (3,) is neither"),
        (((),), "hole key () is neither"),
    ])
    def test_a_key_a_manifest_file_cannot_spell_is_refused(self, keys, named):
        # unchecked, such keys die in the key sort with a TypeError (mixed
        # forms, or "a" and 7), share the apex h:1 (0.5 and 1), or are
        # written to a file that load_manifest refuses ("a", True) or
        # reads back as another key ((3,) as 3)
        host, holes = two_holes()
        with pytest.raises(DegenerateInput, match=f"^{re.escape(named)}"):
            carve_and_fill(host.complex, [(key, fam) for key, (_, fam) in zip(keys, holes)])

    @pytest.mark.parametrize("text", ["x", "1,", ""], ids=["letter", "trailing-comma", "empty"])
    def test_a_key_label_that_is_no_number_is_refused(self, text):
        # unchecked, int() raises a bare ValueError
        with pytest.raises(DegenerateInput, match=f"^bad hole key {re.escape(repr(text))}$"):
            carvefill.key_from_label(text)

    def test_manifest_holes_must_list_each_free_cell_once(self):
        _, m = small_two_hole_manifest()
        h1, h2 = m.holes
        cell1, cell2 = m.free_cells
        for holes in (
            (h1, h2, h2._replace(cells=())),
            (h1, h2._replace(cells=())),
            (h1, h2._replace(cells=(cell2, cell2))),
            (h1._replace(cells=(cell1, cell2)), h2),
        ):
            with pytest.raises(DegenerateInput):
                FillManifest(m.result, holes)
        # only the cover is checked, not which hole holds a cell
        FillManifest(m.result, (h2._replace(cells=(cell2, cell1)), h1._replace(cells=())))

    def test_a_built_manifest_survives_pickle_and_deepcopy(self):
        m = BUILDERS["holes4"](6).manifest
        zeros = (0,) * m.n_free_cells
        for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert copied == m and copied is not m
            assert copied.free_cells == m.free_cells and copied.holes == m.holes
            assert realize(copied, zeros) == realize(m, zeros)

    def test_overlapping_balls_rejected(self):
        host = join_of_paths((5, 5))
        cells1 = [(1, 1), (1, 2), (2, 1), (2, 2)]
        cells2 = [(2, 2), (2, 3), (3, 2), (3, 3)]
        holes = []
        for key, cells in ((1, cells1), (2, cells2)):
            ball = BallInComplex.of(host.complex, [host.facet_of(c) for c in cells])
            holes.append((key, CompatibleFamily.of(ball, [])))
        with pytest.raises(DegenerateInput, match=f"^balls share the simplex {re.escape(repr(host.facet_of((2, 2))))}$"):
            carve_and_fill(host.complex, holes)

    def test_a_family_of_another_host_is_refused(self):
        host, other = join_of_paths((4, 4)), join_of_paths((4, 5))
        ball = BallInComplex.of(other.complex, [other.facet_of((1, 1)), other.facet_of((1, 2))])
        with pytest.raises(DegenerateInput, match="^family ball lives in a different host$"):
            carve_and_fill(host.complex, [(1, CompatibleFamily.of(ball, []))])

    def test_a_ball_with_an_interior_vertex_drops_it(self):
        # the four triangles at the pole r:0 of the octahedron form a disk
        # with r:0 inside; the cone over its boundary replaces r:0 by h:1
        ring = (1, 2, 3, 4, 1)
        facets = [rs(pole, a, b) for pole in (0, 5) for a, b in zip(ring, ring[1:])]
        host = SimplicialComplex.from_facets(facets)
        ball = BallInComplex.of(host, [f for f in facets if R(0) in f])
        m = carve_and_fill(host, [(1, CompatibleFamily.of(ball, []))])
        assert m.result.vertex_set == (host.vertex_set - {R(0)}) | {VertexId.hole(1)}
        cert = certify(realize(m, ()))
        assert (cert.kind, cert.dim) == ("sphere", 2)
        # a triangle outside the ball that holds r:0 keeps it
        pinched = SimplicialComplex.from_facets(facets + [rs(0, 6, 7)])
        ball = BallInComplex.of(pinched, [f for f in facets if R(0) in f])
        m = carve_and_fill(pinched, [(1, CompatibleFamily.of(ball, []))])
        assert m.result.vertex_set == pinched.vertex_set | {VertexId.hole(1)}


def _fill_vertex_count(host, holes):
    """The vertex count of a fill, from the host's facets and the balls:
    the host's vertices, less those in a ball but on no ball's boundary
    that no facet outside every ball holds, plus one apex per hole."""
    balls = [fam.ball.ball_facets for _, fam in holes]
    on_boundary = set()
    for ball in balls:
        ridges = Counter(r for f in ball for r in combinations(f, len(f) - 1))
        on_boundary.update(v for r, n in ridges.items() if n == 1 for v in r)
    inside = set().union(*balls)
    interior = set().union(*inside) - on_boundary
    outside = set().union(*(f for f in host.facets if f not in inside))
    return len(set().union(*host.facets)) - len(interior - outside) + len(balls)


class TestAFillHasTheVerticesOfItsRule:
    """Every fill that ``fill_holes`` makes, the one path of the builders
    and of ``fill``, has the vertex count of ``_fill_vertex_count``: the
    rule that ``carve_and_fill`` proves rather than recounts."""

    @pytest.fixture
    def fills(self, monkeypatch):
        made = []
        real = constructions.carve_and_fill

        def recording(host, holes):
            holes = list(holes)
            made.append((host, holes, real(host, holes)))
            return made[-1][2]

        monkeypatch.setattr(constructions, "carve_and_fill", recording)
        return made

    def _check(self, fills):
        assert fills
        for host, holes, manifest in fills:
            assert len(manifest.result.vertex_set) == _fill_vertex_count(host, holes)

    @pytest.mark.parametrize("kind, params", [
        ("holes4", (5, 7)),
        ("holes3", (6,)),
        ("aztec", (3, 2)),
        ("cyclic", (4,)),
        ("highd", (3, 6)),
        ("aztec-hd", (3, 3, 1)),
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_every_builder(self, fills, kind, params):
        BUILDERS[kind](*params)
        self._check(fills)

    def test_a_fill_of_the_octahedron_hole_and_its_pinched_host(self, fills):
        # the four triangles at the pole r:0 form a disk with r:0 inside;
        # a triangle outside the disk that holds r:0 keeps it
        ring = (1, 2, 3, 4, 1)
        facets = [rs(pole, a, b) for pole in (0, 5) for a, b in zip(ring, ring[1:])]
        for host, count in (
            (SimplicialComplex.from_facets(facets), 6),
            (SimplicialComplex.from_facets(facets + [rs(0, 6, 7)]), 9),
        ):
            manifest = fill_holes(host, [(1, facets[:4], [])])
            assert len(manifest.result.vertex_set) == count
        self._check(fills)

    def test_a_two_hole_fill(self, fills):
        host = join_of_paths((5, 5))
        holes = [
            (key, [host.facet_of(c) for c in cells], [host.facet_of(member)])
            for key, cells, member in (
                (1, [(1, 1), (1, 2), (2, 1), (2, 2)], (1, 1)),
                (2, [(3, 3), (3, 4), (4, 3), (4, 4)], (4, 4)),
            )
        ]
        fill_holes(host.complex, holes)
        self._check(fills)


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

    def test_choice_must_be_a_bit(self):
        cell = FreeSumCell(rs(1, 2), rs(3, 4, 5))
        for choice in (-1, 2):
            with pytest.raises(DegenerateInput):
                triangulate_cell(cell, choice)


# builder -> small arguments; every free cell of each is checked
SMALL_BUILDS = {
    "holes4": (9,),
    "cyclic": (6,),
    "highd": (3, 6),
    "aztec": (3, 2),
    "aztec-hd": (3, 3, 1),
}


@pytest.fixture(scope="module")
def small_manifests():
    return {kind: BUILDERS[kind](*args).manifest for kind, args in SMALL_BUILDS.items()}


class TestRealizeAgainstReference:
    @pytest.mark.parametrize("kind", list(SMALL_BUILDS))
    def test_every_free_cell_triangulates_as_the_reference_in_order(self, small_manifests, kind):
        cells = small_manifests[kind].free_cells
        assert cells
        for cell in cells:
            for choice in (0, 1):
                assert triangulate_cell(cell, choice) == triangulate_cell_reference(cell, choice)

    @pytest.mark.parametrize("kind", list(SMALL_BUILDS))
    def test_a_realization_has_the_vertices_of_a_recount(self, small_manifests, kind):
        manifest = small_manifests[kind]
        for seed in (1, 2):
            x = realize(manifest, choice_vector(seed, 0, manifest.n_free_cells))
            fresh = SimplicialComplex.from_facets(x.facets)
            assert x.vertex_set == fresh.vertex_set
            assert x.vertices == fresh.vertices


class TestRealize:
    def test_identity_without_free_cells(self):
        host = join_of_paths((3, 3))
        manifest = carve_and_fill(host.complex, [])
        assert realize(manifest, []).facets == host.complex.facets

    def test_choice_length(self):
        _, manifest = small_two_hole_manifest()
        with pytest.raises(DegenerateInput, match=f"^{manifest.n_free_cells} free cells but 3 choices$"):
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
