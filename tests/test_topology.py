"""Homology and certification oracles on hand-checked complexes."""

from collections import defaultdict
from itertools import combinations

import pytest

from sphereforge import (
    Simplex,
    SimplicialComplex,
    VertexId,
    betti_gf2,
    boundary_complex,
    certify,
    verify_shelling,
)
from sphereforge import topology
from sphereforge.carvefill import realize
from sphereforge.constructions import (
    build_aztec,
    build_aztec_highd,
    build_cyclic,
    build_highd,
    build_holes4,
)
from sphereforge.errors import InvalidOrder
from sphereforge.sampling import choice_vector

import oracles
from oracles import (
    certify_reference,
    circle_times_sphere,
    cone,
    cyclic_polytope_facets,
    join,
    suspended_prism,
)

R = VertexId.raw


def rs(*ns):
    return Simplex(R(n) for n in ns)


def sphere0(u, w):
    return SimplicialComplex.from_facets([Simplex([R(u)]), Simplex([R(w)])])


def circle(base, n):
    return SimplicialComplex.from_facets(
        Simplex([R(base + i), R(base + (i + 1) % n)]) for i in range(n)
    )


def paths_join(n, m):
    a = [VertexId.path(1, i) for i in range(1, n + 1)]
    b = [VertexId.path(2, j) for j in range(1, m + 1)]
    return SimplicialComplex.from_facets(
        Simplex([a[i], a[i + 1], b[j], b[j + 1]])
        for i in range(n - 1)
        for j in range(m - 1)
    )


class TestBetti:
    def test_boundary_of_4_simplex(self):
        assert betti_gf2(cyclic_polytope_facets(5, 4)) == (0, 0, 0, 1)

    def test_cones_are_acyclic(self):
        for base in (cyclic_polytope_facets(6, 4), paths_join(3, 3)):
            c = cone(base, VertexId.cone())
            assert all(b == 0 for b in betti_gf2(c))

    def test_larger_cyclic_boundary(self):
        assert betti_gf2(cyclic_polytope_facets(8, 4)) == (0, 0, 0, 1)

    def test_circle_and_torus_like(self):
        assert betti_gf2(circle(0, 5)) == (0, 1)
        # two disjoint circles: reduced b0 = 1, b1 = 2
        two = SimplicialComplex.from_facets(
            list(circle(0, 4).facets) + list(circle(10, 4).facets)
        )
        assert betti_gf2(two) == (1, 2)


class TestCertify:
    def test_sphere_examples(self):
        for n in range(5, 11):
            cert = certify(cyclic_polytope_facets(n, 4))
            assert cert.is_sphere(3), (n, cert)

    def test_join_of_paths_is_ball(self):
        cert = certify(paths_join(4, 4))
        assert cert.is_ball(3)
        assert all(b == 0 for b in cert.betti)

    def test_single_tetrahedron_is_ball(self):
        assert certify(SimplicialComplex.from_facets([rs(1, 2, 3, 4)])).is_ball(3)

    def test_two_tetrahedra_sharing_vertex(self):
        x = SimplicialComplex.from_facets([rs(1, 2, 3, 4), rs(4, 5, 6, 7)])
        assert certify(x).kind == "neither"

    def test_sphere_join_rule(self):
        # S^0 * S^0 = S^1, S^0 * S^1 = S^2, S^1 * S^1 = S^3
        s0a, s0b = sphere0(1, 2), sphere0(3, 4)
        s1 = join(s0a, s0b)
        assert certify(s1).is_sphere(1)
        s2 = join(s1, sphere0(5, 6))
        assert certify(s2).is_sphere(2)
        s3 = join(join(s0a, s0b), join(sphere0(5, 6), sphere0(7, 8)))
        assert certify(s3).is_sphere(3)

    def test_dim1_cases(self):
        assert certify(circle(0, 6)).is_sphere(1)
        path = SimplicialComplex.from_facets(
            [Simplex([R(i), R(i + 1)]) for i in range(4)]
        )
        assert certify(path).is_ball(1)

    def test_cone_over_sphere_is_ball(self):
        ball = cone(cyclic_polytope_facets(7, 4), VertexId.cone())
        assert certify(ball).is_ball(4)

    def test_pinched_sphere_rejected(self):
        # two triangles glued along an edge, plus a flap making a ridge of 3
        x = SimplicialComplex.from_facets([rs(1, 2, 3), rs(1, 2, 4), rs(1, 2, 5)])
        assert certify(x).kind == "neither"
        assert not certify(x).pseudomanifold


class TestShelling:
    def test_single_facet(self):
        x = SimplicialComplex.from_facets([rs(1, 2, 3, 4)])
        assert verify_shelling(x, (rs(1, 2, 3, 4),))

    def test_almost_closed_ball_shelling(self):
        # all but one facet of the boundary of a 4-simplex form a shellable ball
        full = sorted(cyclic_polytope_facets(5, 4).facets)
        x = SimplicialComplex.from_facets(full[:-1])
        assert verify_shelling(x, full[:-1])

    def test_disjoint_second_facet_rejected(self):
        x = SimplicialComplex.from_facets([rs(1, 2, 3), rs(4, 5, 6), rs(3, 4, 5)])
        assert not verify_shelling(x, [rs(1, 2, 3), rs(4, 5, 6), rs(3, 4, 5)])

    def test_low_dimensional_contact_rejected(self):
        # second facet meets the first only in a vertex
        x = SimplicialComplex.from_facets([rs(1, 2, 3), rs(3, 4, 5), rs(2, 3, 4)])
        assert not verify_shelling(x, [rs(1, 2, 3), rs(3, 4, 5), rs(2, 3, 4)])
        assert verify_shelling(x, [rs(1, 2, 3), rs(2, 3, 4), rs(3, 4, 5)])

    def test_not_a_permutation(self):
        x = SimplicialComplex.from_facets([rs(1, 2, 3), rs(2, 3, 4)])
        with pytest.raises(InvalidOrder):
            verify_shelling(x, [rs(1, 2, 3)])
        with pytest.raises(InvalidOrder):
            verify_shelling(x, [rs(1, 2, 3), rs(1, 2, 3)])

    def test_closing_a_sphere_rejected(self):
        # in a closed complex the last facet always meets the union of the
        # others in its whole boundary, which a ball shelling must reject
        x = cyclic_polytope_facets(5, 4)
        assert not verify_shelling(x, sorted(x.facets))


class TestBoundaryCertificates:
    def test_ball_boundary_is_sphere(self):
        ball = paths_join(4, 5)
        bd = boundary_complex(ball)
        assert certify(bd).is_sphere(2)


def surface(*facets):
    return SimplicialComplex.from_facets(rs(*f) for f in facets)


def capped_tube(rings, bottom):
    """A tube of ``rings`` triangles of vertices, its ends coned to the
    vertices 0 and ``bottom``: a 2-sphere, or one pinched at a point when
    ``bottom`` is 0."""
    ring = [[10 + 3 * r + i for i in range(3)] for r in range(rings)]
    facets = [(0, ring[0][i], ring[0][(i + 1) % 3]) for i in range(3)]
    facets += [(bottom, ring[-1][i], ring[-1][(i + 1) % 3]) for i in range(3)]
    for a, b in zip(ring, ring[1:]):
        for i in range(3):
            j = (i + 1) % 3
            facets += [(a[i], a[j], b[i]), (a[j], b[i], b[j])]
    return surface(*facets)


# Surfaces that are not spheres or disks, each with the reduced GF(2)
# Betti numbers of itself, its cone and its suspension.
NOT_SPHERES_OR_DISKS = {
    "torus": (
        surface(*[(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)],
                *[(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]),
        (0, 2, 1), (0, 0, 0, 0), (0, 0, 2, 1),
    ),
    "rp2": (
        surface((1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
                (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)),
        (0, 1, 1), (0, 0, 0, 0), (0, 0, 1, 1),
    ),
    "pinched-s2": (capped_tube(3, 0), (0, 1, 1), (0, 0, 0, 0), (0, 0, 1, 1)),
    "annulus": (
        surface(*[(i, (i + 1) % 4, 10 + i) for i in range(4)],
                *[((i + 1) % 4, 10 + i, 10 + (i + 1) % 4) for i in range(4)]),
        (0, 1, 0), (0, 0, 0, 0), (0, 0, 1, 0),
    ),
    "mobius": (
        surface(*[(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)]),
        (0, 1, 0), (0, 0, 0, 0), (0, 0, 1, 0),
    ),
}


class TestCountingCertificates:
    """The certificate takes the outer GF(2) ranks and the kind of every
    2-dimensional complex from face counts; these pin it against the full
    elimination of ``betti_gf2``."""

    @pytest.mark.parametrize("name", NOT_SPHERES_OR_DISKS)
    def test_surfaces_their_cones_and_suspensions_are_neither(self, name):
        x, betti, cone_betti, suspension_betti = NOT_SPHERES_OR_DISKS[name]
        for y, expected in (
            (x, betti),
            (cone(x, VertexId.cone()), cone_betti),
            (join(x, sphere0(900, 901)), suspension_betti),
        ):
            cert = certify(y)
            assert (cert.kind, cert.betti) == ("neither", expected), y.dim
            assert cert.pseudomanifold and cert.dual_connected
            assert betti_gf2(y) == expected

    def test_the_tube_with_two_caps_is_a_sphere_and_its_cone_a_ball(self):
        x = capped_tube(3, 1)
        assert certify(x).is_sphere(2)
        assert certify(cone(x, VertexId.cone())).is_ball(3)
        assert certify(SimplicialComplex.from_facets(x.sorted_facets[1:])).is_ball(2)

    @pytest.mark.parametrize("build, args", [
        (build_holes4, (9,)),
        (build_cyclic, (10,)),
        (build_highd, (3, 6)),
        (build_aztec, (3, 2)),
    ], ids=["holes4-9", "cyclic-10", "highd-3-6", "aztec-3-2"])
    def test_betti_numbers_match_full_elimination(self, build, args):
        manifest = build(*args).manifest
        x = realize(manifest, choice_vector(5, 1, manifest.n_free_cells))
        facets = x.sorted_facets
        for y in (x, SimplicialComplex.from_facets(facets[1:]),
                  SimplicialComplex.from_facets(facets[1:-1])):
            assert certify(y).betti == betti_gf2(y)

    def test_a_3_sphere_takes_one_elimination(self, monkeypatch):
        # top rank and bottom rank are counted, so only d_2 is eliminated,
        # and the 2-dimensional vertex links are classified by chi alone
        manifest = build_holes4(9).manifest
        x = realize(manifest, (0,) * manifest.n_free_cells)
        calls = count_eliminations(monkeypatch)
        assert certify(x).is_sphere(3)
        assert len(calls) == 1

    def test_a_5_sphere_reads_its_upper_ranks_off_duality(self, monkeypatch):
        # the top eliminates d_2 and d_3 but not d_4, and each 4-dimensional
        # link eliminates only d_2 of its own
        manifest = build_highd(3, 6).manifest
        x = realize(manifest, (0,) * manifest.n_free_cells)
        facets = topology._indexed_facets(x)
        f2, f3, f4 = (len(faces) for faces in topology._faces_by_dim(facets, range(2, 5)))
        calls = count_eliminations(monkeypatch)
        assert certify(x).is_sphere(5)
        assert f2 in calls and f3 in calls and f4 not in calls
        assert len(calls) == ELIMINATIONS_HIGHD_3_6


# Eliminations made to certify the zero realization of highd(3,6): 2 by
# the top, 1 by each of the 4-dimensional links of its 22 vertices and 1
# by each of the 3-dimensional links of its 186 edges.  Eliminating every
# rank but the outer two takes 233 = 3 + 2 * 22 + 186.
ELIMINATIONS_HIGHD_3_6 = 2 + 22 + 186


def count_eliminations(monkeypatch):
    """Make ``topology._rank_gf2`` record the number of columns of each
    matrix it eliminates, and return that record."""
    calls = []
    rank_gf2 = topology._rank_gf2

    def counting(columns):
        calls.append(len(columns))
        return rank_gf2(columns)

    monkeypatch.setattr(topology, "_rank_gf2", counting)
    return calls


class TestDuality:
    """A closed 4- or 5-complex whose links certify takes its upper ranks
    from Poincare duality; one whose link fails is eliminated in full."""

    @pytest.mark.parametrize("d, n_facets, betti", [
        (3, 36, (0, 1, 1, 1)),
        (4, 60, (0, 1, 0, 1, 1)),
        (5, 90, (0, 1, 0, 0, 1, 1)),
    ])
    def test_circle_times_a_sphere_is_a_manifold_but_neither(self, d, n_facets, betti):
        x = circle_times_sphere(d)
        assert x.n_facets == n_facets
        cert = certify(x)
        assert (cert.kind, cert.dim, cert.betti) == ("neither", d, betti)
        assert cert.pseudomanifold and cert.closed and cert.dual_connected
        assert cert.links_verified
        assert betti_gf2(x) == betti
        assert cert == certify_reference(x)

    @pytest.mark.parametrize("d", [4, 5])
    def test_a_sphere_with_two_far_vertices_identified_is_neither(self, d):
        assert certify(suspended_prism(d)).is_sphere(d)
        x = suspended_prism(d, pinched=True)
        cert = certify(x)
        # S^d with two points identified is S^d wedge S^1; b_(d-1) = 0
        # differs from b_1 = 1, so duality would give a wrong b_(d-1)
        betti = (0, 1) + (0,) * (d - 2) + (1,)
        assert (cert.kind, cert.betti) == ("neither", betti)
        assert cert.pseudomanifold and cert.closed and cert.dual_connected
        assert betti_gf2(x) == betti
        assert cert == certify_reference(x)


def realization_and_controls(build, args, seed):
    """A seeded realization, less its first facet and less its first and
    last facets."""
    manifest = build(*args).manifest
    x = realize(manifest, choice_vector(seed, 1, manifest.n_free_cells))
    facets = x.sorted_facets
    return (x, SimplicialComplex.from_facets(facets[1:]),
            SimplicialComplex.from_facets(facets[1:-1]))


class TestReferenceClassifier:
    """``certify`` reads links off the parent's index; the reference
    builds each link as its own complex.  Their certificates agree field
    for field."""

    @pytest.mark.parametrize("build, args", [
        (build_holes4, (9,)),
        (build_cyclic, (10,)),
        (build_highd, (3, 6)),
        (build_aztec, (3, 2)),
        (build_aztec_highd, (3, 3, 1)),
    ], ids=["holes4-9", "cyclic-10", "highd-3-6", "aztec-3-2", "aztec-hd-3-3-1"])
    def test_realizations_and_their_controls(self, build, args):
        for seed in (3, 4):
            for y in realization_and_controls(build, args, seed):
                assert certify(y) == certify_reference(y)

    @pytest.mark.parametrize("name", NOT_SPHERES_OR_DISKS)
    def test_surfaces_their_cones_and_suspensions(self, name):
        x = NOT_SPHERES_OR_DISKS[name][0]
        for y in (x, cone(x, VertexId.cone()), join(x, sphere0(900, 901))):
            assert certify(y) == certify_reference(y)


def pseudomanifolds_of_dimension_3():
    # the apex link is a 2-sphere and a torus: closed with chi 2, but
    # not connected
    torus = NOT_SPHERES_OR_DISKS["torus"][0]
    tetrahedron = surface(*combinations(range(101, 105), 3))
    apart = SimplicialComplex.from_facets(list(torus.facets) + list(tetrahedron.facets))
    yield "torus-and-tetrahedron-coned", cone(apart, VertexId.cone())
    for name, (x, *_) in NOT_SPHERES_OR_DISKS.items():
        yield f"{name}-coned", cone(x, VertexId.cone())
    yield "circle-times-sphere", circle_times_sphere(3)
    for y in realization_and_controls(build_holes4, (9,), 3):
        yield f"holes4-9-{y.n_facets}", y


class TestSurfaceLinks:
    """A 3-dimensional pseudomanifold reads the classification of each
    vertex link off its own index: flags from the ridges through the
    vertex, the dual graph induced on its star, and chi from the edges,
    ridges and facets at it.  Each equals the reference's classification
    of the link built as its own complex."""

    @pytest.mark.parametrize("x", [
        pytest.param(x, id=name) for name, x in pseudomanifolds_of_dimension_3()
    ])
    def test_read_off_links_match_built_links(self, x):
        facets = topology._indexed_facets(x)
        star = defaultdict(list)
        ridges = topology._ridges(facets, star)
        assert all(len(owners) <= 2 for owners in ridges.values())
        edges = topology._faces_by_dim(facets, range(1, 2))[0]
        bd_verts = {v for r, owners in ridges.items() if len(owners) == 1 for v in r}
        adjacency = topology._adjacency(len(facets), ridges)
        read_off = topology._surface_links(edges, ridges, star, adjacency, bd_verts)
        for v, at in star.items():
            built = [tuple(w for w in facets[i] if w != v) for i in at]
            assert read_off(v) == oracles._classify(built, (v,), {}), v
