"""Homology and certification oracles on hand-checked complexes."""

import random
from itertools import permutations

import pytest

from sphereforge import (
    PolyComplex,
    Simplex,
    SimplicialComplex,
    VertexId,
    betti_gf2,
    boundary_complex,
    carve_and_fill,
    certify,
    verify_shelling,
)
from sphereforge import constructions, topology
from sphereforge import io as sfio
from sphereforge.carvefill import realize
from sphereforge.cli import main
from sphereforge.constructions import (
    build_aztec,
    build_aztec_highd,
    build_cyclic,
    build_highd,
    build_holes3,
    build_holes4,
)
from sphereforge.errors import DegenerateInput, InvalidOrder
from sphereforge.grid import GridBox, band_cell_order, diagonal_band
from sphereforge.sampling import choice_vector

from oracles import (
    canonical_shelling,
    empty_complex,
    certify_reference,
    circle_times_sphere,
    cone,
    cyclic_polytope_facets,
    join,
    lens_space,
    region_complex,
    relabelled,
    shelling_order_band,
    shells_reference,
    suspended_prism,
    verify_shelling_reference,
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


class TestDegenerateComplexes:
    """The empty-facet complex {∅} has a boundary but no homology to
    report or certify; the void complex, with no facet at all, is no
    input to any of the package's complex routines."""

    def test_the_empty_facet_complex_is_refused_by_name(self):
        with pytest.raises(DegenerateInput, match="^cannot certify the empty-facet complex$"):
            certify(empty_complex())
        with pytest.raises(DegenerateInput, match="^the empty-facet complex has no homology to report$"):
            betti_gf2(empty_complex())

    def test_the_void_complex_is_refused_everywhere(self):
        void = SimplicialComplex.from_facets([])
        assert void.is_void
        for call in (
            certify,
            betti_gf2,
            boundary_complex,
            lambda x: verify_shelling(x, ()),
            PolyComplex.from_simplicial,
            lambda x: carve_and_fill(x, []),
        ):
            with pytest.raises(DegenerateInput, match="^void complex is not valid input$"):
                call(void)


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


def path(base, n):
    return [rs(base + i, base + i + 1) for i in range(n)]


def certificate_fields(facets):
    cert = certify(SimplicialComplex.from_facets(facets))
    assert cert.links_verified
    return cert.kind, cert.dim, cert.betti, cert.pseudomanifold, cert.closed, cert.dual_connected


class TestLowDimensionalCertificates:
    """Dimensions 0 and 1 take the path of every dimension: the ridge
    pass gives the flags, and the shelling search the kind."""

    @pytest.mark.parametrize("facets, fields", [
        ([rs(1)], ("ball", 0, (0,), True, False, True)),
        ([rs(1), rs(2)], ("sphere", 0, (1,), True, True, True)),
        ([rs(1), rs(2), rs(3)], ("neither", 0, (2,), False, False, True)),
        (path(0, 4), ("ball", 1, (0, 0), True, False, True)),
        (list(circle(0, 6).facets), ("sphere", 1, (0, 1), True, True, True)),
    ], ids=["point", "S0", "three-points", "path", "cycle"])
    def test_points_paths_and_cycles_keep_their_certificates(self, facets, fields):
        assert certificate_fields(facets) == fields

    # Each is a pseudomanifold (every vertex in at most two edges) whose
    # dual graph is disconnected.
    @pytest.mark.parametrize("facets, fields", [
        (list(circle(0, 4).facets) + list(circle(10, 3).facets),
         ("neither", 1, (1, 2), True, True, False)),
        (path(0, 2) + path(10, 3), ("neither", 1, (1, 0), True, False, False)),
        (list(circle(0, 4).facets) + path(10, 2), ("neither", 1, (1, 1), True, False, False)),
    ], ids=["two-cycles", "two-paths", "cycle-and-path"])
    def test_disjoint_cycles_and_paths_read_their_flags_off_the_ridges(self, facets, fields):
        assert certificate_fields(facets) == fields


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

    def test_a_ridge_in_three_facets_rejected(self):
        # three triangles on one edge: each meets the ones before it in
        # that edge, but the complex is no pseudomanifold, so no ball
        order = [rs(1, 2, 3), rs(1, 2, 4), rs(1, 2, 5)]
        x = SimplicialComplex.from_facets(order)
        assert certify(x).kind == topology.NEITHER
        assert not verify_shelling(x, order)
        assert verify_shelling(SimplicialComplex.from_facets(order[:2]), order[:2])


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
    """A complex that the search does not shell takes its GF(2) Betti
    numbers from one elimination of each boundary map, and a shelled one
    from the theorem, with no elimination; these pin both against
    ``betti_gf2``."""

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

    def test_a_shelled_3_sphere_takes_no_elimination(self, monkeypatch):
        # the shelling proves a sphere, whose Betti numbers are a theorem
        manifest = build_holes4(9).manifest
        x = realize(manifest, (0,) * manifest.n_free_cells)
        calls = count_eliminations(monkeypatch)
        cert = certify(x)
        assert cert.is_sphere(3) and cert.betti == (0, 0, 0, 1)
        assert calls == []

    def test_a_shelled_5_sphere_takes_no_elimination(self, monkeypatch):
        manifest = build_highd(3, 6).manifest
        x = realize(manifest, (0,) * manifest.n_free_cells)
        calls = count_eliminations(monkeypatch)
        cert = certify(x)
        assert cert.is_sphere(5) and cert.betti == (0, 0, 0, 0, 0, 1)
        assert calls == []

    def test_a_stuck_search_eliminates_each_boundary_map_once(self, monkeypatch):
        # f = 12, 48, 72, 36; the ridges and facets come from certify's
        # own ridge pass, so no face of dimension d - 1 or d is rebuilt
        x = circle_times_sphere(3)
        calls = count_eliminations(monkeypatch)
        dims = []
        faces_by_dim = topology._faces_by_dim

        def spying(facets, ds):
            dims.extend(ds)
            return faces_by_dim(facets, ds)

        monkeypatch.setattr(topology, "_faces_by_dim", spying)
        cert = certify(x)
        assert (cert.kind, cert.betti) == ("neither", (0, 1, 1, 1))
        assert calls == [48, 72, 36]
        assert sorted(set(dims)) == [0, 1]


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
    """Closed complexes that are not spheres: a manifold, S^1 x S^(d-1),
    and a sphere with two far vertices identified, which is no manifold
    and on which Poincare duality fails.  The shelling search gets stuck
    on each, and the Betti numbers of the fallback, which match
    ``betti_gf2`` and the reference, make each neither."""

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
        # differs from b_1 = 1, which duality would not allow
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
    """``certify`` shells spheres and balls; the reference checks the
    Betti pattern and builds each vertex link as its own complex.  Their
    certificates agree field for field."""

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


class TestShellingCertificates:
    """In every dimension, a sphere or a ball is certified by the
    canonical shelling that ``certify`` finds; a complex it cannot shell
    is at best a GF(2) homology sphere or ball."""

    @pytest.mark.parametrize("p, q, n_vertices, n_facets", [
        (3, 1, 56, 288),
        (5, 2, 88, 480),
    ], ids=["L(3,1)", "L(5,2)"])
    def test_lens_spaces_are_homology_spheres(self, tmp_path, capsys, p, q, n_vertices, n_facets):
        x = lens_space(p, q)
        assert (len(x.vertices), x.n_facets) == (n_vertices, n_facets)
        cert = certify(x)
        assert (cert.kind, cert.dim, cert.betti) == ("homology-sphere", 3, (0, 0, 0, 1))
        assert cert.pseudomanifold and cert.closed and cert.dual_connected
        assert not cert.links_verified
        assert betti_gf2(x) == cert.betti
        # a closed shellable pseudomanifold is a sphere, so no search can
        # shell a lens space
        assert canonical_shelling(x) is None
        path = tmp_path / "lens.json"
        sfio.save_complex(str(path), x)
        assert main(["verify", "sphere", str(path)]) == 2
        assert '"kind": "homology-sphere"' in capsys.readouterr().out

    def test_a_lens_space_less_a_facet_is_a_homology_ball(self, tmp_path):
        x = lens_space(3, 1)
        y = SimplicialComplex.from_facets(x.sorted_facets[1:])
        cert = certify(y)
        assert (cert.kind, cert.dim, cert.betti) == ("homology-ball", 3, (0, 0, 0, 0))
        assert cert.pseudomanifold and not cert.closed and cert.dual_connected
        assert not cert.links_verified
        path = tmp_path / "lens-ball.json"
        sfio.save_complex(str(path), y)
        assert main(["verify", "ball", str(path)]) == 2

    def test_the_zero_realization_of_highd_4_7_is_a_pl_7_sphere(self):
        manifest = build_highd(4, 7).manifest
        x = realize(manifest, (0,) * manifest.n_free_cells)
        cert = certify(x)
        assert cert.is_sphere(7) and cert.links_verified
        assert cert.betti == (0,) * 7 + (1,)

    def test_ties_break_by_sorted_facet_index(self):
        # the same complex built from its facets in two orders stores
        # them in two set orders; certificate and shelling agree
        manifest = build_holes4(9).manifest
        x = realize(manifest, choice_vector(3, 1, manifest.n_free_cells))
        facets = list(x.sorted_facets)
        random.Random(7).shuffle(facets)
        y = SimplicialComplex.from_facets(facets[1:])
        z = SimplicialComplex.from_facets(facets[:0:-1])
        assert list(y.facets) != list(z.facets)
        assert certify(y) == certify(z) == certify(y)
        order = canonical_shelling(y)
        assert order is not None and order == canonical_shelling(z)
        assert order[0] == y.sorted_facets[0]

    @pytest.mark.parametrize("build, args, seed", [
        (build_cyclic, (6,), 1),
        (build_holes4, (17,), 0),
    ], ids=["cyclic-6", "holes4-17"])
    def test_a_relabelled_sphere_and_ball_are_shelled_by_degree(
        self, tmp_path, capsys, monkeypatch, build, args, seed
    ):
        manifest = build(*args).manifest
        x = relabelled(realize(manifest, choice_vector(1, 1, manifest.n_free_cells)), seed)
        y = SimplicialComplex.from_facets(x.sorted_facets[1:])
        for z, kind in ((x, "sphere"), (y, "ball")):
            path = tmp_path / f"{kind}.json"
            sfio.save_complex(str(path), z)
            assert main(["verify", kind, str(path)]) == 0
            assert f'"kind": "{kind}"' in capsys.readouterr().out
        # with the facets ranked by index only, the search gets stuck on
        # both, and certify falls back to GF(2) homology
        monkeypatch.setattr(topology, "_by_degree", lambda facets, n_vertices: range(len(facets)))
        assert certify(x).kind == "homology-sphere"
        assert certify(y).kind == "homology-ball"


def stacked_sphere(seed, n):
    """The boundary of a tetrahedron with n seeded facets each replaced
    by the cone over its boundary from a new vertex."""
    rng = random.Random(seed)
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    for v in range(5, 5 + n):
        a, b, c = facets.pop(rng.randrange(len(facets)))
        facets += [(a, b, v), (a, c, v), (b, c, v)]
    return surface(*facets)


class TestSurfaceShellings:
    """Dimension 2 has no rule of its own.  Every 2-sphere is extendably
    shellable (Danaraj-Klee 1978), so the search shells it and the disk
    it is less a facet, whatever the labels; a 2-sphere it could not
    shell would be a homology sphere only."""

    @pytest.mark.parametrize("sphere", [
        lambda: boundary_complex(paths_join(3, 4)),
        lambda: boundary_complex(paths_join(5, 5)),
        lambda: stacked_sphere(0, 8),
        lambda: stacked_sphere(1, 15),
        lambda: stacked_sphere(2, 25),
    ], ids=["join-3-4", "join-5-5", "stacked-0", "stacked-1", "stacked-2"])
    def test_relabelled_spheres_and_disks_are_shelled(self, sphere):
        x = sphere()
        for seed in range(20):
            y = relabelled(x, seed)
            z = SimplicialComplex.from_facets(y.sorted_facets[1:])
            assert certify(y).is_sphere(2) and certify(z).is_ball(2), seed
            assert canonical_shelling(y) is not None and canonical_shelling(z) is not None

    def test_without_a_shelling_a_2_sphere_is_a_homology_sphere(self, monkeypatch):
        x = boundary_complex(paths_join(4, 5))
        monkeypatch.setattr(topology, "_shelling", lambda facets, ridges, closed, n_vertices: None)
        cert = certify(x)
        assert (cert.kind, cert.dim, cert.betti) == ("homology-sphere", 2, (0, 0, 1))
        assert not cert.links_verified
        cert = certify(SimplicialComplex.from_facets(x.sorted_facets[1:]))
        assert (cert.kind, cert.dim, cert.betti) == ("homology-ball", 2, (0, 0, 0))


def band_shelling(dims, m1, m2):
    band = diagonal_band(GridBox(dims), m1, m2)
    return region_complex(band), shelling_order_band(band)


def cyclic_hole_shelling(n, k):
    """Hole k of ``build_cyclic(n)`` and its cube-order shelling."""
    region = diagonal_band(GridBox((2 * n - 1, 2 * n - 1)), 2 * n - 2, 2 * n + 1)
    shift = (2 * k + 2 * n) % (4 * n)
    order = tuple(constructions._cyclic_hole_facet(n, shift, c) for c in band_cell_order(region))
    return SimplicialComplex.from_facets(order), order


def searched_shelling(build, args, seed):
    """A seeded realization less its last facet, and the order in which
    ``certify`` shells it."""
    manifest = build(*args).manifest
    x = realize(manifest, choice_vector(seed, 1, manifest.n_free_cells))
    y = SimplicialComplex.from_facets(x.sorted_facets[:-1])
    return y, canonical_shelling(y)


# Shellings of balls: diagonal bands in their cube order, the holes of
# cyclic(5), and the orders that certify finds.
ACCEPTED_SHELLINGS = [
    *[pytest.param(band_shelling, spec, id=f"band-{spec}")
      for spec in [((4, 4), 3, 6), ((5, 3), 2, 5), ((3, 3, 3), 3, 5),
                   ((2, 3, 4), 4, 7), ((3, 2, 2, 3), 4, 8)]],
    *[pytest.param(cyclic_hole_shelling, (5, k), id=f"cyclic-5-hole-{k}") for k in range(1, 6)],
    *[pytest.param(searched_shelling, (build, args, seed), id=f"{build.__name__}-{args}-{seed}")
      for build, args in [(build_holes4, (9,)), (build_holes3, (5,)), (build_cyclic, (6,)),
                          (build_highd, (3, 6)), (build_highd, (2, 9))]
      for seed in (1, 2)],
]


def verdicts(x, order):
    return verify_shelling(x, order), verify_shelling_reference(x, order)


class TestVerifyShellingAgainstReference:
    """``verify_shelling`` reads each facet's restriction; the reference
    intersects it with every earlier facet at one of its vertices.  Their
    answers agree on shellings, their prefixes, and orders they refuse."""

    @pytest.mark.parametrize("shelling, spec", ACCEPTED_SHELLINGS)
    def test_shellings_their_prefixes_and_swaps(self, shelling, spec):
        x, order = shelling(*spec)
        assert order is not None
        assert verdicts(x, order) == (True, True)
        n = len(order)
        for k in sorted({1, 2, 3, n // 3, n // 2, n - 1}):
            prefix = order[:k]
            assert verdicts(SimplicialComplex.from_facets(prefix), prefix) == (True, True)
        refused = 0
        for j in random.Random(n).sample(range(1, n - 1), min(n - 2, 12)):
            swapped = list(order)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            ours, reference = verdicts(x, swapped)
            assert ours == reference, j
            refused += not ours
        assert refused > 0

    @pytest.mark.parametrize("build, args", [
        (build_holes4, (9,)),
        (build_highd, (3, 6)),
    ], ids=["holes4-9", "highd-3-6"])
    def test_a_last_facet_that_closes_a_sphere_is_refused(self, build, args):
        manifest = build(*args).manifest
        x = realize(manifest, choice_vector(1, 1, manifest.n_free_cells))
        order = canonical_shelling(x)
        assert order is not None
        assert verdicts(x, order) == (False, False)
        assert verdicts(SimplicialComplex.from_facets(order[:-1]), order[:-1]) == (True, True)

    def test_a_ridge_in_three_facets_is_refused_in_every_order(self):
        # a book of three or four pages on the edge 12, and one on the
        # triangle 123 inside a ball of three tetrahedra
        books = [
            [rs(1, 2, 3), rs(1, 2, 4), rs(1, 2, 5)],
            [rs(1, 2, 3), rs(1, 2, 4), rs(1, 2, 5), rs(1, 2, 6)],
            [rs(1, 2, 3, 4), rs(1, 2, 3, 5), rs(1, 2, 3, 6), rs(1, 2, 4, 7)],
        ]
        for facets in books:
            x = SimplicialComplex.from_facets(facets)
            for order in permutations(facets):
                assert verdicts(x, order) == (False, False), order

    def test_dimensions_0_and_1(self):
        points = [rs(1), rs(2), rs(3)]
        path = [rs(i, i + 1) for i in range(1, 5)]
        for facets in (points[:1], points[:2], points, path, list(circle(0, 5).facets)):
            x = SimplicialComplex.from_facets(facets)
            for order in permutations(facets):
                ours, reference = verdicts(x, order)
                assert ours == reference, order


def checked_shells(monkeypatch):
    """Make every ``_shells`` call of the search and of
    ``verify_shelling`` also ask the reference, and record the length of
    each restriction with the answer."""
    seen = []
    real = topology._shells

    def checked(facet, restriction, at, closing):
        got = real(facet, restriction, at, closing)
        assert got == shells_reference(facet, restriction, at, closing), (facet, restriction)
        seen.append((len(restriction), got))
        return got

    monkeypatch.setattr(topology, "_shells", checked)
    return seen


class TestShellsAgainstReference:
    """``_shells`` copies no set; the reference intersects the ``at``
    sets of the whole restriction.  They agree at every step of the
    search and of ``verify_shelling``, and on random tables."""

    @pytest.mark.parametrize("build, args", [
        (build_holes4, (9,)),
        (build_cyclic, (10,)),
        (build_highd, (3, 6)),
        (build_aztec, (3, 2)),
        (build_aztec_highd, (3, 3, 1)),
    ], ids=["holes4-9", "cyclic-10", "highd-3-6", "aztec-3-2", "aztec-hd-3-3-1"])
    def test_every_step_of_the_search(self, monkeypatch, build, args):
        seen = checked_shells(monkeypatch)
        for seed in (3, 4):
            x, ball, _ = realization_and_controls(build, args, seed)
            # relabelled, the index ranking refuses more candidates
            for y in (x, ball, relabelled(x, seed)):
                certify(y)
            order = canonical_shelling(ball)
            assert verify_shelling(ball, order)
            swapped = list(order)
            swapped[1], swapped[-1] = swapped[-1], swapped[1]
            verify_shelling(ball, swapped)
        lengths = {n for n, _ in seen}
        assert {1, 2} <= lengths and max(lengths) > 2
        assert {got for _, got in seen} == {True, False}

    def test_random_tables(self):
        rng = random.Random("shells")
        answers = {}
        for _ in range(3000):
            n_vertices = rng.randint(1, 7)
            at = [set(rng.sample(range(6), rng.randint(0, 3))) for _ in range(n_vertices)]
            facet = tuple(sorted(rng.sample(range(n_vertices), rng.randint(1, n_vertices))))
            part = rng.sample(facet, rng.randint(0, len(facet)))
            for restriction in ([], [rng.choice(facet)], list(facet), part):
                for closing in (False, True):
                    got = topology._shells(facet, restriction, at, closing)
                    assert got == shells_reference(facet, restriction, at, closing)
                    answers.setdefault(min(len(restriction), 3), set()).add(got)
        assert answers == {0: {False}, 1: {True, False}, 2: {True, False}, 3: {True, False}}
