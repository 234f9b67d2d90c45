"""The named constructions against independent counting oracles."""

import re
from dataclasses import replace
from itertools import product

import pytest

from sphereforge import BallInComplex, Simplex, VertexId, betti_gf2, certify, constructions, realize
from sphereforge import io as sfio
from sphereforge.cli import main
from sphereforge.constructions import (
    build_aztec,
    build_aztec_highd,
    build_cyclic,
    build_highd,
    build_holes3,
    build_holes4,
)
from sphereforge.errors import DegenerateInput
from sphereforge.grid import ehrhart_crosspolytope, join_of_paths

from oracles import cyclic_polytope_facets, f_vector, greedy_compatible_members, manifest_to_obj


def manifest_bytes(report):
    return sfio.dumps(manifest_to_obj(report.manifest))


def generate_samples(tmp_path, *argv):
    """Exit code of ``generate`` with ``--samples``: 0 when the zero
    realization and every seeded sample certify as the kind's expected
    sphere or ball."""
    return main(["generate", *map(str, argv), "-o", str(tmp_path / "g.json")])


def interior_point_count(lengths, width, residues):
    """Oracle: grid points strictly inside the box whose coordinate sum is
    in the given residue classes."""
    count = 0
    for p in product(*(range(2, n) for n in lengths)):
        if sum(p) % width in residues:
            count += 1
    return count


class TestHoles4:
    def test_count_matches_interior_point_oracle(self):
        for n, m in ((9, 9), (13, 13), (9, 12)):
            report = build_holes4(n, m)
            expected = interior_point_count((n, m), 4, {2, 3})
            assert report.free_cell_count == expected

    def test_vertex_count(self):
        report = build_holes4(9, 9)
        holes = len(report.per_hole_counts)
        assert report.vertex_count == 18 + holes + 1

    def test_small_instance_realizes_to_spheres(self):
        report = build_holes4(5, 5)
        manifest = report.manifest
        assert 1 < manifest.n_free_cells <= 10
        seen = set()
        for bits in product((0, 1), repeat=manifest.n_free_cells):
            r = realize(manifest, bits)
            seen.add(r.facets)
        assert len(seen) == 2 ** manifest.n_free_cells
        cert = certify(realize(manifest, (0,) * manifest.n_free_cells))
        assert cert.is_sphere(3)

    def test_sampled_realizations_certify(self, tmp_path):
        assert generate_samples(tmp_path, "holes4", "--n", 6, "--m", 6, "--samples", 4, "--seed", 7) == 0

    def test_euler_characteristic_zero(self):
        report = build_holes4(5, 5)
        assert f_vector(report.manifest.result).euler_characteristic == 0

    def test_minimal_instance_still_a_sphere(self):
        report = build_holes4(4, 4)
        bits = (0,) * report.free_cell_count
        assert certify(realize(report.manifest, bits)).is_sphere(3)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            build_holes4(3, 9)


class TestHoles3:
    def test_most_holes_incompatible(self):
        report = build_holes3(9, 9)
        assert report.flags["incompatible_holes"]

    def test_fallback_is_half_per_incompatible_hole(self):
        report = build_holes3(9, 9)
        for q in report.flags["incompatible_holes"]:
            assert report.flags["fallback_sizes"][q] * 2 == report.flags["family_sizes"][q]

    def test_count_matches_pairing_oracle(self):
        # candidates are interior points with sum = 2 mod 3, twice each
        # (a bottom and a top cell); the fallback keeps one per pair
        report = build_holes3(9, 9)
        points = interior_point_count((9, 9), 3, {2})
        assert report.claimed_bounds["candidate_cells"] == 2 * points
        assert report.free_cell_count == points

    def test_each_hole_keeps_the_members_of_the_greedy_reference(self):
        # every band's candidates are its bottom and top members; the
        # hole keeps the bottom ones, which the greedy reference keeps
        # too, and the flags count both
        for n, m in product(range(4, 13), repeat=2):
            host = join_of_paths((n, m))
            report = build_holes3(n, m)
            holes = {h.key: h for h in report.manifest.holes}
            incompatible = []
            for q, facets, bottom, top in constructions._bands(host, 3):
                kept = greedy_compatible_members(BallInComplex.of(host.complex, facets), bottom + top)
                apex = holes[q].apex
                members = sorted(Simplex([*c.f_part, *(v for v in c.g_part if v != apex)]) for c in holes[q].cells)
                assert members == kept == bottom, (n, m, q)
                assert report.flags["family_sizes"][q] == len(bottom) + len(top)
                assert report.flags["fallback_sizes"][q] == len(kept)
                if len(kept) < len(bottom) + len(top):
                    incompatible.append(q)
            assert report.flags["incompatible_holes"] == incompatible
            assert list(holes) == list(report.flags["family_sizes"])

    def test_small_instance_is_sphere(self, tmp_path):
        assert generate_samples(tmp_path, "holes3", "--n", 4, "--m", 4, "--samples", 2, "--seed", 3) == 0


class TestAztec:
    @pytest.mark.parametrize(
        "k,l", [(3, 1), (3, 3), (5, 2)]
    )
    def test_exact_counts(self, k, l):
        report = build_aztec(k, l)
        assert report.free_cell_count == (2 * k - 2) * l * l

    def test_vertex_count(self):
        report = build_aztec(3, 1)
        assert report.vertex_count == 2 * 3 * 1 + 2 + 1
        assert report.free_cell_count == 4

    def test_output_is_ball(self, tmp_path):
        assert generate_samples(tmp_path, "aztec", "--k", 3, "--l", 2, "--samples", 2, "--seed", 1) == 0

    def test_per_hole_counts(self):
        report = build_aztec(5, 2)
        assert all(c == 8 for c in report.per_hole_counts.values())


class TestCyclic:
    def test_counts(self):
        # every hole carries all extreme cells of a width-4 band in a
        # (2n-1)^2 chart: (2n-3) on the bottom diagonal, (2n-2) on the top
        for n in (3, 4, 5):
            report = build_cyclic(n)
            assert report.free_cell_count == n * (4 * n - 5)
            assert all(c == 4 * n - 5 for c in report.per_hole_counts.values())

    def test_vertex_count_discrepancy_reported(self):
        report = build_cyclic(3)
        assert report.vertex_count == 15
        assert report.flags["vertex_count_alternatives"] == [15, 16]

    def test_realizations_certify_sphere(self, tmp_path):
        assert generate_samples(tmp_path, "cyclic", "--n", 3, "--samples", 2, "--seed", 5) == 0

    def test_host_is_the_gale_cyclic_polytope(self):
        # two definitions of the cyclic 4-polytope: the host's cyclically
        # adjacent pairs on 0..4n-1, and Gale evenness on 1..4n
        for n, facets in ((3, 54), (4, 104), (5, 170), (6, 252)):
            host = constructions._cyclic_host(n)
            gale = cyclic_polytope_facets(4 * n, 4)
            relabelled = {Simplex(VertexId.raw(v.data[0] - 1) for v in f) for f in gale.facets}
            assert host.facets == relabelled, n
            assert host.n_facets == facets

    def test_ratio_at_n10(self):
        report = build_cyclic(10)
        ratio = report.free_cell_count / 100
        assert 3.4 <= ratio <= 4.0


class TestHighd:
    def test_reduces_to_holes4_in_dim2(self):
        for n in (5, 9, 13):
            assert manifest_bytes(build_highd(2, n)) == manifest_bytes(build_holes4(n, n)), n

    def test_d3_count_matches_oracle(self):
        report = build_highd(3, 8)
        expected = interior_point_count((8, 8, 8), 5, {3, 4})
        assert expected == 86
        assert report.free_cell_count == expected

    def test_d3_cell_shapes(self):
        report = build_highd(3, 8)
        for cell in report.manifest.free_cells:
            assert len(cell.f_part) + len(cell.g_part) == 7
            assert sorted((len(cell.f_part), len(cell.g_part))) == [3, 4]

    def test_small_d3_realization_is_sphere(self, tmp_path):
        assert generate_samples(tmp_path, "highd", "--d", 3, "--n", 6, "--samples", 1, "--seed", 11) == 0

    def test_every_band_is_certified_as_a_ball(self, monkeypatch):
        # one certify call per band, in every dimension, and none elsewhere
        calls = []
        real = constructions.certify

        def counting(x):
            cert = real(x)
            calls.append((cert.kind, cert.dim))
            return cert

        monkeypatch.setattr(constructions, "certify", counting)
        build_highd(3, 6)
        host = join_of_paths((6, 6, 6))
        bands = constructions._band_regions(host.box, host.d + 2)
        assert len(bands) > 1
        assert calls == [("ball", host.complex.dim)] * len(bands)


class TestAztecHighd:
    def test_d2_matches_aztec(self):
        for k, l in ((3, 1), (5, 2), (3, 3)):
            assert manifest_bytes(build_aztec_highd(2, k, l)) == manifest_bytes(build_aztec(k, l)), (k, l)

    def test_dimension_bound(self):
        for d in (1, 4):
            with pytest.raises(DegenerateInput, match="need 2 <= d <= 3"):
                build_aztec_highd(d, 3, 1)

    def test_d3_single_hole(self):
        report = build_aztec_highd(3, 3, 1)
        assert report.free_cell_count == ehrhart_crosspolytope(3, 1) - ehrhart_crosspolytope(3, 0)
        assert report.free_cell_count == 6

    def test_vertex_count_formula(self):
        for d, k, l in ((2, 3, 2), (3, 3, 1)):
            report = build_aztec_highd(d, k, l)
            assert report.vertex_count == d * (k * l + 1) + l ** d

    def test_homology_preserved(self):
        report = build_aztec_highd(3, 3, 1)
        bits = (0,) * report.free_cell_count
        assert all(b == 0 for b in betti_gf2(realize(report.manifest, bits)))


def counting_certify(monkeypatch, failing=None):
    """Record the kind and dimension of every ``certify`` call that
    ``constructions`` makes; the call numbered ``failing`` reports
    ``neither`` instead of its certificate."""
    calls = []
    real = constructions.certify

    def counting(x):
        cert = real(x)
        calls.append((cert.kind, cert.dim))
        return replace(cert, kind="neither") if len(calls) == failing else cert

    monkeypatch.setattr(constructions, "certify", counting)
    return calls


class TestHoleCertificates:
    # builder -> (small arguments, key of its first hole as files spell
    # it, so a tuple key reads "1,1", dimension)
    FIRST_HOLES = {
        "holes4": ((5,), "0", 3),
        "holes3": ((5,), "1", 3),
        "aztec": ((3, 1), "1,1", 3),
        "cyclic": ((3,), "1", 3),
        "highd": ((3, 6), "0", 5),
        "aztec-hd": ((3, 3, 1), "1,1,1", 5),
    }

    @pytest.mark.parametrize("kind", list(FIRST_HOLES))
    def test_a_hole_that_is_not_a_ball_fails_the_build(self, monkeypatch, kind):
        # certify is each hole's only ball certificate, in every family
        args, first_hole, dim = self.FIRST_HOLES[kind]
        counting_certify(monkeypatch, failing=1)
        message = f"hole {first_hole} is not a ball: certified neither({dim})"
        with pytest.raises(DegenerateInput, match=re.escape(message)):
            constructions.BUILDERS[kind](*args)

    def test_every_aztec_hole_is_certified_once(self, monkeypatch):
        calls = counting_certify(monkeypatch)
        report = build_aztec(3, 2)
        assert len(report.manifest.holes) == 4
        assert calls == [("ball", 3)] * 4
