"""Acceptance criteria, one test per criterion.

Each test prints one line (visible with `pytest -s` or in the captured
output) and enforces the stated runtime budget.  Expected values marked
as derived are recomputed here by independent oracles before asserting.
"""

import time
from itertools import combinations, product

from sphereforge import (
    GridBox,
    SimplicialComplex,
    VertexId,
    boundary_complex,
    certify,
    diagonal_band,
    realize,
    verify_shelling,
)
from sphereforge.constructions import (
    build_aztec,
    build_aztec_highd,
    build_cyclic,
    build_highd,
    build_holes4,
)
from sphereforge.geometry import (
    build_aztec_lift,
    delta_search,
    detect_bipyramid_facets,
    hull_with_apex,
    raise_centers,
    raised_center_target,
    verify_regular,
)
from sphereforge.sampling import choice_vector

from oracles import cone, cyclic_polytope_facets, region_complex, shelling_order_band


def _stamp(number: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s > {budget}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")


def _close_to_sphere(ball: SimplicialComplex) -> SimplicialComplex:
    apex = VertexId.cone()
    lid = cone(boundary_complex(ball), apex)
    return SimplicialComplex.from_facets(list(ball.facets) + list(lid.facets))


def test_criterion_01_gale_oracle():
    t0 = time.time()
    for n in range(6, 13):
        got = cyclic_polytope_facets(n, 4)
        brute = set()
        for idxs in combinations(range(1, n + 1), 4):
            inside = set(idxs)
            outside = [v for v in range(1, n + 1) if v not in inside]
            if all(
                sum(1 for z in inside if x < z < y) % 2 == 0
                for x in outside
                for y in outside
                if x < y
            ):
                brute.add(frozenset(idxs))
        assert {frozenset(v.data[0] for v in f) for f in got.facets} == brute
        if n == 6:
            assert got.n_facets == 9
        assert certify(got).is_sphere(3)
    _stamp(1, "gale-oracle-and-sphere-certs", t0, 10)


def test_criterion_02_holes4_desk_scale():
    t0 = time.time()
    for n in (9, 13, 17):
        report = build_holes4(n, n)  # the build asserts bipyramids + distinctness
        manifest = report.manifest
        faces = [c.f_part for c in manifest.free_cells]
        assert len(set(faces)) == len(faces)
        for cell in manifest.free_cells:
            assert sorted((len(cell.f_part), len(cell.g_part))) == [2, 3]
        for t in range(32):
            bits = choice_vector(2, t, manifest.n_free_cells)
            assert certify(realize(manifest, bits)).is_sphere(3), (n, t)
    report41 = build_holes4(41, 41)
    ratio = report41.free_cell_count / 41 ** 2
    assert 0.40 <= ratio <= 0.55, ratio
    _stamp(2, "holes4-bipyramids-spheres-ratio", t0, 120)


def test_criterion_03_distinct_realizations():
    t0 = time.time()
    manifest = build_holes4(6, 6).manifest
    b = manifest.n_free_cells
    assert b <= 10
    seen = {}
    for bits in product((0, 1), repeat=b):
        r = realize(manifest, bits)
        assert certify(r).is_sphere(3), bits
        seen[bits] = r.facets
    assert len(set(seen.values())) == 2 ** b
    zero = seen[(0,) * b]
    for i in range(b):
        bits = tuple(1 if j == i else 0 for j in range(b))
        cell = manifest.free_cells[i]
        assert len(zero ^ seen[bits]) == len(cell.f_part) + len(cell.g_part)
    _stamp(3, "all-2^b-realizations-distinct-spheres", t0, 60)


def test_criterion_04_aztec_counts_and_lifts():
    t0 = time.time()
    for k, l in ((3, 1), (3, 3), (5, 2), (5, 3)):
        report = build_aztec(k, l)
        assert report.free_cell_count == (2 * k - 2) * l * l, (k, l)
        lift = build_aztec_lift(k, l)
        assert lift.eps.denominator <= 2 ** 64
        assert verify_regular(
            list(lift.config.points), lift.heights, lift.subdivision
        )
    _stamp(4, "aztec-exact-counts-and-certified-lifts", t0, 120)


def test_criterion_05_hull_bipyramid_facets():
    t0 = time.time()
    lift = build_aztec_lift(3, 3)
    pts = [(v, p + (lift.heights[v],)) for v, p in lift.config.points]
    facets, apex_pt = hull_with_apex(pts, VertexId.cone())
    count, kinds = detect_bipyramid_facets(
        facets, pts + [(VertexId.cone(), apex_pt)]
    )
    assert count == 36
    _stamp(5, "hull-with-36-bipyramid-facets", t0, 300)


def test_criterion_06_degree3_edges():
    t0 = time.time()
    lift = build_aztec_lift(5, 2)
    delta, _ = delta_search(lift, raised_center_target(lift.manifest))
    heights, degree3 = raise_centers(lift, delta)
    assert degree3 >= (2 * 5 - 6) * 4 == 16
    realized = realize(lift.manifest, (0,) * lift.manifest.n_free_cells)
    sphere = _close_to_sphere(realized)
    assert certify(sphere).is_sphere(3)
    _stamp(6, "raised-centers-degree3-sphere", t0, 300)


def test_criterion_07_cyclic():
    t0 = time.time()
    for n in (3, 5, 10):
        report = build_cyclic(n)  # the build verifies each hole's shelling
        assert report.flags["vertex_count_alternatives"] == [5 * n, 5 * n + 1]
        assert report.vertex_count == 5 * n
    ratio = build_cyclic(10).free_cell_count / 100
    assert 3.4 <= ratio <= 4.0, ratio
    _stamp(7, "cyclic-balls-shellings-ratio-discrepancy", t0, 120)


def test_criterion_08_high_dimension():
    t0 = time.time()
    report = build_highd(3, 8)
    from sphereforge import triangulate_cell

    for cell in report.manifest.free_cells:
        assert len(cell.f_part) + len(cell.g_part) == 7
        assert {len(triangulate_cell(cell, 0)), len(triangulate_cell(cell, 1))} == {3, 4}
    for t in range(16):
        bits = choice_vector(8, t, report.manifest.n_free_cells)
        cert = certify(realize(report.manifest, bits))
        assert cert.is_sphere(5), t
    hd = build_aztec_highd(3, 3, 1)
    assert hd.free_cell_count == 6
    _stamp(8, "dimension-5-spheres-and-crosspolytope-count", t0, 600)


def test_criterion_09_band_shellings():
    t0 = time.time()

    def rng():
        state = 424242
        while True:
            state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
            yield state >> 33

    stream = rng()
    done = 0
    while done < 50:
        d = 2 + next(stream) % 2
        dims = tuple(2 + next(stream) % (6 if d == 2 else 3) for _ in range(d))
        total = sum(dims)
        m1 = d + next(stream) % (total - d + 1)
        m2 = m1 + next(stream) % (total - m1 + 1)
        band = diagonal_band(GridBox(dims), m1, m2)
        if not band.shellable_guaranteed or not band.cells:
            continue
        order = shelling_order_band(band)
        assert verify_shelling(region_complex(band), order), (dims, m1, m2)
        done += 1
    _stamp(9, "fifty-randomized-band-shellings", t0, 60)


def test_criterion_10_property_substitution():
    # the exponential counting statements are out of reach at desk scale;
    # they are covered by exact per-instance counts plus injectivity of
    # the realization map, both asserted above on concrete instances
    t0 = time.time()
    manifest = build_aztec(3, 1).manifest
    b = manifest.n_free_cells
    assert len({realize(manifest, bits).facets for bits in product((0, 1), repeat=b)}) == 2 ** b
    assert build_aztec(5, 3).free_cell_count == (2 * 5 - 2) * 9
    _stamp(10, "asymptotics-replaced-by-exact-properties", t0, 60)
