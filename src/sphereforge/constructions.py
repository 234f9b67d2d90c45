"""End-to-end assembly of the named sphere and ball constructions.

All of them carve balls out of a host triangulation (a join of paths or
the boundary of an even-dimensional cyclic polytope), fill the balls
with free sums of two simplices, and for the grid-based sphere variants
close the boundary with a cone from a fresh apex.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Hashable

from .carvefill import (
    BallInComplex,
    CompatibleFamily,
    FillManifest,
    carve_and_fill,
    key_label,
)
from .complexes import (
    PolyComplex,
    Simplex,
    SimplicialComplex,
    VertexId,
    boundary_complex,
)
from .errors import DegenerateInput, InternalInvariantViolation
from .grid import (
    GridBox,
    GridRegion,
    JoinOfPaths,
    aztec_crosspolytope,
    boundary_members,
    diagonal_band,
    ehrhart_crosspolytope,
    join_of_paths,
)
from .topology import certify


@dataclass(frozen=True)
class ConstructionReport:
    """A built manifest plus the exact per-instance quantities."""

    name: str
    manifest: FillManifest
    claimed_bounds: dict[str, float]
    flags: dict = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.manifest.result.vertex_set)

    @property
    def free_cell_count(self) -> int:
        return self.manifest.n_free_cells

    @property
    def simplex_cell_count(self) -> int:
        return len(self.manifest.result.simplex_cells)

    @property
    def per_hole_counts(self) -> dict[Hashable, int]:
        return {h.key: len(h.cells) for h in self.manifest.holes}


def _close_with_cone(host: SimplicialComplex, manifest: FillManifest) -> FillManifest:
    """Cone the host boundary to a fresh apex, closing the ball to a sphere."""
    bd = boundary_complex(host)
    apex = VertexId.cone()
    cones = [Simplex((*t, apex)) for t in bd.facets]
    result = PolyComplex.from_cells(
        list(manifest.result.simplex_cells) + cones, manifest.result.free_cells
    )
    return replace(manifest, result=result)


def certified_hole(host: SimplicialComplex, key: Hashable, facets) -> BallInComplex:
    """The ball of a hole's host facets, certified by ``certify``.

    Carve-and-fill is sound only on balls.  A shellable pseudomanifold
    that is not closed is a PL ball (Danaraj-Klee, Duke Math. J. 41,
    1974), so the shelling that ``certify`` finds and checks is the
    certificate of every hole, in every family and in ``fill``."""
    ball = BallInComplex.of(host, facets)
    cert = certify(ball.subcomplex)
    if not cert.is_ball(ball.dim):
        raise DegenerateInput(
            f"hole {key_label(key)} is not a ball: certified {cert.kind}({cert.dim})"
        )
    return ball


def fill_holes(host: SimplicialComplex, holes) -> FillManifest:
    """The manifest of a host's holes, given as ``(key, facets, members)``
    triples: each hole's ball certified by ``certified_hole``, its members
    made a ``CompatibleFamily``, and all carved and filled at once by
    ``carve_and_fill``.  The one path from holes to a manifest, for the
    builders and for ``fill``."""
    return carve_and_fill(host, [
        (key, CompatibleFamily.of(certified_hole(host, key, facets), members))
        for key, facets, members in holes
    ])


def _band_regions(box: GridBox, width: int) -> list[tuple[int, GridRegion]]:
    """Diagonal bands of constant floor(sum/width), lowest first.

    Callers pass a width above d, so no band's range of sums,
    max(d, q * width) to min(total, q * width + width - 1), is empty.
    Bands with fewer than two cells cannot be carved and are skipped; at
    most the single top-corner cell is affected.
    """
    total = sum(box.dims)
    out = []
    for q in range(total // width + 1):
        region = diagonal_band(box, max(box.d, q * width), min(total, q * width + width - 1))
        if len(region) >= 2:
            out.append((q, region))
    return out


def _extreme_diagonals(
    host: JoinOfPaths, region: GridRegion, width: int
) -> tuple[list[Simplex], list[Simplex]]:
    """Host facets of the cells on the bottom and on the top diagonal of a
    band whose missing face stays off the grid boundary.

    Bottom cells (index sum divisible by the width) need all upper
    neighbors inside the box; top cells (sum = width-1 mod width) need all
    lower neighbors inside.  Each then has exactly d boundary facets and
    its fill cell is a free sum with 2d+1 vertices.
    """
    dims = host.box.dims
    bottom, top = [], []
    for c in sorted(region.cells):
        s = sum(c)
        if s % width == 0 and all(i + 1 <= n for i, n in zip(c, dims)):
            bottom.append(host.facet_of(c))
        elif s % width == width - 1 and all(i >= 2 for i in c):
            top.append(host.facet_of(c))
    return bottom, top


def _bands(
    host: JoinOfPaths, width: int
) -> list[tuple[int, list[Simplex], list[Simplex], list[Simplex]]]:
    """The band holes of the join as ``(key, facets, bottom, top)``: each
    band's host facets and the members on its two extreme diagonals."""
    return [
        (q, [host.facet_of(c) for c in region.cells], *_extreme_diagonals(host, region, width))
        for q, region in _band_regions(host.box, width)
    ]


def _assert_cell_shapes(manifest: FillManifest, d: int) -> None:
    """Every free cell is the free sum of a (d-1)-simplex and a d-simplex;
    for d = 2 that is a triangular bipyramid."""
    for cell in manifest.free_cells:
        sizes = sorted((len(cell.f_part), len(cell.g_part)))
        if sizes != [d, d + 1]:
            raise InternalInvariantViolation(
                f"cell {cell!r} is not a (d-1)-simplex + d-simplex free sum"
            )


def _assert_missing_faces_distinct(manifest: FillManifest) -> None:
    faces = [cell.f_part for cell in manifest.free_cells]
    if len(set(faces)) != len(faces):
        raise InternalInvariantViolation("missing faces collide across holes")


def _band_manifest(lengths: tuple[int, ...]) -> FillManifest:
    """Width-(d+2) diagonal band holes in the join of d paths with the
    given vertex counts, closed to a sphere of dimension 2d-1.  Every
    free cell is the free sum of a (d-1)-simplex and a d-simplex with a
    distinct interior missing face, so all of them triangulate
    independently."""
    host = join_of_paths(lengths)
    holes = [(q, facets, bottom + top) for q, facets, bottom, top in _bands(host, host.d + 2)]
    manifest = _close_with_cone(host.complex, fill_holes(host.complex, holes))
    _assert_cell_shapes(manifest, host.d)
    _assert_missing_faces_distinct(manifest)
    return manifest


def build_holes4(n: int, m: int | None = None) -> ConstructionReport:
    """Width-4 diagonal band holes in the join of two paths on n and m
    vertices (m defaults to n), closed to a 3-sphere; every free cell is
    a triangular bipyramid.  The same manifest as ``build_highd(2, n)``
    when m = n."""
    if m is None:
        m = n
    if n < 4 or m < 4:
        raise DegenerateInput("need n, m >= 4")
    manifest = _band_manifest((n, m))
    b = manifest.n_free_cells
    claimed = {
        "free_cells": b,
        "free_cells_over_n_squared": b / (n * m),
        "leading_coefficient": 0.5,
    }
    return ConstructionReport("holes4", manifest, claimed)


def build_holes3(n: int, m: int | None = None) -> ConstructionReport:
    """Width-3 band variant: denser candidate families, but the members
    come in pairs sharing a missing edge, so most holes would fail the
    compatibility test.  Each hole keeps its bottom members, the largest
    compatible family of its candidates, and the report lists the holes
    that drop members.  m defaults to n.

    Why the bottom members: the member of a bottom cell (i, j), with
    i + j = 3q, has its lower neighbors outside the band and its upper
    ones inside, so its missing face is the edge {a:1:i+1, a:2:j+1}.
    The four cells on that edge, (i, j), (i+1, j), (i, j+1) and
    (i+1, j+1), lie in the box and have sums 3q to 3q+2, so all are in
    the band; every triangle on the edge lies in two of them, so the
    edge is off the ball boundary.  Distinct bottom members have
    distinct edges.  A top member (i+1, j+1) has the same missing edge
    as (i, j), which is always a bottom member: its upper neighbors are
    cells of the box.  So the bottom members form a compatible family
    that no top member can join.  They are also exactly what a greedy
    pass keeps that takes the candidates in simplex order, each unless
    its missing face is on the boundary or already taken, since (i, j)
    sorts before (i+1, j+1).
    """
    if m is None:
        m = n
    if n < 4 or m < 4:
        raise DegenerateInput("need n, m >= 4")
    host = join_of_paths((n, m))
    bands = _bands(host, 3)
    holes = [(q, facets, bottom) for q, facets, bottom, _ in bands]
    manifest = _close_with_cone(host.complex, fill_holes(host.complex, holes))
    _assert_cell_shapes(manifest, 2)
    _assert_missing_faces_distinct(manifest)
    b = manifest.n_free_cells
    family_sizes = {q: len(bottom) + len(top) for q, _, bottom, top in bands}
    claimed = {
        "free_cells": b,
        "candidate_cells": sum(family_sizes.values()),
        "free_cells_over_n_squared": b / (n * m),
    }
    flags = {
        "incompatible_holes": [q for q, _, _, top in bands if top],
        "family_sizes": family_sizes,
        "fallback_sizes": {q: len(bottom) for q, _, bottom, _ in bands},
    }
    return ConstructionReport("holes3", manifest, claimed, flags)


def _aztec_regions(d: int, k: int, l: int) -> dict[tuple[int, ...], GridRegion]:
    """One Aztec crosspolytope per k^d subgrid of the (kl)^d grid."""
    shape = aztec_crosspolytope(d, k)
    box = GridBox((k * l,) * d)
    out = {}
    for sub in product(range(l), repeat=d):
        cells = [
            tuple(c + k * off for c, off in zip(cell, sub)) for cell in shape.cells
        ]
        out[tuple(s + 1 for s in sub)] = GridRegion.of(box, cells)
    return out


def _aztec_cells_per_hole(d: int, k: int) -> int:
    """Boundary cubes of one Aztec crosspolytope: the lattice points of
    its outermost shell, E(d, r) - E(d, r-1) with r = (k-1)/2."""
    return ehrhart_crosspolytope(d, (k - 1) // 2) - ehrhart_crosspolytope(d, (k - 3) // 2)


def _aztec_manifest(d: int, k: int, l: int) -> FillManifest:
    """Aztec crosspolytope holes, one per k^d subgrid of the join of d
    paths on kl+1 vertices; the output is a ball of dimension 2d-1 with
    l^d holes (no closing cone).  Every hole is certified as a ball."""
    if k < 3 or k % 2 == 0 or l < 1:
        raise DegenerateInput("need odd k >= 3 and l >= 1")
    host = join_of_paths((k * l + 1,) * d)
    manifest = fill_holes(host.complex, [
        (key, [host.facet_of(c) for c in region.cells], sorted(boundary_members(region)))
        for key, region in sorted(_aztec_regions(d, k, l).items())
    ])
    _assert_missing_faces_distinct(manifest)
    expected = _aztec_cells_per_hole(d, k) * l ** d
    if manifest.n_free_cells != expected:
        raise InternalInvariantViolation(
            f"expected {expected} free cells, got {manifest.n_free_cells}"
        )
    return manifest


def build_aztec(k: int, l: int) -> ConstructionReport:
    """Aztec-diamond holes, one per k x k subgrid of a square grid; every
    free cell is a triangular bipyramid.  The geometric realization lives
    in the geometry module.  The same manifest as
    ``build_aztec_highd(2, k, l)``."""
    manifest = _aztec_manifest(2, k, l)
    _assert_cell_shapes(manifest, 2)
    claimed = {
        "free_cells": manifest.n_free_cells,
        "formula_2k_minus_2_times_l_squared": (2 * k - 2) * l * l,
        "point_count": 2 * k * l + 2 + l * l,
    }
    return ConstructionReport("aztec", manifest, claimed)


def _cyclic_host(n: int) -> SimplicialComplex:
    """Boundary of the cyclic 4-polytope on 4n vertices labeled 0..4n-1.

    Facets are unions of two disjoint cyclically adjacent vertex pairs;
    this is the even-dimensional form of Gale's evenness condition."""
    size = 4 * n
    verts = [VertexId.raw(i) for i in range(size)]
    facets = []
    for p in range(size):
        for q in range(p + 2, size):
            if p == 0 and q == size - 1:
                continue
            facets.append(
                Simplex(
                    [verts[p], verts[(p + 1) % size], verts[q], verts[(q + 1) % size]]
                )
            )
    return SimplicialComplex.from_facets(facets)


def _cyclic_hole_facet(n: int, shift: int, cell: tuple[int, int]) -> Simplex:
    size = 4 * n
    i, j = cell
    return Simplex(
        VertexId.raw(v % size)
        for v in (i + shift, i + 1 + shift, j + 2 * n + shift, j + 2 * n + 1 + shift)
    )


def build_cyclic(n: int) -> ConstructionReport:
    """Band holes in the boundary of the cyclic 4-polytope on 4n vertices.

    Each hole is a rotated copy of a width-4 diagonal band in a chart box
    of (2n-1) x (2n-1) cells; the two chart corner cells that would wrap
    into degenerate vertex sets are exactly the two facets cut away to
    turn the wrap-around band into a ball, and they stay uncarved.  The
    family of a hole consists of all extreme-diagonal cells.  The host is
    already a sphere, so no closing cone is added: the result has exactly
    5n vertices.  The report flags that the customary closed-form count
    for this family is one higher (see flags['vertex_count_note'])."""
    if n < 3:
        raise DegenerateInput("need n >= 3")
    host = _cyclic_host(n)
    box = GridBox((2 * n - 1, 2 * n - 1))
    region = diagonal_band(box, 2 * n - 2, 2 * n + 1)
    holes = []
    for k in range(1, n + 1):
        shift = (2 * k + 2 * n) % (4 * n)
        facet_of = {c: _cyclic_hole_facet(n, shift, c) for c in region.cells}
        members = [
            facet_of[c] for c in sorted(region.cells) if sum(c) in (2 * n - 2, 2 * n + 1)
        ]
        holes.append((k, facet_of.values(), members))
    if len(host.facets.difference(*(facets for _, facets, _ in holes))) != 2 * n:
        raise InternalInvariantViolation(
            "expected exactly two uncarved facets per hole class"
        )
    manifest = fill_holes(host, holes)
    _assert_missing_faces_distinct(manifest)
    b = manifest.n_free_cells
    claimed = {
        "free_cells": b,
        "free_cells_over_n_squared": b / (n * n),
        "leading_coefficient": 4.0,
    }
    flags = {
        "vertex_count_note": (
            f"carving {n} holes from the 4n-vertex host yields {5 * n} vertices; "
            f"the customary closed form for this family is {5 * n + 1}"
        ),
        "vertex_count_alternatives": [5 * n, 5 * n + 1],
    }
    return ConstructionReport("cyclic", manifest, claimed, flags)


def build_highd(d: int, n: int) -> ConstructionReport:
    """Width-(d+2) band holes in the join of d paths on n vertices each,
    closed to a sphere of dimension 2d-1.  Every free cell is the free
    sum of a (d-1)-simplex and a d-simplex, with 2d+1 vertices."""
    if not 2 <= d <= 4:
        raise DegenerateInput("need 2 <= d <= 4 at desk scale")
    if n < d + 3:
        raise DegenerateInput("need n >= d + 3")
    manifest = _band_manifest((n,) * d)
    b = manifest.n_free_cells
    claimed = {
        "free_cells": b,
        "free_cells_over_n_to_d": b / (n ** d),
        "leading_coefficient": 2 / (d + 2),
    }
    return ConstructionReport("highd", manifest, claimed)


def build_aztec_highd(d: int, k: int, l: int) -> ConstructionReport:
    """Aztec crosspolytope holes in the join of d paths; output is a ball
    of dimension 2d-1 with l^d holes."""
    if not 2 <= d <= 3:
        raise DegenerateInput("need 2 <= d <= 3 at desk scale")
    manifest = _aztec_manifest(d, k, l)
    claimed = {
        "free_cells": manifest.n_free_cells,
        "boundary_cubes_per_hole": _aztec_cells_per_hole(d, k),
        "vertex_count_formula": d * (k * l + 1) + l ** d,
    }
    return ConstructionReport("aztec_highd", manifest, claimed)


BUILDERS = {
    "holes4": build_holes4,
    "holes3": build_holes3,
    "aztec": build_aztec,
    "cyclic": build_cyclic,
    "highd": build_highd,
    "aztec-hd": build_aztec_highd,
}
