"""Carving balls out of a complex and filling them with free-sum cells.

Each ball is replaced by a cone from a fresh apex over its boundary,
except that the boundary pieces contributed by a compatible family of
simplices are merged, which turns the corresponding cones into free sums
of two simplices.  A member sigma is recorded by its missing face, read
off in one pass: f = {v in sigma : sigma - v lies on the ball boundary}.
Its fill cell is f + ((sigma - f) | {apex}), and the boundary facets it
covers are sigma - v for v in f.  Every free sum can later be
triangulated in two ways without new vertices, independently of all the
others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from typing import Collection, Hashable, Iterable, Sequence

from .complexes import (
    FreeSumCell,
    PolyComplex,
    Simplex,
    SimplicialComplex,
    VertexId,
    boundary_complex,
)
from .errors import (
    BallOverlap,
    ChoiceLengthMismatch,
    DegenerateInput,
    DisjointnessViolation,
    FaceNotFound,
    IncompatibleFamily,
    InternalInvariantViolation,
    NoBoundaryContact,
    SingleSimplexBall,
)


@dataclass(frozen=True)
class BallInComplex:
    """A subfamily of host facets forming a ball to be carved."""

    host: SimplicialComplex
    ball_facets: frozenset[Simplex]

    @classmethod
    def of(cls, host: SimplicialComplex, facets: Iterable[Simplex]) -> "BallInComplex":
        fs = frozenset(facets)
        if not fs <= host.facets:
            raise FaceNotFound(f"{min(fs - host.facets)!r} is not a facet of the host")
        if len(fs) == 0:
            raise DegenerateInput("ball needs at least one facet")
        if len(fs) == 1:
            raise SingleSimplexBall("a single-simplex ball cannot be carved")
        return cls(host, fs)

    @property
    def dim(self) -> int:
        return self.host.dim

    @cached_property
    def subcomplex(self) -> SimplicialComplex:
        return SimplicialComplex.from_facets(self.ball_facets)

    @cached_property
    def boundary(self) -> SimplicialComplex:
        return boundary_complex(self.subcomplex)

    @cached_property
    def vertex_index(self) -> dict[VertexId, int]:
        """Each ball vertex's index in ``subcomplex.vertices``.  Those are
        sorted, so the indices of a simplex's vertices come out sorted."""
        return {v: i for i, v in enumerate(self.subcomplex.vertices)}

    def indices(self, s: Simplex) -> tuple[int, ...]:
        index = self.vertex_index
        return tuple([index[v] for v in s])

    @cached_property
    def boundary_ridges(self) -> frozenset[tuple[int, ...]]:
        """The facets of ``boundary``, as vertex-index tuples."""
        return frozenset(map(self.indices, self.boundary.facets))

    def faces_on_boundary(self, faces: Collection[Simplex]) -> set[Simplex]:
        """Those of a collection of faces of the ball that lie in a
        boundary ridge, tested on vertex-index tuples: the subsets of the
        ridges of each size asked for are listed once."""
        on: set[tuple[int, ...]] = set()
        for k in {len(f) for f in faces}:
            for r in self.boundary_ridges:
                on.update(combinations(r, k))
        return {f for f in faces if self.indices(f) in on}


def missing_face(b: BallInComplex, sigma: Simplex) -> Simplex:
    """The unique minimal non-face of the cell's boundary restriction:
    the vertices v of sigma whose opposite facet sigma - v lies on the
    ball boundary.

    This is sigma minus the common intersection of its boundary facets:
    those facets are exactly sigma - v for v in f, and they meet in
    sigma - f.  The facets are read as vertex-index tuples against
    ``b.boundary_ridges``; ``combinations`` leaves out the last vertex
    first and the first vertex last, so f is read off in one pass,
    already sorted.
    """
    if sigma not in b.ball_facets:
        raise FaceNotFound(f"{sigma!r} is not a facet of the ball")
    ridges = b.boundary_ridges
    s = b.indices(sigma)
    on = [r in ridges for r in combinations(s, len(s) - 1)]
    f = tuple(compress(sigma, reversed(on)))
    if not f:
        raise NoBoundaryContact(f"{sigma!r} has no facet on the ball boundary")
    if len(f) == len(sigma):
        raise SingleSimplexBall("boundary restriction is the whole cell boundary")
    return Simplex._face(f)


@dataclass(frozen=True)
class CompatibleFamily:
    """Full-dimensional simplices of a ball whose missing faces will be
    merged into free-sum cells.

    Members need at least two facets on the ball boundary, so each yields
    a genuine free sum of two simplices of dimension at least one.
    """

    ball: BallInComplex
    members: frozenset[Simplex]

    @classmethod
    def of(cls, ball: BallInComplex, members: Iterable[Simplex]) -> "CompatibleFamily":
        ms = frozenset(members)
        if not ms <= ball.ball_facets:
            raise FaceNotFound(f"member {min(ms - ball.ball_facets)!r} is not a facet of the ball")
        fam = cls(ball, ms)
        for m, f in fam.missing_faces.items():
            if len(f) < 2:
                raise IncompatibleFamily(
                    f"member {m!r} has a single boundary facet; its fill "
                    "cell would degenerate to a simplex"
                )
        return fam

    @cached_property
    def missing_faces(self) -> dict[Simplex, Simplex]:
        return {m: missing_face(self.ball, m) for m in self.sorted_members}

    @cached_property
    def sorted_members(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self.members))

    def subfamily(self, members: Iterable[Simplex]) -> "CompatibleFamily":
        """The family of some of these members, its ``missing_faces``
        cache filled from this one's instead of read again."""
        sub = CompatibleFamily(self.ball, frozenset(members))
        sub.__dict__["missing_faces"] = {m: self.missing_faces[m] for m in sub.sorted_members}
        return sub


def is_compatible(fam: CompatibleFamily) -> bool:
    """All missing faces pairwise distinct and none on the ball boundary."""
    faces = list(fam.missing_faces.values())
    if len(set(faces)) != len(faces):
        return False
    return not fam.ball.faces_on_boundary(faces)


def fill_ball(
    fam: CompatibleFamily, apex: VertexId
) -> tuple[PolyComplex, list[FreeSumCell]]:
    """Replace the ball interior by a cone over its boundary from a fresh
    apex, merging each member's boundary restriction into one free-sum
    cell.  The result has the same boundary as the ball."""
    if not is_compatible(fam):
        raise IncompatibleFamily("missing faces collide or touch the boundary")
    ball = fam.ball
    if apex in ball.host.vertex_set:
        raise DisjointnessViolation(f"apex {apex.label} already used")
    free: list[FreeSumCell] = []
    # The ridges of the members, as vertex-index tuples.  Those on the
    # boundary are the ones the free cells cover: m - v for v in f.
    covered: set[tuple[int, ...]] = set()
    for m, f_part in fam.missing_faces.items():
        g_part = Simplex([v for v in m if v not in f_part] + [apex])
        free.append(FreeSumCell(f_part, g_part))
        s = ball.indices(m)
        covered.update(combinations(s, len(s) - 1))
    vertex = ball.subcomplex.vertices.__getitem__
    cones = [
        Simplex([*map(vertex, r), apex])
        for r in ball.boundary_ridges
        if r not in covered
    ]
    free.sort()
    if not cones and not free:
        raise DegenerateInput("fill produced no cells")
    result = PolyComplex.from_cells(cones, free)
    return result, free


@dataclass(frozen=True)
class FillManifest:
    """The outcome of carving and filling: the new complex plus the free
    cells per hole in canonical order (hole key, then missing face).
    Hole keys are distinct, and the holes list every free cell of the
    complex exactly once."""

    result: PolyComplex
    hole_keys: tuple[Hashable, ...]
    free_cells_by_ball: dict[Hashable, tuple[FreeSumCell, ...]]
    apex_of_ball: dict[Hashable, VertexId]

    def __post_init__(self) -> None:
        if len(set(self.hole_keys)) != len(self.hole_keys):
            raise DegenerateInput(f"hole keys {self.hole_keys} are not distinct")
        cells = self.free_cells
        if len(cells) != len(self.result.free_cells) or set(cells) != self.result.free_cells:
            raise DegenerateInput("the holes do not list each free cell of the complex once")

    @cached_property
    def free_cells(self) -> tuple[FreeSumCell, ...]:
        out: list[FreeSumCell] = []
        for key in self.hole_keys:
            out.extend(self.free_cells_by_ball[key])
        return tuple(out)

    @property
    def n_free_cells(self) -> int:
        return len(self.free_cells)


def key_label(key: Hashable) -> str:
    """A hole key as it appears in files, reports and messages: "3" or
    "1,2"."""
    if isinstance(key, tuple):
        return ",".join(str(k) for k in key)
    return str(key)


def _apex_key(key: Hashable, rank: int) -> int:
    return key if isinstance(key, int) else rank


def carve_and_fill(
    host: SimplicialComplex,
    fams: Sequence[CompatibleFamily],
    keys: Sequence[Hashable] | None = None,
) -> FillManifest:
    """Fill several balls with disjoint interiors simultaneously.

    Balls may share boundary faces but no full-dimensional simplex.  One
    fresh apex is introduced per ball; simplices outside every ball are
    kept unchanged.
    """
    host._require_nonvoid()
    if keys is None:
        keys = list(range(1, len(fams) + 1))
    if len(keys) != len(fams) or len(set(keys)) != len(keys):
        raise DegenerateInput("hole keys must be unique, one per family")
    for fam in fams:
        if fam.ball.host is not host and fam.ball.host != host:
            raise FaceNotFound("family ball lives in a different host")
    order = sorted(range(len(fams)), key=lambda i: keys[i])
    seen: set[Simplex] = set()
    for i in order:
        overlap = seen & fams[i].ball.ball_facets
        if overlap:
            raise BallOverlap(f"balls share the simplex {min(overlap)!r}")
        seen |= fams[i].ball.ball_facets

    kept = [f for f in host.facets if f not in seen]
    simplex_cells: list[Simplex] = list(kept)
    by_ball: dict[Hashable, tuple[FreeSumCell, ...]] = {}
    apex_of: dict[Hashable, VertexId] = {}
    used_apexes: set[VertexId] = set()
    for rank, i in enumerate(order, start=1):
        key = keys[i]
        apex = VertexId.hole(_apex_key(key, rank))
        if apex in used_apexes or apex in host.vertex_set:
            raise DisjointnessViolation(f"apex {apex.label} already used")
        used_apexes.add(apex)
        filled, free = fill_ball(fams[i], apex)
        simplex_cells.extend(filled.simplex_cells)
        by_ball[key] = tuple(free)
        apex_of[key] = apex
    all_free = [c for key in sorted(by_ball) for c in by_ball[key]]
    result = PolyComplex.from_cells(simplex_cells, all_free)
    expected = len(host.vertex_set) + len(fams)
    if len(result.vertex_set) != expected:
        raise InternalInvariantViolation(
            f"expected {expected} vertices, got {len(result.vertex_set)}"
        )
    return FillManifest(
        result=result,
        hole_keys=tuple(sorted(by_ball)),
        free_cells_by_ball=by_ball,
        apex_of_ball=apex_of,
    )


def triangulate_cell(c: FreeSumCell, choice: int) -> list[Simplex]:
    """The two triangulations of a free-sum cell without new vertices,
    sorted.

    Choice 0 inserts the first part (one simplex per vertex of the second
    part); choice 1 inserts the second part.  Both leave the cell
    boundary intact.  Each simplex is the inserted part plus the other
    part less one vertex, built straight from the sorted vertices.
    """
    if choice not in (0, 1):
        raise DegenerateInput("choice must be 0 or 1")
    part, other = (c.f_part, c.g_part) if choice == 0 else (c.g_part, c.f_part)
    # The parts are disjoint (FreeSumCell checks it), so each sorted
    # tuple is strictly sorted.  Each simplex is S - b for S the cell's
    # vertices and b a vertex of ``other``; for a < b, S - b holds a
    # where S - a holds the next vertex of S, so S - b sorts first.
    # Dropping the vertices of ``other`` from the last to the first thus
    # gives the list in sorted order.
    return [
        Simplex._face(sorted(part + other[:i] + other[i + 1:]))
        for i in range(len(other) - 1, -1, -1)
    ]


def realize(m: FillManifest, choices: Sequence[int]) -> SimplicialComplex:
    """Triangulate every free cell according to a choice vector.  The
    realization has the manifest's vertices, so its ``vertex_set`` and
    ``vertices`` are taken from ``m.result`` instead of counted again."""
    cells = m.free_cells
    if len(choices) != len(cells):
        raise ChoiceLengthMismatch(
            f"{len(cells)} free cells but {len(choices)} choices"
        )
    facets: list[Simplex] = list(m.result.simplex_cells)
    for cell, bit in zip(cells, choices):
        facets.extend(triangulate_cell(cell, int(bit)))
    x = SimplicialComplex.from_facets(facets)
    # Both triangulations of f + g use every vertex of f | g (each part
    # has at least two vertices, so each is in some simplex) and add
    # none, so the facets cover the cells' vertices exactly.
    x.__dict__["vertex_set"] = m.result.vertex_set
    x.__dict__["vertices"] = m.result.vertices
    return x
