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
from operator import itemgetter
from typing import Collection, Hashable, Iterable, NamedTuple, Sequence

from .complexes import (
    FreeSumCell,
    PolyComplex,
    Simplex,
    SimplicialComplex,
    VertexId,
    boundary_complex,
)
from .errors import DegenerateInput, InternalInvariantViolation


@dataclass(frozen=True)
class BallInComplex:
    """A subfamily of host facets forming a ball to be carved."""

    host: SimplicialComplex
    ball_facets: frozenset[Simplex]

    @classmethod
    def of(cls, host: SimplicialComplex, facets: Iterable[Simplex]) -> "BallInComplex":
        fs = frozenset(facets)
        if not fs <= host.facets:
            raise DegenerateInput(f"{min(fs - host.facets)!r} is not a facet of the host")
        if len(fs) == 0:
            raise DegenerateInput("ball needs at least one facet")
        if len(fs) == 1:
            raise DegenerateInput("a single-simplex ball cannot be carved")
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

    def faces_on_boundary(self, faces: Collection[Simplex]) -> set[Simplex]:
        """Those of a collection of faces of the ball that lie in a
        boundary ridge: the subsets of the ridges of each size asked for
        are listed once."""
        on: set[tuple[VertexId, ...]] = set()
        for k in {len(f) for f in faces}:
            for r in self.boundary.facets:
                on.update(combinations(r, k))
        return {f for f in faces if f in on}


def missing_face(b: BallInComplex, sigma: Simplex) -> Simplex:
    """The unique minimal non-face of the cell's boundary restriction:
    the vertices v of sigma whose opposite facet sigma - v lies on the
    ball boundary.

    This is sigma minus the common intersection of its boundary facets:
    those facets are exactly sigma - v for v in f, and they meet in
    sigma - f.  The facets are read as vertex tuples against the facets
    of ``b.boundary``, which equal them; ``combinations`` leaves out the
    last vertex first and the first vertex last, so f is read off in one
    pass, already sorted.
    """
    if sigma not in b.ball_facets:
        raise DegenerateInput(f"{sigma!r} is not a facet of the ball")
    ridges = b.boundary.facets
    on = [r in ridges for r in combinations(sigma, len(sigma) - 1)]
    f = tuple(compress(sigma, reversed(on)))
    if not f:
        raise DegenerateInput(f"{sigma!r} has no facet on the ball boundary")
    if len(f) == len(sigma):
        raise DegenerateInput("boundary restriction is the whole cell boundary")
    return Simplex._face(f)


@dataclass(frozen=True)
class CompatibleFamily:
    """Full-dimensional simplices of a ball whose missing faces will be
    merged into free-sum cells.

    Members need at least two facets on the ball boundary, so each yields
    a genuine free sum of two simplices of dimension at least one.  Their
    missing faces are pairwise distinct and none lies on the ball
    boundary, so every free sum triangulates independently of the others;
    ``of`` refuses any other family.
    """

    ball: BallInComplex
    members: frozenset[Simplex]

    @classmethod
    def of(cls, ball: BallInComplex, members: Iterable[Simplex]) -> "CompatibleFamily":
        ms = frozenset(members)
        if not ms <= ball.ball_facets:
            raise DegenerateInput(f"member {min(ms - ball.ball_facets)!r} is not a facet of the ball")
        fam = cls(ball, ms)
        faces = fam.missing_faces
        for m, f in faces.items():
            if len(f) < 2:
                raise DegenerateInput(
                    f"member {m!r} has a single boundary facet; its fill "
                    "cell would degenerate to a simplex"
                )
        if len(set(faces.values())) != len(faces) or ball.faces_on_boundary(faces.values()):
            raise DegenerateInput("missing faces collide or touch the boundary")
        return fam

    @cached_property
    def missing_faces(self) -> dict[Simplex, Simplex]:
        return {m: missing_face(self.ball, m) for m in self.sorted_members}

    @cached_property
    def sorted_members(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self.members))


def fill_ball(
    fam: CompatibleFamily, apex: VertexId
) -> tuple[PolyComplex, list[FreeSumCell]]:
    """Replace the ball interior by a cone over its boundary from a fresh
    apex, merging each member's boundary restriction into one free-sum
    cell.  The result has the same boundary as the ball."""
    ball = fam.ball
    if apex in ball.host.vertex_set:
        raise DegenerateInput(f"apex {apex.label} already used")
    free: list[FreeSumCell] = []
    # The ridges of the members, as vertex tuples.  Those on the
    # boundary are the ones the free cells cover: m - v for v in f.
    covered: set[tuple[VertexId, ...]] = set()
    for m, f_part in fam.missing_faces.items():
        g_part = Simplex([v for v in m if v not in f_part] + [apex])
        free.append(FreeSumCell(f_part, g_part))
        covered.update(combinations(m, len(m) - 1))
    cones = [Simplex((*r, apex)) for r in ball.boundary.facets if r not in covered]
    free.sort()
    if not cones and not free:
        raise DegenerateInput("fill produced no cells")
    result = PolyComplex.from_cells(cones, free)
    return result, free


class Hole(NamedTuple):
    """One filled hole: its key, its apex and its free cells in canonical
    order (by missing face)."""

    key: Hashable
    apex: VertexId
    cells: tuple[FreeSumCell, ...]


@dataclass(frozen=True)
class FillManifest:
    """The outcome of carving and filling: the new complex plus its holes.
    Hole keys obey ``_check_keys``, and the holes list every free cell of
    the complex exactly once."""

    result: PolyComplex
    holes: tuple[Hole, ...]

    def __post_init__(self) -> None:
        _check_keys([h.key for h in self.holes])
        cells = self.free_cells
        if len(cells) != len(self.result.free_cells) or set(cells) != self.result.free_cells:
            raise DegenerateInput("the holes do not list each free cell of the complex once")

    @cached_property
    def free_cells(self) -> tuple[FreeSumCell, ...]:
        return tuple(c for h in self.holes for c in h.cells)

    @property
    def n_free_cells(self) -> int:
        return len(self.free_cells)


def key_label(key: Hashable) -> str:
    """A hole key as it appears in files, reports and messages: "3" or
    "1,2"."""
    if isinstance(key, tuple):
        return ",".join(str(k) for k in key)
    return str(key)


def key_from_label(text: str) -> Hashable:
    """The hole key that ``key_label`` spells as text: ``key_label`` of
    the result equals text, so a sign, a leading zero, an underscore, a
    space or a non-ASCII digit, which ``int`` would read, is refused."""
    if not isinstance(text, str):
        raise DegenerateInput(f"bad hole key {text!r}")
    key = tuple(int(p) for p in text.split(",")) if "," in text else int(text)
    canonical = key_label(key)
    if canonical != text:
        raise DegenerateInput(f"bad hole key {text!r}: the canonical spelling is {canonical!r}")
    return key


def _check_keys(keys: list[Hashable]) -> None:
    """Hole keys are the ones a manifest file spells and reads back: all
    integers, or all tuples of at least two integers, and no key twice.
    ``bool`` is not an integer key.  Every path that makes or reads
    holes checks its keys here."""
    seen: set[Hashable] = set()
    for key in keys:
        if not (type(key) is int or isinstance(key, tuple) and len(key) >= 2
                and all(type(k) is int for k in key)):
            raise DegenerateInput(
                f"hole key {key!r} is neither an integer nor a tuple of at least two integers"
            )
        if isinstance(key, tuple) != isinstance(keys[0], tuple):
            raise DegenerateInput(f"hole keys {keys[0]!r} and {key!r} mix integers and tuples")
        if key in seen:
            raise DegenerateInput(f"hole key {key!r} appears twice")
        seen.add(key)


def carve_and_fill(
    host: SimplicialComplex, holes: Iterable[tuple[Hashable, CompatibleFamily]]
) -> FillManifest:
    """Fill several balls with disjoint interiors simultaneously, given as
    ``(key, family)`` pairs in any order; the manifest lists them by key.

    Balls may share boundary faces but no full-dimensional simplex.  One
    fresh apex is introduced per ball: ``h:<key>`` for an integer key,
    ``h:<rank>`` for a tuple key, so the apexes are distinct.  Simplices
    outside every ball are kept unchanged.
    """
    host._require_nonvoid()
    holes = list(holes)
    _check_keys([key for key, _ in holes])
    holes.sort(key=itemgetter(0))
    seen: set[Simplex] = set()
    for _, fam in holes:
        if fam.ball.host is not host and fam.ball.host != host:
            raise DegenerateInput("family ball lives in a different host")
        overlap = seen & fam.ball.ball_facets
        if overlap:
            raise DegenerateInput(f"balls share the simplex {min(overlap)!r}")
        seen |= fam.ball.ball_facets

    simplex_cells: list[Simplex] = [f for f in host.facets if f not in seen]
    filled: list[Hole] = []
    for rank, (key, fam) in enumerate(holes, start=1):
        apex = VertexId.hole(key if isinstance(key, int) else rank)
        cones, free = fill_ball(fam, apex)
        simplex_cells.extend(cones.simplex_cells)
        filled.append(Hole(key, apex, tuple(free)))
    result = PolyComplex.from_cells(simplex_cells, [c for h in filled for c in h.cells])
    # the balls' interior vertices, in a ball but on no ball's boundary,
    # leave with them, unless a facet outside every ball holds them
    gone = set().union(*(fam.ball.subcomplex.vertex_set for _, fam in holes))
    gone.difference_update(*(f for _, fam in holes for f in fam.ball.boundary.facets))
    if gone:
        gone -= set().union(*(f for f in host.facets if f not in seen))
    expected = len(host.vertex_set) - len(gone) + len(filled)
    if len(result.vertex_set) != expected:
        raise InternalInvariantViolation(
            f"expected {expected} vertices, got {len(result.vertex_set)}"
        )
    return FillManifest(result, tuple(filled))


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
        raise DegenerateInput(f"{len(cells)} free cells but {len(choices)} choices")
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
