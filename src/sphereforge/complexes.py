"""Core simplicial and polyhedral cell machinery.

Vertices carry structured labels with a fixed total order, so every facet
list, cell list and serialized artifact comes out byte-identical across
runs.  All types are immutable; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable

from .errors import (
    DegenerateInput,
    DisjointnessViolation,
    NotPseudomanifold,
)

_KIND_RANK = {"a": 0, "h": 1, "c": 2, "r": 3}
_ARITY = {"a": 2, "h": 1, "c": 0, "r": 1}


class VertexId(tuple):
    """Structured vertex label.

    Kinds: ``a`` path vertex (path index, position), ``h`` hole apex
    (integer key), ``c`` the single cone apex, ``r`` raw nonnegative
    integer.  Labels serialize as ``a:<path>:<pos>``, ``h:<key>``, ``c``
    and ``r:<int>``; only the canonical spelling of a label is read.

    A vertex is the tuple ``(rank of kind, *data)``: ``a:1:2`` is
    ``(0, 1, 2)`` and ``h:-3`` is ``(1, -3)``.  Each kind has a fixed
    arity, so the tuple order is the order of ``sort_key``, and hashing,
    equality and ``<`` are the tuple's own, made in C from integers only
    (set order does not depend on ``PYTHONHASHSEED``).  A vertex thus
    equals the plain tuple of its items, so no dict or set may hold
    both.  ``kind``, ``data`` and ``label`` are set once, at
    construction.  The factories (``path``, ``hole``, ``cone``, ``raw``,
    ``from_label``) return one shared instance per label, and so do copy
    and pickle; a vertex built directly equals the shared one.
    """

    kind: str
    data: tuple[int, ...]
    label: str

    def __new__(cls, kind: str, data: tuple[int, ...]) -> "VertexId":
        if kind not in _KIND_RANK:
            raise DegenerateInput(f"unknown vertex kind {kind!r}")
        arity = _ARITY[kind]
        if len(data) != arity:
            raise DegenerateInput(f"vertex kind {kind!r} needs {arity} fields")
        if kind == "a" and (data[0] < 1 or data[1] < 1):
            raise DegenerateInput("path vertices are 1-based")
        if kind == "r" and data[0] < 0:
            raise DegenerateInput("raw vertex ids are nonnegative")
        v = tuple.__new__(cls, (_KIND_RANK[kind], *data))
        v.__dict__.update(kind=kind, data=data, label=":".join([kind] + [str(x) for x in data]))
        return v

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"vertex {self.label} is immutable")

    def __reduce__(self):
        return (VertexId.from_label, (self.label,))

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self[0], self.data)

    @classmethod
    def _interned(cls, kind: str, data: tuple[int, ...]) -> "VertexId":
        v = _INTERNED.get((kind, data))
        if v is None:
            v = _INTERNED[(kind, data)] = cls(kind, data)
        return v

    @classmethod
    def path(cls, path: int, pos: int) -> "VertexId":
        return cls._interned("a", (path, pos))

    @classmethod
    def hole(cls, key: int) -> "VertexId":
        return cls._interned("h", (key,))

    @classmethod
    def cone(cls) -> "VertexId":
        return cls._interned("c", ())

    @classmethod
    def raw(cls, n: int) -> "VertexId":
        return cls._interned("r", (n,))

    @classmethod
    def from_label(cls, text: str) -> "VertexId":
        """The vertex of a canonical label: ``v.label == text`` holds for
        the result, so a sign, a leading zero, an underscore, a space or a
        non-ASCII digit, which ``int`` would read, is refused."""
        if not isinstance(text, str):
            raise DegenerateInput(f"bad vertex label {text!r}")
        parts = text.split(":")
        kind = parts[0]
        if kind not in _KIND_RANK:
            raise DegenerateInput(f"bad vertex label {text!r}")
        try:
            data = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise DegenerateInput(f"bad vertex label {text!r}") from exc
        v = cls._interned(kind, data)
        if v.label != text:
            raise DegenerateInput(
                f"bad vertex label {text!r}: the canonical spelling is {v.label!r}"
            )
        return v

    def __repr__(self) -> str:
        return f"V({self.label})"


# The shared vertex of each (kind, data).  Vertices are immutable, so
# one instance per label can serve every caller.
_INTERNED: dict[tuple[str, tuple[int, ...]], VertexId] = {}


class Simplex(tuple):
    """An abstract simplex: the strictly sorted tuple of its vertex ids.

    Hashing, equality and ``<`` are the tuple's own, made in C.  A
    simplex thus equals the plain tuple of its vertices, so no dict or
    set may hold both.  ``Simplex(...)`` sorts its input and refuses a
    repeated vertex; ``_face`` trusts its input, and is only given
    sub-tuples of an existing simplex, or their sorted unions, which are
    strictly sorted because a simplex is.
    """

    __slots__ = ()

    def __new__(cls, verts: Iterable[VertexId]) -> "Simplex":
        vs = sorted(verts)
        for u, w in zip(vs, vs[1:]):
            if u == w:
                raise DegenerateInput(f"repeated vertex {u.label} in simplex")
        return tuple.__new__(cls, vs)

    @classmethod
    def _face(cls, verts: Iterable[VertexId]) -> "Simplex":
        """A simplex on strictly sorted vertices, taken as they are."""
        return tuple.__new__(cls, verts)

    @property
    def vset(self) -> frozenset[VertexId]:
        """The vertex set, which the perfbench workloads read."""
        return frozenset(self)

    def __repr__(self) -> str:
        return "{" + ",".join(v.label for v in self) + "}"


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure simplicial complex, stored by its facets.

    Faces are derived from facets on demand; nothing else is stored.  The
    complex with a single empty facet is the join identity.  The void
    complex (no facets at all) is a legal *output* of boundary taking but
    is rejected as input everywhere.
    """

    facets: frozenset[Simplex]
    dim: int

    @classmethod
    def from_facets(cls, facets: Iterable) -> "SimplicialComplex":
        fs = set()
        for f in facets:
            fs.add(f if isinstance(f, Simplex) else Simplex(f))
        if not fs:
            return cls(frozenset(), -1)
        sizes = {len(f) for f in fs}
        if len(sizes) != 1:
            raise DegenerateInput(f"facets of mixed dimensions {sorted(n - 1 for n in sizes)}")
        return cls(frozenset(fs), sizes.pop() - 1)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def sorted_facets(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self.facets))

    @cached_property
    def vertex_set(self) -> frozenset[VertexId]:
        return frozenset(v for f in self.facets for v in f)

    @cached_property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.vertex_set))

    def _require_nonvoid(self) -> None:
        if self.is_void:
            raise DegenerateInput("void complex is not valid input")


def _indexed_facets(x: SimplicialComplex) -> list[tuple[int, ...]]:
    """Facets as sorted tuples of vertex indices, in the order of
    ``x.sorted_facets``.  ``x.vertices`` and each facet are sorted, so
    the indices come out in order."""
    index = {v: i for i, v in enumerate(x.vertices)}
    return sorted([tuple([index[v] for v in f]) for f in x.facets])


def _ridges(facets: list[tuple[int, ...]]) -> dict[tuple[int, ...], list[int]]:
    """Map each codimension-1 face to the indices of the facets that
    contain it: the one ridge pass, which ``boundary_complex`` and, in
    ``topology``, ``certify`` and ``betti_gf2`` make."""
    d = len(facets[0]) - 1
    ridges: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(facets):
        for r in combinations(f, d):
            ridges.setdefault(r, []).append(i)
    return ridges


def boundary_complex(x: SimplicialComplex) -> SimplicialComplex:
    """Codimension-1 faces lying in exactly one facet; void if closed.

    The ridges are counted on vertex-index tuples by ``_ridges``, the
    pass that ``certify`` makes, and a ``Simplex`` is built only for a
    boundary ridge.  A ridge in three or more facets raises
    ``NotPseudomanifold``, which names the least such ridge in vertex
    order and its facet count.  The empty-facet complex has no ridge,
    so its boundary is void."""
    x._require_nonvoid()
    if x.dim < 0:
        return SimplicialComplex.from_facets(())
    ridges = _ridges(_indexed_facets(x))
    vertex = x.vertices.__getitem__
    if max(map(len, ridges.values())) > 2:
        r = min(r for r, owners in ridges.items() if len(owners) > 2)
        raise NotPseudomanifold(
            f"face {Simplex._face(map(vertex, r))!r} lies in {len(ridges[r])} facets"
        )
    return SimplicialComplex.from_facets(
        [Simplex._face(map(vertex, r)) for r, owners in ridges.items() if len(owners) == 1]
    )


class FreeSumCell(tuple):
    """A non-simplex cell recorded by its two minimal non-faces.

    The cell is the free sum of the simplex ``f_part`` and the simplex
    ``g_part`` (the latter includes the fill apex).  Its proper faces
    are exactly the unions of a proper subset of each part.  A cell is
    the pair ``(f_part, g_part)``: hashing, equality and ``<`` are the
    tuple's own, so a cell equals its plain pair, and no dict or set
    may hold both.
    """

    __slots__ = ()

    def __new__(cls, f_part: Simplex, g_part: Simplex) -> "FreeSumCell":
        if not set(f_part).isdisjoint(g_part):
            raise DisjointnessViolation("free sum parts must be disjoint")
        if len(f_part) < 2 or len(g_part) < 2:
            raise DegenerateInput("each free sum part needs at least 2 vertices")
        return tuple.__new__(cls, (f_part, g_part))

    f_part = property(itemgetter(0))
    g_part = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[Simplex, Simplex]:
        return tuple(self)

    @property
    def dim(self) -> int:
        return len(self.f_part) + len(self.g_part) - 2

    @property
    def vset(self) -> frozenset[VertexId]:
        return frozenset(self.f_part + self.g_part)

    def __repr__(self) -> str:
        return f"FS({self.f_part!r}+{self.g_part!r})"


@dataclass(frozen=True)
class PolyComplex:
    """A mixed collection of simplices and free-sum cells of equal dimension."""

    simplex_cells: frozenset[Simplex]
    free_cells: frozenset[FreeSumCell]
    dim: int

    @classmethod
    def from_cells(
        cls,
        simplex_cells: Iterable[Simplex],
        free_cells: Iterable[FreeSumCell] = (),
    ) -> "PolyComplex":
        ss = frozenset(simplex_cells)
        fs = frozenset(free_cells)
        dims = {len(s) - 1 for s in ss} | {len(f) + len(g) - 2 for f, g in fs}
        if not dims:
            raise DegenerateInput("a polyhedral complex needs at least one cell")
        if len(dims) != 1:
            raise DegenerateInput(f"cells of mixed dimensions {sorted(dims)}")
        return cls(ss, fs, dims.pop())

    @classmethod
    def from_simplicial(cls, x: SimplicialComplex) -> "PolyComplex":
        x._require_nonvoid()
        return cls(x.facets, frozenset(), x.dim)

    @cached_property
    def vertex_set(self) -> frozenset[VertexId]:
        vs: set[VertexId] = set()
        for s in self.simplex_cells:
            vs.update(s)
        for f_part, g_part in self.free_cells:
            vs.update(f_part)
            vs.update(g_part)
        return frozenset(vs)

    @cached_property
    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.vertex_set))

    @cached_property
    def sorted_simplex_cells(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self.simplex_cells))

    @cached_property
    def sorted_free_cells(self) -> tuple[FreeSumCell, ...]:
        return tuple(sorted(self.free_cells))
