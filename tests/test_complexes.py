"""Core complex machinery against small hand-checked and brute-force oracles."""

import ast
import copy
import pickle
import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphereforge
from sphereforge import (
    FreeSumCell,
    PolyComplex,
    Simplex,
    SimplicialComplex,
    VertexId,
    boundary_complex,
)
from sphereforge.errors import DegenerateInput

from oracles import (
    EMPTY_SIMPLEX,
    boundary_facets,
    cone,
    cyclic_polytope_facets,
    empty_complex,
    f_vector,
    join,
    link,
    simplex_facets,
    star,
)


def a(i):
    return VertexId.path(1, i)


def b(j):
    return VertexId.path(2, j)


def raw_simplex(*ns):
    return Simplex(VertexId.raw(n) for n in ns)


def path_complex(mk, n):
    return SimplicialComplex.from_facets(
        Simplex((mk(i), mk(i + 1))) for i in range(1, n)
    )


def paths_join(n, m):
    """Independent construction of the join of two paths: all products."""
    return join(path_complex(a, n), path_complex(b, m))


class TestVertexId:
    def test_total_order(self):
        vs = [VertexId.raw(0), VertexId.cone(), VertexId.hole(3), a(2), a(1)]
        assert sorted(vs, key=lambda v: v.sort_key) == [
            a(1), a(2), VertexId.hole(3), VertexId.cone(), VertexId.raw(0),
        ]

    def test_natural_order_is_the_sort_key_order(self):
        # VertexId.sort_key is the one definition of the canonical order;
        # simplices and free-sum cells compare lexicographically in it
        rng = random.Random(2014)
        pool = [VertexId.cone()]
        for _ in range(40):
            pool += [
                VertexId.path(rng.randint(1, 3), rng.randint(1, 12)),
                VertexId.hole(rng.randint(-5, 20)),
                VertexId.raw(rng.randint(0, 30)),
            ]
        pool = list(dict.fromkeys(pool))  # distinct, in a seed-fixed order
        for _ in range(20):
            vs = rng.sample(pool, 30)
            assert sorted(vs) == sorted(vs, key=lambda v: v.sort_key)
            simplices = [Simplex(rng.sample(pool, rng.randint(0, 5))) for _ in range(40)]
            assert sorted(simplices) == sorted(
                simplices, key=lambda s: tuple(v.sort_key for v in s)
            )
            cells = []
            for _ in range(40):
                vs = rng.sample(pool, rng.randint(4, 7))
                cut = rng.randint(2, len(vs) - 2)
                cells.append(FreeSumCell(Simplex(vs[:cut]), Simplex(vs[cut:])))
            assert sorted(cells) == sorted(cells, key=lambda c: (
                tuple(v.sort_key for v in c.f_part),
                tuple(v.sort_key for v in c.g_part),
            ))

    def test_labels_round_trip(self):
        for v in (a(1), b(7), VertexId.hole(12), VertexId.cone(), VertexId.raw(0)):
            assert VertexId.from_label(v.label) == v

    def test_bad_labels(self):
        with pytest.raises(DegenerateInput):
            VertexId.from_label("x:1")
        with pytest.raises(DegenerateInput):
            VertexId.from_label("a:one:2")
        # int() reads these, but only the canonical spelling is a label
        for label in ("r:01", "r:1_0", "r: 1", "a:+1:2", "r:\u0663", "h:-0", "c:"):
            with pytest.raises(DegenerateInput, match="bad vertex label"):
                VertexId.from_label(label)

    @pytest.mark.parametrize("kind, data, message", [
        ("q", (), "unknown vertex kind 'q'"),
        ("a", (1,), "vertex kind 'a' needs 2 fields"),
        ("a", (1, 0), "path vertices are 1-based"),
        ("r", (-1,), "raw vertex ids are nonnegative"),
    ])
    def test_a_directly_built_vertex_of_no_kind_is_refused(self, kind, data, message):
        with pytest.raises(DegenerateInput, match=f"^{re.escape(message)}$"):
            VertexId(kind, data)

    def test_a_directly_built_vertex_equals_the_shared_one(self):
        direct, shared = VertexId("a", (1, 2)), VertexId.path(1, 2)
        assert direct is not shared
        assert direct == shared and shared == direct
        assert hash(direct) == hash(shared)
        assert {direct: 1}[shared] == 1
        assert direct != VertexId("a", (2, 1))
        assert direct != "a:1:2"

    def test_the_factories_share_one_vertex_per_label(self):
        assert VertexId.path(1, 2) is VertexId.from_label("a:1:2")
        assert VertexId.hole(-3) is VertexId.from_label("h:-3")
        assert VertexId.cone() is VertexId.from_label("c")
        assert VertexId.raw(0) is VertexId.from_label("r:0")

    def test_order_across_kinds_then_by_data(self):
        expected = [
            a(1), a(2), b(1), VertexId.hole(-1), VertexId.hole(0), VertexId.hole(7),
            VertexId.cone(), VertexId.raw(0), VertexId.raw(2), VertexId.raw(10),
        ]
        shuffled = expected[:]
        random.Random(9).shuffle(shuffled)
        assert sorted(shuffled) == expected
        assert all(u < w and not w < u for u, w in zip(expected, expected[1:]))

    def test_a_vertex_is_the_tuple_of_its_rank_and_data(self):
        assert (a(2), VertexId.hole(-3), VertexId.cone(), VertexId.raw(5)) == (
            (0, 1, 2), (1, -3), (2,), (3, 5),
        )
        assert hash(b(7)) == hash((0, 2, 7))
        # hash, equality and order are the tuple's own, made in C
        assert not {"__eq__", "__hash__", "__lt__", "key", "order_key"} & set(vars(VertexId))

    def test_a_vertex_is_immutable(self):
        v = a(1)
        for name in ("kind", "data", "label", "sort_key", "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        assert (v.kind, v.data, v.label, v.sort_key) == ("a", (1, 1), "a:1:1", (0, (1, 1)))

    def test_copy_and_pickle_give_the_shared_vertex(self):
        for v in (a(1), VertexId.hole(-3), VertexId.cone(), VertexId.raw(0), VertexId("a", (2, 5))):
            shared = VertexId.from_label(v.label)
            assert copy.copy(v) is shared and copy.deepcopy(v) is shared
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(v, protocol)) is shared
        assert pickle.loads(pickle.dumps([a(1), a(1)])) == [a(1), a(1)]

    @pytest.mark.parametrize("label", [7, None, ["a:1:1"]], ids=["int", "null", "list"])
    def test_a_label_that_is_not_a_string_is_rejected(self, label):
        with pytest.raises(DegenerateInput, match="bad vertex label"):
            VertexId.from_label(label)


class TestSimplex:
    def test_sorted_and_unique(self):
        s = Simplex([b(1), a(2), a(1)])
        assert [v.label for v in s] == ["a:1:1", "a:1:2", "a:2:1"]

    def test_duplicate_rejected(self):
        with pytest.raises(DegenerateInput):
            Simplex([a(1), a(1)])

    def test_faces_match_simplices_built_from_shuffled_input(self):
        rng = random.Random(2014)
        pool = [a(i) for i in range(1, 6)] + [b(j) for j in range(1, 4)]
        pool += [VertexId.hole(1), VertexId.cone(), VertexId.raw(0), VertexId.raw(5)]
        built, faces = [], []
        for _ in range(30):
            s = Simplex(rng.sample(pool, rng.randint(1, 7)))
            for f in simplex_facets(s):
                vs = list(f)
                rng.shuffle(vs)
                g = Simplex(vs)
                assert f == g and g == f and hash(f) == hash(g)
                assert tuple(f) == tuple(g) and frozenset(f) == frozenset(g)
                faces.append(f)
                built.append(g)
        assert sorted(faces) == sorted(built)
        order = sorted(range(len(faces)), key=lambda i: tuple(built[i]))
        assert [faces[i] for i in order] == sorted(faces)

    def test_pickle_and_deepcopy_keep_a_simplex(self):
        s = Simplex([VertexId.raw(3), a(2), VertexId.hole(-1), VertexId.cone()])
        for t in [pickle.loads(pickle.dumps(s, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert t == s and hash(t) == hash(s) and type(t) is Simplex
            assert all(u is w for u, w in zip(t, s))
        assert copy.deepcopy(s) == s and type(copy.deepcopy(s)) is Simplex


class TestJoin:
    def test_two_edges_make_tetrahedron(self):
        x = SimplicialComplex.from_facets([Simplex([a(1), a(2)])])
        y = SimplicialComplex.from_facets([Simplex([b(1), b(2)])])
        j = join(x, y)
        assert j.dim == 3
        assert j.facets == frozenset({Simplex([a(1), a(2), b(1), b(2)])})

    def test_join_of_paths_three_by_three(self):
        j = paths_join(3, 3)
        expected = {
            Simplex([a(i), a(i + 1), b(k), b(k + 1)])
            for i in (1, 2)
            for k in (1, 2)
        }
        assert j.facets == expected

    def test_identity(self):
        x = paths_join(3, 3)
        assert join(x, empty_complex()).facets == x.facets
        assert join(empty_complex(), x).facets == x.facets

    def test_overlap_rejected(self):
        x = path_complex(a, 3)
        labels = sorted(v.label for v in x.vertex_set)
        with pytest.raises(DegenerateInput, match=f"^{re.escape(f'joined complexes share vertices {labels}')}$"):
            join(x, x)

    def test_associative_commutative(self):
        x = path_complex(a, 3)
        y = path_complex(b, 2)
        z = SimplicialComplex.from_facets([Simplex([VertexId.raw(9)])])
        assert join(join(x, y), z).facets == join(x, join(y, z)).facets
        assert join(x, y).facets == join(y, x).facets


class TestLinkStar:
    def test_vertex_link_in_tetrahedron(self):
        t = SimplicialComplex.from_facets([Simplex([a(1), a(2), b(1), b(2)])])
        lk = link(t, Simplex([a(1)]))
        assert lk.facets == frozenset({Simplex([a(2), b(1), b(2)])})

    def test_edge_link_is_path(self):
        # oracle: enumerate cofaces of the edge directly from the facet list
        j = paths_join(3, 3)
        e = Simplex([a(1), a(2)])
        cofaces = [f for f in j.facets if frozenset(e) <= frozenset(f)]
        expected = {Simplex(frozenset(f) - frozenset(e)) for f in cofaces}
        assert link(j, e).facets == expected
        assert expected == {Simplex([b(1), b(2)]), Simplex([b(2), b(3)])}

    def test_link_of_empty_face_is_whole_complex(self):
        j = paths_join(3, 4)
        assert link(j, EMPTY_SIMPLEX).facets == j.facets

    def test_link_missing_face(self):
        j = paths_join(3, 3)
        face = Simplex([a(1), a(3)])
        with pytest.raises(DegenerateInput, match=f"^{re.escape(repr(face))} is not a face$"):
            link(j, face)

    def test_star_equals_join_of_face_and_link(self):
        j = paths_join(4, 4)
        for f in [Simplex([a(2)]), Simplex([a(2), b(2)]), Simplex([a(1), a(2), b(1)])]:
            fc = SimplicialComplex.from_facets([f])
            assert star(j, f).facets == join(fc, link(j, f)).facets


class TestBoundary:
    def test_single_tetrahedron(self):
        t = SimplicialComplex.from_facets([raw_simplex(1, 2, 3, 4)])
        bd = boundary_complex(t)
        assert bd.n_facets == 4 and bd.dim == 2

    def test_join_of_paths_boundary_count(self):
        # oracle: count triangles lying in exactly one tetrahedron;
        # a 2x2 grid of cubes has 2(n-1)+2(m-1) = 8 boundary triangles
        j = paths_join(3, 3)
        counts = {}
        for f in j.facets:
            for t in combinations(sorted(f), 3):
                counts[t] = counts.get(t, 0) + 1
        expected = sum(1 for c in counts.values() if c == 1)
        bd = boundary_complex(j)
        assert bd.n_facets == expected == 8

    def test_join_of_paths_boundary_counts_scale(self):
        for n, m in ((3, 4), (4, 4), (5, 5)):
            bd = boundary_complex(paths_join(n, m))
            assert bd.n_facets == 2 * (n - 1) + 2 * (m - 1)

    def test_closed_complex_has_void_boundary(self):
        closed = boundary_complex(SimplicialComplex.from_facets([raw_simplex(1, 2, 3, 4)]))
        assert boundary_complex(closed).is_void

    def test_overused_ridge_rejected(self):
        tris = [raw_simplex(1, 2, 3, k) for k in (4, 5, 6)]
        with pytest.raises(DegenerateInput, match=f"^face {re.escape(repr(raw_simplex(1, 2, 3)))} lies in 3 facets$"):
            boundary_complex(SimplicialComplex.from_facets(tris))

    @pytest.mark.parametrize("low, high", [(3, 3), (4, 3), (3, 5)])
    def test_the_least_overused_ridge_is_named_with_its_facet_count(self, low, high):
        # two fans of triangles on the edges {r:0,r:1} and {r:5,r:6}
        fans = [raw_simplex(0, 1, k) for k in (2, 3, 4, 10, 11)[:low]]
        fans += [raw_simplex(5, 6, k) for k in (7, 8, 9, 12, 13)[:high]]
        with pytest.raises(DegenerateInput, match=rf"^face \{{r:0,r:1\}} lies in {low} facets$"):
            boundary_complex(SimplicialComplex.from_facets(fans))

    def test_the_empty_facet_complex_has_a_void_boundary(self):
        assert boundary_complex(empty_complex()).is_void

    def test_a_point_has_the_empty_facet_as_its_boundary(self):
        bd = boundary_complex(SimplicialComplex.from_facets([raw_simplex(0)]))
        assert bd.facets == frozenset({EMPTY_SIMPLEX}) and bd.dim == -1

    def test_three_points_put_the_empty_face_in_three_facets(self):
        points = SimplicialComplex.from_facets([raw_simplex(k) for k in range(3)])
        with pytest.raises(DegenerateInput, match=r"^face \{\} lies in 3 facets$"):
            boundary_complex(points)


class TestCone:
    def test_cone_over_triangle_boundary(self):
        bd = boundary_complex(SimplicialComplex.from_facets([raw_simplex(1, 2, 3)]))
        c = cone(bd, VertexId.cone())
        assert c.n_facets == 3 and c.dim == 2

    def test_cone_over_join_identity(self):
        c = cone(empty_complex(), VertexId.cone())
        assert c.facets == frozenset({Simplex([VertexId.cone()])})

    def test_cone_over_grid_boundary(self):
        bd = boundary_complex(paths_join(5, 5))
        assert bd.n_facets == 16
        c = cone(bd, VertexId.cone())
        assert c.n_facets == 16 and c.dim == 3

    def test_apex_collision(self):
        x = path_complex(a, 3)
        with pytest.raises(DegenerateInput, match=f"^apex {a(2).label} already a vertex$"):
            cone(x, a(2))


class TestFreeSumCell:
    def test_bipyramid_f_vector(self):
        cell = FreeSumCell(raw_simplex(1, 2), raw_simplex(3, 4, 5))
        fv = f_vector(PolyComplex.from_cells([], [cell]))
        assert fv.counts == (5, 9, 6, 1)
        assert fv.euler_characteristic == 1

    def test_boundary_matches_join_of_simplex_boundaries(self):
        for nf in (2, 3, 4):
            for ng in (2, 3, 4):
                f = Simplex(VertexId.raw(i) for i in range(nf))
                g = Simplex(VertexId.raw(100 + i) for i in range(ng))
                cell = FreeSumCell(f, g)
                bf = boundary_complex(SimplicialComplex.from_facets([f]))
                bg = boundary_complex(SimplicialComplex.from_facets([g]))
                expected = join(bf, bg).facets
                assert frozenset(boundary_facets(cell)) == expected

    @pytest.mark.parametrize("simplices, free, message", [
        ([], [], "a polyhedral complex needs at least one cell"),
        ([raw_simplex(1, 2, 3)], [FreeSumCell(raw_simplex(4, 5), raw_simplex(6, 7, 8))],
         "cells of mixed dimensions [2, 3]"),
    ], ids=["no-cell", "mixed"])
    def test_a_polyhedral_complex_refuses_no_cell_or_mixed_dimensions(self, simplices, free, message):
        with pytest.raises(DegenerateInput, match=f"^{re.escape(message)}$"):
            PolyComplex.from_cells(simplices, free)

    def test_part_size_validation(self):
        with pytest.raises(DegenerateInput, match="^each free sum part needs at least 2 vertices$"):
            FreeSumCell(raw_simplex(1), raw_simplex(2, 3))
        with pytest.raises(DegenerateInput, match="^free sum parts must be disjoint$"):
            FreeSumCell(raw_simplex(1, 2), raw_simplex(2, 3))


def test_simplices_and_free_cells_are_plain_tuples():
    """Hashing, equality and ``<`` of both cell types are the tuple's
    own, and copy and pickle rebuild a free cell through its checks."""
    s = raw_simplex(2, 0, 1)
    cell = FreeSumCell(raw_simplex(1, 2), raw_simplex(3, 4, 5))
    for kind, x in ((Simplex, s), (FreeSumCell, cell)):
        assert issubclass(kind, tuple) and kind.__slots__ == ()
        assert not hasattr(x, "__dict__")
        assert not {"__eq__", "__hash__", "__lt__"} & set(vars(kind))
        assert x == tuple(x) and hash(x) == hash(tuple(x))
    assert cell == (cell.f_part, cell.g_part)
    copies = [pickle.loads(pickle.dumps(cell, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for t in copies + [copy.deepcopy(cell)]:
        assert t == cell and hash(t) == hash(cell) and type(t) is FreeSumCell
        assert type(t.f_part) is Simplex and type(t.g_part) is Simplex


class TestFVector:
    def test_tetrahedron(self):
        fv = f_vector(SimplicialComplex.from_facets([raw_simplex(1, 2, 3, 4)]))
        assert fv.counts == (4, 6, 4, 1)


def brute_force_gale(idxs, n):
    """The literal definition: every pair of non-members has an even number
    of members strictly between them."""
    inside = set(idxs)
    outside = [v for v in range(1, n + 1) if v not in inside]
    for x in outside:
        for y in outside:
            if x < y:
                if sum(1 for z in inside if x < z < y) % 2 == 1:
                    return False
    return True


class TestCyclicPolytope:
    def test_facet_example(self):
        c = cyclic_polytope_facets(6, 4)
        assert raw_simplex(1, 2, 3, 4) in c.facets

    def test_against_brute_force(self):
        for n in range(5, 10):
            facets = cyclic_polytope_facets(n, 4).facets
            expected = {
                raw_simplex(*idxs)
                for idxs in combinations(range(1, n + 1), 4)
                if brute_force_gale(idxs, n)
            }
            assert facets == expected

    def test_counts_match_closed_form(self):
        # simplicial 4-polytope upper bound world: f3(C(n,4)) = n(n-3)/2
        for n in range(5, 13):
            assert cyclic_polytope_facets(n, 4).n_facets == n * (n - 3) // 2

    def test_simplex_case(self):
        assert cyclic_polytope_facets(5, 4).n_facets == 5

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            cyclic_polytope_facets(4, 4)
        with pytest.raises(DegenerateInput):
            cyclic_polytope_facets(6, 1)


def test_only_vertexid_reads_sort_key():
    """The canonical order is defined once, by ``VertexId.sort_key``; every
    other module sorts vertices, simplices and cells by ``<``."""
    readers = []
    for path in sorted(Path(sphereforge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "VertexId"
            for node in ast.walk(cls)
        }
        readers += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "sort_key"
            and id(node) not in allowed
        ]
    assert readers == []


# Few labels of each kind, so that random simplices share prefixes and
# the order of kinds decides many comparisons.
VERTICES = st.one_of(
    st.builds(VertexId.path, st.integers(1, 3), st.integers(1, 3)),
    st.builds(VertexId.hole, st.integers(0, 3)),
    st.just(VertexId.cone()),
    st.builds(VertexId.raw, st.integers(0, 3)),
)
SIMPLICES = st.sets(VERTICES, max_size=5).map(Simplex)


@st.composite
def free_cells(draw):
    verts = draw(st.lists(VERTICES, min_size=4, max_size=7, unique=True))
    cut = draw(st.integers(2, len(verts) - 2))
    return FreeSumCell(Simplex(verts[:cut]), Simplex(verts[cut:]))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    vertices=st.lists(VERTICES, max_size=12),
    simplices=st.lists(SIMPLICES, max_size=12),
    cells=st.lists(free_cells(), max_size=8),
)
def test_the_sort_keys_give_the_order_of_lt(vertices, simplices, cells):
    """The plain ``sorted`` of vertices, of simplices and of free cells
    gives the order of ``VertexId.sort_key``, which is also the order of
    ``<``."""

    def simplex_ref(s):
        return tuple(v.sort_key for v in s)

    for items, ref in (
        (vertices, lambda v: v.sort_key),
        (simplices, simplex_ref),
        (cells, lambda c: (simplex_ref(c.f_part), simplex_ref(c.g_part))),
    ):
        assert sorted(items) == sorted(items, key=ref)
        for x, y in combinations(items, 2):
            assert (ref(x) < ref(y)) == (x < y), (x, y)
            assert (ref(x) == ref(y)) == (x == y), (x, y)
    for s in simplices:
        assert all(u < w for u, w in zip(s, s[1:])), s
