"""JSON (and OFF) serialization for every artifact the tools exchange.

All output is sorted and deterministic: identical inputs produce
byte-identical files.  Rationals serialize as "p/q" strings; vertex
labels as "a:<path>:<pos>", "h:<key>", "c", "r:<int>".
"""

from __future__ import annotations

import functools
import json
import re
from collections import Counter
from fractions import Fraction
from operator import attrgetter
from typing import Any, Sequence

from .carvefill import FillManifest, key_label
from .complexes import (
    FreeSumCell,
    PolyComplex,
    Simplex,
    SimplicialComplex,
    VertexId,
)
from .constructions import ConstructionReport
from .errors import InputParseError, SphereforgeError
from .geometry import HullFacet, LiftedConfiguration, Point, RegularAztecLift, Subdivision
from .topology import TopologyCertificate


def _labels(verts) -> list[str]:
    """The labels of vertices already in order, such as a ``Simplex``."""
    return [v.label for v in verts]


def _sorted_labels(verts) -> list[str]:
    return [v.label for v in sorted(verts)]


def _parse_verts(labels) -> list[VertexId]:
    return [VertexId.from_label(s) for s in labels]


def _decoder(file: str):
    """The failure policy of every ``*_from_obj``: whatever decoding
    raises, from a missing key to a rule of a type it builds, becomes
    ``InputParseError("malformed <file>: <reason>")``.  A decoder that
    reads a part in another's format calls that one's ``__wrapped__``, so
    the message names the file that was read."""

    def wrap(decode):
        @functools.wraps(decode)
        def checked(obj):
            try:
                return decode(obj)
            except (LookupError, TypeError, ValueError, AttributeError, SphereforgeError) as exc:
                reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise InputParseError(f"malformed {file}: {reason}") from exc

        return checked

    return wrap


_string = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` spells it: bool, None, int and float
    keys become the text of the value."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(obj: Any, newline: str) -> str:
    """``obj`` as the standard library's JSON encoder writes it with an
    indent of 1 and sorted keys, at the depth whose line break and indent
    is ``newline``.  Strings and lists of strings go through its C string
    encoder, and every other scalar through ``json.dumps``, so the bytes
    are its own; with an indent, ``json.dumps`` itself would fall back to
    its pure-Python encoder.  A complex and a free-sum cell are written
    by ``_complex_text`` and ``_free_cells_text``, straight from their
    sorted vertices, with no object per cell."""
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, FreeSumCell):
        # before the tuple branch: a cell is a pair of simplices
        return _free_cells_text([obj], newline, "")[0]
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + " "
        sep = "," + inner
        try:
            body = sep.join(map(_string, obj))
        except TypeError:
            body = sep.join([_encode(v, inner) for v in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + " "
        items = sorted(obj.items())
        body = ("," + inner).join(
            [_string(_json_key(k)) + ": " + _encode(v, inner) for k, v in items]
        )
        return "{" + inner + body + newline + "}"
    if isinstance(obj, (SimplicialComplex, PolyComplex)):
        return _complex_text(obj, newline)
    return json.dumps(obj)


_label = attrgetter("label")


def _free_cells_text(cells, newline: str, tail: str) -> list[str]:
    """Each cell as its ``"f"`` and ``"g"`` label lists at the depth of
    ``newline``, then the text ``tail``."""
    inner = newline + " "
    sep = "," + inner + " "
    f_head = "{" + inner + '"f": [' + inner + " "
    g_head = inner + "]," + inner + '"g": [' + inner + " "
    end = inner + "]" + tail + newline + "}"
    return [
        f_head + sep.join(map(_string, map(_label, f)))
        + g_head + sep.join(map(_string, map(_label, g))) + end
        for f, g in cells
    ]


def _complex_text(x: "SimplicialComplex | PolyComplex", newline: str) -> str:
    """The complex file: ``"dim"`` and the ``"cells"``, sorted simplices
    ``{"t": "s", "v"}`` and then free-sum cells ``{"t": "fs", "f", "g"}``
    of vertex labels, written from the sorted cells with no object each."""
    if isinstance(x, SimplicialComplex):
        simplices, free = x.sorted_facets, ()
    else:
        simplices, free = x.sorted_simplex_cells, x.sorted_free_cells
    if x.dim < 0:
        # the void and the empty-facet complex, which have no vertex
        return _encode({"cells": [{"t": "s", "v": []}] * len(simplices), "dim": -1}, newline)
    inner = newline + " "
    at_cell = inner + " "
    in_cell = at_cell + " "
    in_list = in_cell + " "
    head = "{" + in_cell + '"t": "s",' + in_cell + '"v": [' + in_list
    sep = "," + in_list
    end = in_cell + "]" + at_cell + "}"
    cells = [head + sep.join(map(_string, map(_label, f))) + end for f in simplices]
    cells += _free_cells_text(free, at_cell, "," + in_cell + '"t": "fs"')
    body = ("," + at_cell).join(cells)
    # one f-string copies the long body once, where a chain of + would
    # copy it at every step
    return f'{{{inner}"cells": [{at_cell}{body}{inner}],{inner}"dim": {x.dim}{newline}}}'


def dumps(obj: Any) -> str:
    """The artifact text of ``obj``: its JSON with an indent of 1 and
    sorted keys, as the standard library writes it, and a final newline.
    A ``SimplicialComplex`` or ``PolyComplex`` in ``obj`` is written in
    the complex format of ``_complex_text``, and a ``FreeSumCell`` as its
    ``"f"`` and ``"g"`` label lists."""
    return _encode(obj, "\n") + "\n"


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputParseError(f"cannot read JSON from {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write ``text.encode()`` to ``path``, with no newline translation."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputParseError(f"cannot write {path}: {exc}") from exc


# --------------------------------------------------------------------------
# complexes


def _free_cell(obj: dict) -> FreeSumCell:
    return FreeSumCell(Simplex(_parse_verts(obj["f"])), Simplex(_parse_verts(obj["g"])))


def _check_dim(obj: dict, dim: int) -> None:
    if type(obj["dim"]) is not int or obj["dim"] != dim:
        raise ValueError(f"dim {obj['dim']!r} but the cells have dimension {dim}")


@_decoder("complex")
def complex_from_obj(obj: dict) -> "SimplicialComplex | PolyComplex":
    """A complex file, refusing a cell listed twice, which a set would
    merge, and a ``"dim"`` that is not the dimension of the cells."""
    simplices, free = [], []
    for c in obj["cells"]:
        if c["t"] == "s":
            simplices.append(Simplex(_parse_verts(c["v"])))
        elif c["t"] == "fs":
            free.append(_free_cell(c))
        else:
            raise ValueError(f"unknown cell type {c['t']!r}")
    for cells in (simplices, free):
        twice = next((c for c, n in Counter(cells).items() if n > 1), None)
        if twice is not None:
            raise ValueError(f"cell {twice!r} appears twice")
    x = PolyComplex.from_cells(simplices, free) if free else SimplicialComplex.from_facets(simplices)
    _check_dim(obj, x.dim)
    return x


def save_complex(path: str, x) -> None:
    write_text(path, dumps(x))


def load_complex(path: str) -> "SimplicialComplex | PolyComplex":
    return complex_from_obj(_load_json(path))


def load_simplicial(path: str) -> SimplicialComplex:
    x = load_complex(path)
    if not isinstance(x, SimplicialComplex):
        raise InputParseError(
            f"{path} holds free-sum cells; realize it into a triangulation first"
        )
    return x


# --------------------------------------------------------------------------
# manifests


def _key_parse(text: str):
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return int(text)


@_decoder("holes file")
def holes_from_obj(obj: dict) -> list[tuple[Any, list[Simplex], list[Simplex]]]:
    """Decode a ``fill --holes`` file: one ``(key, ball facets, family
    members)`` triple per hole, in file order.  The keys are sorted, so
    all are integers, such as "3", or all are tuples, such as "1,2"."""
    holes = [
        (
            _key_parse(str(hole["key"])),
            [Simplex(_parse_verts(v)) for v in hole["facets"]],
            [Simplex(_parse_verts(v)) for v in hole.get("members", [])],
        )
        for hole in obj["holes"]
    ]
    if len({type(key) for key, _, _ in holes}) > 1:
        raise ValueError("hole keys mix integers and tuples")
    return holes


def load_holes(path: str) -> list[tuple[Any, list[Simplex], list[Simplex]]]:
    return holes_from_obj(_load_json(path))


@_decoder("manifest")
def manifest_from_obj(obj: dict) -> FillManifest:
    result = complex_from_obj.__wrapped__(obj["complex"])
    _check_dim(obj, result.dim)
    if isinstance(result, SimplicialComplex):
        result = PolyComplex.from_simplicial(result)
    keys, by_ball, apex_of = [], {}, {}
    for hole in obj["holes"]:
        key = _key_parse(hole["key"])
        keys.append(key)
        apex_of[key] = VertexId.from_label(hole["apex"])
        by_ball[key] = tuple(_free_cell(c) for c in hole["cells"])
    return FillManifest(
        result=result,
        hole_keys=tuple(keys),
        free_cells_by_ball=by_ball,
        apex_of_ball=apex_of,
    )


def save_manifest(path: str, m: FillManifest) -> None:
    """Write the dimension, the complex and each hole's key, apex and free
    cells, which ``dumps`` encodes straight from the objects."""
    holes = [
        {"key": key_label(key), "apex": m.apex_of_ball[key].label, "cells": m.free_cells_by_ball[key]}
        for key in m.hole_keys
    ]
    write_text(path, dumps({"dim": m.result.dim, "complex": m.result, "holes": holes}))


def load_manifest(path: str) -> FillManifest:
    return manifest_from_obj(_load_json(path))


# --------------------------------------------------------------------------
# reports and certificates


def report_to_obj(r: ConstructionReport) -> dict:
    return {
        "construction": r.name,
        "vertex_count": r.vertex_count,
        "free_cell_count": r.free_cell_count,
        "simplex_cell_count": r.simplex_cell_count,
        "per_hole_counts": {key_label(k): v for k, v in r.per_hole_counts.items()},
        "claimed_bounds": dict(r.claimed_bounds),
        "flags": _jsonable(r.flags),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key_label(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def certificate_to_obj(c: TopologyCertificate) -> dict:
    return {
        "kind": c.kind,
        "dim": c.dim,
        "betti_gf2": list(c.betti),
        "pseudomanifold": c.pseudomanifold,
        "closed": c.closed,
        "dual_connected": c.dual_connected,
        "links_verified": c.links_verified,
    }


# --------------------------------------------------------------------------
# shelling orders


def order_to_obj(order: Sequence[Simplex]) -> dict:
    return {"order": [_labels(f) for f in order]}


@_decoder("shelling order")
def order_from_obj(obj: dict) -> tuple[Simplex, ...]:
    return tuple(Simplex(_parse_verts(v)) for v in obj["order"])


def load_order(path: str) -> tuple[Simplex, ...]:
    return order_from_obj(_load_json(path))


# --------------------------------------------------------------------------
# lifts


def _frac_str(f: Fraction) -> str:
    return str(Fraction(f))


def _frac_parse(s: str) -> Fraction:
    """A rational from its "p/q" string, such as "-3" or "7/2".  JSON
    numbers are refused, so no float reaches the exact kernels, and so
    are decimals and exponents, which Fraction would expand to any size."""
    if isinstance(s, str) and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", s):
        return Fraction(s)
    raise ValueError(f"bad rational {s!r}")


def _points_to_obj(points) -> list:
    return [[v.label, [_frac_str(c) for c in p]] for v, p in points]


def _points_from_obj(obj) -> list[tuple[VertexId, Point]]:
    return [
        (VertexId.from_label(label), tuple(_frac_parse(c) for c in coords))
        for label, coords in obj
    ]


def _heights_to_obj(heights) -> dict:
    return {v.label: _frac_str(h) for v, h in heights.items()}


def _heights_from_obj(obj) -> dict[VertexId, Fraction]:
    return {VertexId.from_label(k): _frac_parse(v) for k, v in obj.items()}


def lift_to_obj(lift: RegularAztecLift) -> dict:
    return {
        "kind": "aztec",
        "k": lift.k,
        "l": lift.l,
        "eps": _frac_str(lift.eps),
        "points": _points_to_obj(lift.config.points),
        "heights": _heights_to_obj(lift.heights),
        "coarse": _heights_to_obj(lift.coarse),
        "fine": _heights_to_obj(lift.fine),
        "subdivision": [_sorted_labels(cell) for cell in lift.subdivision.cells],
    }


def save_lift(path: str, lift: RegularAztecLift) -> None:
    write_text(path, dumps(lift_to_obj(lift)))


def _cells_from_obj(obj) -> list[frozenset[VertexId]]:
    """Subdivision cells as vertex sets, refusing a cell that lists a
    label twice, which a set would merge."""
    cells = []
    for labels in obj:
        verts = _parse_verts(labels)
        cell = frozenset(verts)
        if len(cell) != len(verts):
            twice = next(v for i, v in enumerate(verts) if v in verts[:i])
            raise ValueError(f"a cell lists {twice.label} twice")
        cells.append(cell)
    return cells


@_decoder("lift file")
def lift_data_from_obj(obj: dict) -> dict:
    """Decode the parts of a lift file needed by the verifier and hull."""
    config = LiftedConfiguration(
        _points_from_obj(obj["points"]), _heights_from_obj(obj["heights"])
    )
    return {
        "config": config,
        "subdivision": Subdivision.of(_cells_from_obj(obj["subdivision"])).check_points(config),
        "eps": _frac_parse(obj["eps"]),
        "kind": obj.get("kind"),
        "k": obj.get("k"),
        "l": obj.get("l"),
    }


def load_lift_data(path: str) -> dict:
    return lift_data_from_obj(_load_json(path))


def degree3_to_obj(delta: Fraction, degree3: int, guaranteed: int, heights) -> dict:
    """The ``degree3 -o`` record: the certified raise, the counts and the
    raised heights."""
    return {
        "delta": str(delta),
        "degree3_edges": degree3,
        "guaranteed": guaranteed,
        "heights": _heights_to_obj(heights),
    }


def hull_to_obj(facets: list[HullFacet], kinds: list[str]) -> dict:
    return {
        "facets": [
            {
                "v": _sorted_labels(f.vertices),
                "normal": [str(c) for c in f.normal],
                "offset": str(f.offset),
                "kind": kind,
            }
            for f, kind in zip(facets, kinds)
        ]
    }


# --------------------------------------------------------------------------
# OFF export


def off_export(
    x: SimplicialComplex, coords: dict[VertexId, Point]
) -> tuple[str, dict]:
    """A 2-complex, or the boundary surface of a 3-complex, as an OFF
    mesh.

    Vertex coordinates are decimal approximations (lossy); the returned
    sidecar object records the exact rationals.
    """
    from .complexes import boundary_complex

    if x.dim not in (2, 3):
        raise InputParseError(
            f"export off needs a 2- or 3-dimensional complex, got dimension {x.dim}"
        )
    surface = x if x.dim == 2 else boundary_complex(x)
    if surface.is_void:
        raise InputParseError("complex is closed; no boundary surface to export")
    verts = surface.vertices
    missing = [v for v in verts if v not in coords]
    if missing:
        raise InputParseError(f"no coordinates for vertex {missing[0].label}")
    index = {v: i for i, v in enumerate(verts)}
    lines = ["OFF", f"{len(verts)} {surface.n_facets} 0"]
    for v in verts:
        lines.append(" ".join(f"{float(c):.12g}" for c in coords[v][:3]))
    for f in surface.sorted_facets:
        lines.append("3 " + " ".join(str(index[v]) for v in f))
    sidecar = {
        "lossy": True,
        "vertices": [
            [v.label, [_frac_str(c) for c in coords[v][:3]]] for v in verts
        ],
        "faces": [_labels(f) for f in surface.sorted_facets],
    }
    return "\n".join(lines) + "\n", sidecar
