"""Mutation fuzz of the file loaders through ``cli.main``.

Valid lift, manifest, complex, holes and shelling-order files are
edited at random: a value
replaced, an entry dropped or a list entry listed twice.  Whatever the
edits, no exception may escape, the exit code must be 0, 1 or 2, and an
exit 1 must come with an ``input error: `` or ``error: `` message.  A
lift file emptied of its points is refused as malformed by every command
that reads it.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereforge import GridBox, diagonal_band, join_of_paths
from sphereforge import io as sfio
from sphereforge.cli import main

from oracles import region_complex, shelling_order_band

# file -> the commands that read it ({f} is the mutated file, {d} the
# directory holding the valid files)
COMMANDS = {
    "lift.json": (
        ("verify", "regular", "{f}"),
        ("hull", "--input", "{f}"),
        ("degree3", "--input", "{f}"),
        ("export", "off", "--input", "{d}/a.realized.json", "--lift", "{f}", "-o", "{d}/out.off"),
    ),
    "h.manifest.json": (
        ("count", "--manifest", "{f}"),
        ("realize", "--manifest", "{f}", "-o", "{d}/out.json"),
    ),
    "a.realized.json": (
        ("verify", "sphere", "{f}"),
        ("export", "off", "--input", "{f}", "--lift", "{d}/lift.json", "-o", "{d}/out.off"),
    ),
    "holes.json": (("fill", "--input", "{d}/host.json", "--holes", "{f}", "-o", "{d}/out.json"),),
    "order.json": (("verify", "shelling", "{d}/band.json", "{f}"),),
}

# a number beyond the float range, which the lossy OFF export cannot write
HUGE = "1" + "0" * 400
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.sampled_from([0.25, 1.0, -0.5]),
    st.sampled_from(
        ["", "x", "0", "1/2", "-3", "1/0", "a:1:1", "a:9:9", "h:1", "c", "r:-1", "1,2", "s", "fs",
         HUGE]
    ),
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["t", "v", "f", "g", "key", "apex", "cells"]), kids, max_size=2),
    max_leaves=4,
)
# (path, operation, value): each step of the path picks an entry of the
# current list or dict (keys in sorted order) modulo its length
EDITS = st.lists(
    st.tuples(
        st.lists(st.integers(0, 63), max_size=4), st.sampled_from(["set", "drop", "twice"]), VALUES
    ),
    min_size=1,
    max_size=3,
)

# the edits that empty the points of a lift file and the three height
# tables that would have to match them: points, heights, coarse and fine
EMPTIED = [([7], "set", []), ([3], "set", {}), ([0], "set", {}), ([2], "set", {})]


def mutate(obj, edits):
    root = [copy.deepcopy(obj)]
    for path, op, value in edits:
        parent, key = root, 0
        for step in path:
            node = parent[key]
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, keys[step % len(node)]
        if op == "drop" and parent is not root:
            del parent[key]
        elif op == "twice" and isinstance(parent, list) and parent is not root:
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = value
    return root[0]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["lift", "aztec", "--k", "3", "--l", "1", "-o", str(d / "lift.json")]) == 0
        assert main(["generate", "holes4", "--n", "5", "-o", str(d / "h.json")]) == 0
        assert main(["generate", "aztec", "--k", "3", "--l", "1", "-o", str(d / "a.json")]) == 0
    sfio.save_complex(str(d / "host.json"), join_of_paths((4, 4)).complex)
    block = [[f"a:1:{i}", f"a:1:{i+1}", f"a:2:{j}", f"a:2:{j+1}"] for i in (1, 2) for j in (1, 2)]
    (d / "holes.json").write_text(json.dumps({"holes": [{"key": 1, "facets": block, "members": [block[0]]}]}))
    band = diagonal_band(GridBox((4, 4)), 3, 6)
    sfio.save_complex(str(d / "band.json"), region_complex(band))
    sfio.write_text(str(d / "order.json"), sfio.dumps(sfio.order_to_obj(shelling_order_band(band))))
    return d, {name: json.loads((d / name).read_text()) for name in COMMANDS}


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(COMMANDS)), edits=EDITS)
# hole 1 of holes4(5) listed twice, and one of its five cells dropped
@example(name="h.manifest.json", edits=[([2, 1], "twice", None)])
@example(name="h.manifest.json", edits=[([2, 1, 1, 0], "drop", None)])
# a hole apex that is not a string
@example(name="h.manifest.json", edits=[([2, 1, 0], "set", 7)])
# JSON numbers for eps, for the coordinates of a:1:1 and for its height
@example(name="lift.json", edits=[([1], "set", 0.25)])
@example(name="lift.json", edits=[([7, 0, 1], "set", [1.0, 0.0, 1.0])])
@example(name="lift.json", edits=[([3, 0], "set", 2.0)])
# a:1:1's first coordinate beyond the float range
@example(name="lift.json", edits=[([7, 0, 1, 0], "set", HUGE)])
# a:1:2 moved onto the point of a:1:1
@example(name="lift.json", edits=[([7, 1, 1], "set", ["1", "0", "1"])])
# points, heights, coarse and fine all emptied
@example(name="lift.json", edits=EMPTIED)
def test_a_mutated_file_never_escapes_the_cli(valid, name, edits):
    d, objs = valid
    for argv, code, err in run_mutated(d, name, mutate(objs[name], edits)):
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.startswith(("input error: ", "error: ")), (argv, err)


def test_a_lift_file_emptied_of_points_is_malformed(valid):
    d, objs = valid
    for argv, code, err in run_mutated(d, "lift.json", mutate(objs["lift.json"], EMPTIED)):
        assert (code, err) == (1, "input error: malformed lift file: no points\n"), argv


def run_mutated(d, name, obj):
    """Run every command that reads the file ``name`` on ``obj`` in its
    place, and yield its argv, exit code and standard error."""
    path = d / "mutated.json"
    path.write_text(json.dumps(obj))
    for template in COMMANDS[name]:
        argv = [a.format(f=path, d=d) for a in template]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield argv, code, err.getvalue()
