"""Serialization round trips, CLI pipelines, determinism, exit codes."""

import ast
import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sphereforge
from sphereforge import (
    PolyComplex,
    diagonal_band,
    join_of_paths,
)
from sphereforge import io as sfio
from sphereforge import cli, geometry
from sphereforge.carvefill import realize
from sphereforge.cli import main
from sphereforge.complexes import Simplex, SimplicialComplex, VertexId
from sphereforge.constructions import BUILDERS, build_aztec, build_holes4
from sphereforge.geometry import (
    build_aztec_lift,
    count_degree3_edges,
    delta_search,
    detect_bipyramid_facets,
    hull_with_apex,
    raised_center_target,
)
from sphereforge.topology import certify
from sphereforge.errors import InputParseError
from sphereforge.sampling import choice_vector, format_hex_choices, parse_hex_choices

from oracles import (
    complex_to_obj,
    cyclic_polytope_facets,
    manifest_to_obj,
    region_complex,
    shelling_order_band,
)


class TestSampling:
    def test_deterministic(self):
        a = choice_vector(7, 3, 20)
        b = choice_vector(7, 3, 20)
        assert a == b
        assert choice_vector(8, 3, 20) != a or choice_vector(7, 4, 20) != a

    def test_frozen_vector(self):
        # pinned so any change to the generator is caught
        assert choice_vector(0, 0, 8) == (1, 1, 1, 1, 1, 1, 1, 0)
        assert choice_vector(1, 0, 8) == (0, 1, 1, 0, 1, 0, 0, 0)

    def test_hex_round_trip(self):
        bits = (1, 0, 1, 1, 0, 0, 0, 1)
        assert parse_hex_choices(format_hex_choices(bits), 8) == bits
        with pytest.raises(ValueError):
            parse_hex_choices("0x100", 8)


@functools.cache
def golden_report(kind):
    """The report of ``kind`` built with the parameters of its golden
    artifacts."""
    argv = next(a for a in GOLDEN_ARTIFACTS if a[0] == kind)
    return BUILDERS[kind](*(int(x) for x in argv[2::2]))


def written(x):
    """``x`` as ``io.dumps`` writes it, read back as JSON."""
    return json.loads(sfio.dumps(x))


def saved_manifest(m, tmp_path):
    """The manifest file ``io.save_manifest`` writes, read back as JSON."""
    path = tmp_path / "m.manifest.json"
    sfio.save_manifest(str(path), m)
    return json.loads(path.read_text())


# each round trip reads the plain-JSON reference and the file that ships
COMPLEX_ENCODERS = pytest.mark.parametrize("encode", [complex_to_obj, written], ids=["oracle", "dumps"])
MANIFEST_ENCODERS = pytest.mark.parametrize(
    "encode", [lambda m, _: manifest_to_obj(m), saved_manifest], ids=["oracle", "save_manifest"]
)


class TestComplexIO:
    @COMPLEX_ENCODERS
    @pytest.mark.parametrize("kind", ["cyclic-7-4", *BUILDERS])
    def test_simplicial_round_trip(self, encode, kind):
        # a builder's complex is its zero realization, as generate writes it
        if kind == "cyclic-7-4":
            x = cyclic_polytope_facets(7, 4)
        else:
            manifest = golden_report(kind).manifest
            x = realize(manifest, (0,) * manifest.n_free_cells)
        assert sfio.complex_from_obj(encode(x)) == x

    @COMPLEX_ENCODERS
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_poly_round_trip(self, encode, kind):
        x = golden_report(kind).manifest.result
        assert sfio.complex_from_obj(encode(x)) == x

    @MANIFEST_ENCODERS
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_manifest_round_trip(self, tmp_path, encode, kind):
        m = golden_report(kind).manifest
        assert sfio.manifest_from_obj(encode(m, tmp_path)) == m

    def test_malformed_rejected(self):
        with pytest.raises(InputParseError, match="unknown cell type 'weird'"):
            sfio.complex_from_obj({"cells": [{"t": "weird", "v": []}]})

    @pytest.mark.parametrize("eps", ["0.5", "1e3", " 1/2", "1/0", "1/-2", 1])
    def test_a_rational_that_is_not_a_p_q_string_is_refused(self, eps):
        obj = sfio.lift_to_obj(build_aztec_lift(3, 1))
        assert sfio.lift_data_from_obj(obj)["eps"] == Fraction(obj["eps"])
        with pytest.raises(InputParseError, match=f"^malformed lift file: bad rational {eps!r}$"):
            sfio.lift_data_from_obj(dict(obj, eps=eps))


def stdlib_dumps(obj) -> str:
    """The reference for ``io.dumps``: the standard library's indent-1,
    key-sorted encoding."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII and a lone surrogate
TEXT = st.text(
    st.sampled_from('az"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600 '), max_size=6
) | st.text(max_size=4)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2 ** 200), 2 ** 200),
    st.floats(),
    st.sampled_from([-0.0, 1e16, float("nan"), float("-inf"), 0.1, 5e-324]),
    TEXT,
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.lists(TEXT, max_size=4)
    | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=24,
)


class TestDumps:
    """``io.dumps`` writes the bytes of ``stdlib_dumps`` for every value."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(obj=JSON_VALUES)
    @example(obj={"": [], "a": {}, "b": [[], {}, [[]], [{}]], "c": ({"d": ()},)})
    @example(obj=["a", 1, "b", ["c"], None, True, -0.0])
    @example(obj=[1e16, float("nan"), float("inf"), 2 ** 100, -(2 ** 100), "\\\"\x00\u00e9"])
    def test_equals_the_standard_library(self, obj):
        assert sfio.dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize("obj", [
        {2: "a", 10: ["b"], -1: {}},
        {True: 1, False: [2], 3: 4},
        {1.5: 0, -0.0: 1, 1e16: 2, float("inf"): 3},
        {"x": {None: {0: []}}},
    ])
    def test_keys_that_are_not_strings_are_spelled_as_the_standard_library_spells_them(self, obj):
        assert sfio.dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize("obj", [
        {1: 0, "a": 1},
        {(1, 2): 0},
        [1, {2, 3}],
        {"a": Fraction(1, 2)},
    ])
    def test_what_the_standard_library_refuses_is_refused(self, obj):
        with pytest.raises(TypeError):
            stdlib_dumps(obj)
        with pytest.raises(TypeError):
            sfio.dumps(obj)

    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_every_generate_artifact(self, tmp_path, kind):
        report = golden_report(kind)
        manifest = report.manifest
        realized = realize(manifest, (0,) * manifest.n_free_cells)
        for obj in (
            complex_to_obj(manifest.result),
            manifest_to_obj(manifest),
            complex_to_obj(realized),
            sfio.report_to_obj(report),
            sfio.certificate_to_obj(certify(realized)),
        ):
            assert sfio.dumps(obj) == stdlib_dumps(obj)
        # the writers encode the cells straight from the complex
        sfio.save_manifest(str(tmp_path / "m.json"), manifest)
        assert (tmp_path / "m.json").read_text() == stdlib_dumps(manifest_to_obj(manifest))
        for x in (manifest.result, realized):
            sfio.save_complex(str(tmp_path / "x.json"), x)
            assert (tmp_path / "x.json").read_text() == stdlib_dumps(complex_to_obj(x))

    @pytest.mark.parametrize("x", [
        cyclic_polytope_facets(7, 4),
        build_holes4(5, 5).manifest.result,
        PolyComplex.from_simplicial(cyclic_polytope_facets(6, 2)),
        SimplicialComplex.from_facets([Simplex([VertexId.raw(3)]), Simplex([VertexId.cone()])]),
        SimplicialComplex.from_facets([Simplex(())]),
        SimplicialComplex.from_facets([]),
    ], ids=["simplicial", "free-cells", "from-simplicial", "0-dim", "empty-facet", "void"])
    def test_a_complex_is_written_as_its_object(self, x):
        assert sfio.dumps(x) == stdlib_dumps(complex_to_obj(x))
        nested = {"b": [x, "c"], "a": x}
        plain = {"b": [complex_to_obj(x), "c"], "a": complex_to_obj(x)}
        assert sfio.dumps(nested) == stdlib_dumps(plain)

    def test_every_geometry_artifact(self):
        lift = build_aztec_lift(3, 1)
        points = [(v, p + (lift.config.heights[v],)) for v, p in lift.config.points]
        facets, apex_point = hull_with_apex(points, VertexId.cone())
        _, kinds = detect_bipyramid_facets(facets, points + [(VertexId.cone(), apex_point)])
        lift51 = build_aztec_lift(5, 1)
        target = raised_center_target(lift51.manifest)
        delta, heights = delta_search(lift51, target)
        degree3 = count_degree3_edges(target)
        realized = realize(build_aztec(3, 1).manifest, (1, 0, 0, 1))
        _, sidecar = sfio.off_export(realized, dict(lift.config.points))
        for obj in (
            sfio.lift_to_obj(lift),
            sfio.hull_to_obj(facets, kinds),
            sfio.degree3_to_obj(delta, degree3, (2 * lift51.k - 6) * lift51.l ** 2, heights),
            sidecar,
        ):
            assert sfio.dumps(obj) == stdlib_dumps(obj)


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


# SHA-256 of the .json, .manifest.json, .realized.json and .report.json
# artifacts of `generate`.  These pin the output bytes of every builder;
# a refactor must reproduce them, never re-record them.
GOLDEN_ARTIFACTS = {
    ("holes4", "--n", "5", "--m", "7"): (
        "1d0f8a7630baa2cee9e082520582af17115105156ea2733acadb41027ccafc43",
        "2940ed95326c66ef124c78532f366937120d2647d7434b924d70b7303a42449a",
        "8d0e57cb25b07b3db00bf90890854d9916475e40d1dbf0904f206a4525f1311a",
        "b43c4b948b2368fbde7ee5c9cf48470abf81d234cbd5ef30429182b6a8e6e116",
    ),
    ("holes3", "--n", "6"): (
        "0d8ea8239844ddca016797bae79c2ca88c2bb5d6f41c5da08af3aa444917361a",
        "3053d349eb1557886c3d1e1bcca706e830b34194624bdccd103128fdb1899770",
        "84429e5d0f5d9fc6110086647d840693c06d88e475120932f861baf30519e670",
        "f13cd894511cefd5524436585d2bd0b7cd45317ffb61c2449f0a4190a1471c76",
    ),
    ("aztec", "--k", "3", "--l", "2"): (
        "c68cc5b310cdc3ecbeadb86f797a51f02c54a0a8130902fd972a0b2efa772e92",
        "bae32467f01adecd023664816ff749b319ce01b939f8498cdf83096c265739d0",
        "dcd7e92a1e6cef72eae01cd17b19040d0f84ba89eb9dabf5ae5ecee892a51fef",
        "ed7f56b2c188bd9285d8d683e3ea9dfde7c57ef628bff28cedcb64a3df94de39",
    ),
    ("cyclic", "--n", "3"): (
        "d2d591b8211a7f7df630d124e70877aab713a2ad72f56e56c7c7efd37c863559",
        "2b0c75218098d8fa96679fcea983b12d13e69471185238bc84f574aaba02a6a5",
        "d1061c611a263fb3c1bafdb765dddaec5b1cd8e2bbcfb156a8a157e778998772",
        "3e112c70abacef4c083a9ee2235bc2b134552050378ddb02c5362ba3022a2f2f",
    ),
    ("highd", "--d", "3", "--n", "6"): (
        "ef571fbdea6fc60df2c627b92e7291dfcc79a4b61646ea1b9a5266b60a537773",
        "9244eaee31f8ca881d750f9d1e4b2b1a95b6087b51c38ad26f6646ae97f1230e",
        "fbd2a0a30f14ca010fcdcb1585a83497be32f3a614501690ccf16eaf88c9407d",
        "15a7487f4f3092c9bb4cb3034a3842fc50252a650b28944d5bc8dfaa97fdb9df",
    ),
    ("aztec-hd", "--d", "3", "--k", "3", "--l", "1"): (
        "ccc240483c64667bd226dd971a61c77c0fe6983cb2de5350c803539dd1318580",
        "6daa2a7112dc54d488da9fd36962851e93472c7bfe44db1b04b505a49e9fa554",
        "30bbb010cfd5ecb69bbe3c86d26a5f410f2d3fea7b871e80ea50eca64cef77a6",
        "b851bf448c99a07b76ab31e73955affff11f6c69bbde19a8f12a03e97d9d4902",
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_ARTIFACTS), ids=lambda a: a[0])
def test_generate_golden_bytes(tmp_path, argv):
    assert run(tmp_path, "generate", *argv, "-o", tmp_path / "g.json") == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"g{suffix}.json").read_bytes()).hexdigest()
        for suffix in ("", ".manifest", ".realized", ".report")
    )
    assert digests == GOLDEN_ARTIFACTS[argv]


# SHA-256 of the geometry artifacts: the lift files of two Aztec lifts, the
# hulls (normals, offsets and facet kinds) of the (3,1), (3,3) and (5,3)
# lifts and the raised heights of the (5,1) and (5,3) lifts.  Like
# GOLDEN_ARTIFACTS, never re-recorded.
GOLDEN_GEOMETRY = {
    "lift31.json": "9d08f3a32a5beeb17b09f3d81ba67cf3f23acac1be9b945c5b460d1cabf60d3a",
    "lift51.json": "9dc9ae8891ba094449fbf9d53aff41963e2638e483e2edf409cf77582ff7db4a",
    "hull31.json": "f108bea353f13bbf2efda0dedcbd69a1013f69d795a9ce6d0259f388cd2f35fd",
    "degree3_51.json": "e2f05b43d2ae76b0388824239a7e107d55f08ba4b5ca7ec9c6ce7e4eb5c9e1dd",
    "hull33.json": "b870dd426dd343722a2bd19305e5fbf6e333b9dd6f5a846390c3e2cf5628803c",
    "hull53.json": "6191aa0ae1788eb1abf677d902c2033704c19c118e331a9012281e1e402e87b3",
    "degree3_53.json": "5ac771bb8a993fea7647bd86af10df63a505f380d3ff8fbc7f2657129cd1ad39",
}


def test_geometry_golden_bytes(tmp_path):
    for k in (3, 5):
        for l in (1, 3):
            assert run(tmp_path, "lift", "aztec", "--k", k, "--l", l, "-o", tmp_path / f"lift{k}{l}.json") == 0
    for name in ("31", "33", "53"):
        assert run(tmp_path, "hull", "--input", tmp_path / f"lift{name}.json", "-o", tmp_path / f"hull{name}.json") == 0
    for name in ("51", "53"):
        assert run(tmp_path, "degree3", "--input", tmp_path / f"lift{name}.json", "-o", tmp_path / f"degree3_{name}.json") == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_GEOMETRY
    }
    assert digests == GOLDEN_GEOMETRY


# SHA-256 of the files written by realize (--choices and --random), fill,
# verify sphere --report and export off (the mesh and its exact sidecar).
# Like GOLDEN_ARTIFACTS, never re-recorded.
GOLDEN_PIPELINE = {
    "choices.json": "c4f66a886a7d4f2ef5b58829e5d5fe255bd22fafee2268293559dbebf8a6b46d",
    "random.json": "ed12e1750b3fd2a6d0a68f04ec8b6b0e08430bee20453780283fc96d7b049b95",
    "filled.json": "2ba65f8ba792f998423848ceb82611f979a31e86f108cc94464396fe3511a4b7",
    "sphere.report.json": "9795c79b5ef7123907ec8adaef26d40d33290abb9e6730d7460c5a791004b40c",
    "mesh.off": "14857184bb2236e3ee5051764020774f3b061923fc983e27fef9c75a2e825a72",
    "mesh.off.exact.json": "692c93f3eb25675e85c6ce10d36941ce7a53ed1d422bc9dd850615c4e1872f62",
}


def test_pipeline_golden_bytes(tmp_path):
    assert run(tmp_path, "generate", "holes4", "--n", 5, "--m", 7, "-o", tmp_path / "h.json") == 0
    manifest = tmp_path / "h.manifest.json"
    assert run(tmp_path, "realize", "--manifest", manifest, "--choices", "0x5a",
               "-o", tmp_path / "choices.json") == 0
    assert run(tmp_path, "verify", "sphere", tmp_path / "choices.json",
               "--report", tmp_path / "sphere.report.json") == 0

    host = tmp_path / "host.json"
    sfio.save_complex(str(host), join_of_paths((4, 4)).complex)
    block = [[f"a:1:{i}", f"a:1:{i+1}", f"a:2:{j}", f"a:2:{j+1}"] for i in (1, 2) for j in (1, 2)]
    holes = tmp_path / "holes.json"
    holes.write_text(json.dumps({"holes": [{"key": 1, "facets": block, "members": [block[0]]}]}))
    assert run(tmp_path, "fill", "--input", host, "--holes", holes, "-o", tmp_path / "filled.json") == 0

    assert run(tmp_path, "generate", "aztec", "--k", 3, "--l", 1, "-o", tmp_path / "a.json") == 0
    assert run(tmp_path, "realize", "--manifest", tmp_path / "a.manifest.json", "--random",
               "--seed", 3, "--index", 2, "-o", tmp_path / "random.json") == 0
    assert run(tmp_path, "lift", "aztec", "--k", 3, "--l", 1, "-o", tmp_path / "lift.json") == 0
    assert run(tmp_path, "export", "off", "--input", tmp_path / "random.json",
               "--lift", tmp_path / "lift.json", "-o", tmp_path / "mesh.off") == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_PIPELINE
    }
    assert digests == GOLDEN_PIPELINE


# Generate a sphere, then fill holes whose facets are not in the host, so
# that the error names one of several simplices.
HASH_SEED_SCRIPT = """
import sys
from sphereforge.cli import main
out, host, holes = sys.argv[1:]
assert main(["generate", "cyclic", "--n", "5", "-o", out + "/c.json"]) == 0
assert main(["fill", "--input", host, "--holes", holes, "-o", out + "/m.json"]) == 1
"""


def test_artifacts_and_messages_do_not_depend_on_the_hash_seed(tmp_path):
    host = tmp_path / "host.json"
    sfio.save_complex(str(host), join_of_paths((5, 5)).complex)
    cubes = [(1, 1), (5, 1), (6, 6), (2, 5), (5, 2), (1, 5), (6, 3)]
    facets = [[f"a:1:{i}", f"a:1:{i+1}", f"a:2:{j}", f"a:2:{j+1}"] for i, j in cubes]
    holes = tmp_path / "holes.json"
    holes.write_text(json.dumps({"holes": [{"key": 1, "facets": facets}]}))
    src = str(Path(sphereforge.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "987"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(out), str(host), str(holes)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        files = {
            name: (out / f"c{name}.json").read_bytes()
            for name in ("", ".manifest", ".realized", ".report")
        }
        runs.append((files, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    assert runs[0][2].startswith("error: {a:1:") and runs[0][2].endswith("} is not a facet of the host\n")


class TestCliPipelines:
    def test_generate_and_verify_sphere(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(tmp_path, "generate", "holes4", "--n", "5", "--m", "5", "-o", out) == 0
        assert run(tmp_path, "verify", "sphere", tmp_path / "s.realized.json") == 0
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["construction"] == "holes4"

    def test_generate_idempotent_bytes(self, tmp_path):
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        for out in (out1, out2):
            assert run(tmp_path, "generate", "cyclic", "--n", "3", "-o", out) == 0
        for suffix in ("", ".manifest", ".realized", ".report"):
            a = (tmp_path / f"g1{suffix}.json").read_bytes()
            b = (tmp_path / f"g2{suffix}.json").read_bytes()
            assert a == b, suffix

    def test_realize_deterministic_bytes(self, tmp_path):
        out = tmp_path / "a.json"
        run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", out)
        m = tmp_path / "a.manifest.json"
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(tmp_path, "realize", "--manifest", m, "--choices", "0x0", "-o", r1) == 0
        assert run(tmp_path, "realize", "--manifest", m, "--choices", "0x0", "-o", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()
        r3 = tmp_path / "r3.json"
        assert run(tmp_path, "realize", "--manifest", m, "--choices", "0xf", "-o", r3) == 0
        assert r3.read_bytes() != r1.read_bytes()

    def test_realized_aztec_is_ball(self, tmp_path):
        out = tmp_path / "a.json"
        run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", out)
        assert run(tmp_path, "verify", "ball", tmp_path / "a.realized.json") == 0
        assert run(tmp_path, "verify", "sphere", tmp_path / "a.realized.json") == 2

    def test_lift_hull_pipeline(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        assert run(tmp_path, "verify", "regular", lift) == 0
        hull = tmp_path / "hull.json"
        assert run(tmp_path, "hull", "--input", lift, "-o", hull) == 0
        out = capsys.readouterr().out
        assert "bipyramids: 4" in out

    def test_degree3_pipeline(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift)
        assert run(tmp_path, "degree3", "--input", lift) == 0
        assert "degree-3 edges:" in capsys.readouterr().out

    def test_degree3_realizes_the_zero_vector_once(self, tmp_path, capsys, monkeypatch):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "5", "--l", "3", "-o", lift) == 0
        capsys.readouterr()
        calls = []
        unwrapped = geometry.realize

        def counting(manifest, bits):
            calls.append(bits)
            return unwrapped(manifest, bits)

        monkeypatch.setattr(geometry, "realize", counting)
        assert run(tmp_path, "degree3", "--input", lift) == 0
        assert capsys.readouterr().out == "degree-3 edges: 72 (guaranteed 36), delta=1/8\n"
        assert len(calls) == 1 and not any(calls[0])

    def test_count(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", out)
        assert run(tmp_path, "count", "--manifest", tmp_path / "a.manifest.json") == 0
        assert "2^4 = 16" in capsys.readouterr().out

    def test_fill_roundtrip(self, tmp_path):
        host = join_of_paths((4, 4)).complex
        host_path = tmp_path / "host.json"
        sfio.save_complex(str(host_path), host)
        block = [[f"a:1:{i}", f"a:1:{i+1}", f"a:2:{j}", f"a:2:{j+1}"] for i in (1, 2) for j in (1, 2)]
        holes = {"holes": [{"key": 1, "facets": block, "members": [block[0]]}]}
        holes_path = tmp_path / "holes.json"
        holes_path.write_text(json.dumps(holes))
        mpath = tmp_path / "m.json"
        assert run(tmp_path, "fill", "--input", host_path, "--holes", holes_path, "-o", mpath) == 0
        m = sfio.load_manifest(str(mpath))
        assert m.n_free_cells == 1

    def test_realize_refuses_a_choice_bit_beyond_the_free_cells(self, tmp_path, capsys):
        # a hole without members fills with cones alone: 0 free cells
        host_path = tmp_path / "host.json"
        sfio.save_complex(str(host_path), join_of_paths((4, 4)).complex)
        block = [[f"a:1:{i}", f"a:1:{i+1}", f"a:2:{j}", f"a:2:{j+1}"] for i in (1, 2) for j in (1, 2)]
        holes_path = tmp_path / "holes.json"
        holes_path.write_text(json.dumps({"holes": [{"key": 1, "facets": block}]}))
        mpath = tmp_path / "m.json"
        assert run(tmp_path, "fill", "--input", host_path, "--holes", holes_path, "-o", mpath) == 0
        assert sfio.load_manifest(str(mpath)).n_free_cells == 0
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run(tmp_path, "realize", "--manifest", mpath, "--choices", "1", "-o", out) == 1
        assert capsys.readouterr().err == "input error: choice value 1 out of range for 0 cells\n"
        assert not out.exists()
        assert run(tmp_path, "realize", "--manifest", mpath, "--choices", "0", "-o", out) == 0

    @pytest.mark.parametrize("text", ["1_0", " 1a ", "-0", "+1", "\uff11", "0x", "", "0x-1", "1a\n"],
                             ids=["underscore", "spaces", "minus", "plus", "fullwidth", "bare-0x",
                                  "empty", "signed-after-0x", "newline"])
    def test_realize_reads_only_canonical_hex(self, tmp_path, capsys, text):
        # only an optional 0x or 0X and ASCII hex digits are read, as
        # VertexId.from_label reads only canonical labels
        run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "a.json")
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run(tmp_path, "realize", "--manifest", tmp_path / "a.manifest.json",
                   "--choices", text, "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"input error: bad choice vector {text!r}: expected hex digits, optionally after 0x\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0x5", "0X5", "5", "0x05", "0xA", "0xa"])
    def test_realize_reads_either_case_and_prefix(self, tmp_path, text):
        run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "a.json")
        m = tmp_path / "a.manifest.json"
        out, ref = tmp_path / "r.json", tmp_path / "ref.json"
        assert run(tmp_path, "realize", "--manifest", m, "--choices", text, "-o", out) == 0
        assert run(tmp_path, "realize", "--manifest", m, "--choices", hex(int(text, 16)),
                   "-o", ref) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_export_off(self, tmp_path):
        lift = tmp_path / "lift.json"
        run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift)
        realized = tmp_path / "r.json"
        run(
            tmp_path, "generate", "aztec", "--k", "3", "--l", "1",
            "-o", tmp_path / "a.json",
        )
        off = tmp_path / "mesh.off"
        code = run(
            tmp_path, "export", "off",
            "--input", tmp_path / "a.realized.json", "--lift", lift, "-o", off,
        )
        assert code == 0
        text = off.read_text()
        assert text.startswith("OFF")
        assert (tmp_path / "mesh.off.exact.json").exists()

    def test_shelling_verify_cli(self, tmp_path):
        from sphereforge import diagonal_band, GridBox

        band = diagonal_band(GridBox((4, 4)), 3, 6)
        cpath, opath = tmp_path / "band.json", tmp_path / "order.json"
        sfio.save_complex(str(cpath), region_complex(band))
        sfio.write_text(str(opath), sfio.dumps(sfio.order_to_obj(shelling_order_band(band))))
        assert run(tmp_path, "verify", "shelling", cpath, opath) == 0

    def test_shelling_verify_cli_rejects_a_ridge_in_three_facets(self, tmp_path, capsys):
        order = [Simplex([VertexId.raw(1), VertexId.raw(2), VertexId.raw(i)]) for i in (3, 4, 5)]
        cpath, opath = tmp_path / "book.json", tmp_path / "order.json"
        sfio.save_complex(str(cpath), SimplicialComplex.from_facets(order))
        sfio.write_text(str(opath), sfio.dumps(sfio.order_to_obj(order)))
        capsys.readouterr()
        assert run(tmp_path, "verify", "shelling", cpath, opath) == 2
        assert capsys.readouterr().out == "shelling rejected\n"

    def test_fill_rejects_hole_keys_that_mix_integers_and_tuples(self, tmp_path, capsys):
        # hole keys are sorted, and an int and a tuple do not compare
        host = join_of_paths((9, 9))
        host_path = tmp_path / "host.json"
        sfio.save_complex(str(host_path), host.complex)
        holes = [
            {"key": key, "facets": [[v.label for v in host.facet_of(c)] for c in sorted(band.cells)]}
            for key, band in (
                ("1", diagonal_band(host.box, 2, 3)),
                ("1,2", diagonal_band(host.box, 6, 7)),
            )
        ]
        holes_path = tmp_path / "holes.json"
        holes_path.write_text(json.dumps({"holes": holes}))
        capsys.readouterr()
        out = tmp_path / "m.json"
        assert run(tmp_path, "fill", "--input", host_path, "--holes", holes_path, "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "input error: malformed holes file: hole keys mix integers and tuples\n"
        assert captured.out == "" and not out.exists()

    def test_fill_rejects_non_integer_hole_key(self, tmp_path, capsys):
        host_path = tmp_path / "host.json"
        sfio.save_complex(str(host_path), join_of_paths((4, 4)).complex)
        holes_path = tmp_path / "holes.json"
        holes_path.write_text(json.dumps({"holes": [{"key": "abc", "facets": []}]}))
        code = run(tmp_path, "fill", "--input", host_path, "--holes", holes_path, "-o", tmp_path / "m.json")
        assert code == 1
        assert "input error: malformed holes file:" in capsys.readouterr().err

    def test_lift_file_missing_a_height_is_rejected(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        del obj["heights"]["a:1:1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv in (("verify", "regular", bad), ("hull", "--input", bad)):
            assert run(tmp_path, *argv) == 1
            assert "a:1:1 has no height" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("points", "nope"),
        ("points", [["a:1:1"]]),
        ("heights", []),
        ("heights", "x"),
    ])
    def test_lift_file_of_the_wrong_shape_is_rejected(self, tmp_path, capsys, key, value):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        obj[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv in (("hull", "--input", bad), ("verify", "regular", bad), ("degree3", "--input", bad)):
            assert run(tmp_path, *argv) == 1, argv
            assert "input error: malformed lift file:" in capsys.readouterr().err

    def test_hull_rejects_points_that_are_not_4d_before_building(self, tmp_path, capsys, monkeypatch):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        obj["points"] = [[label, coords[:2]] for label, coords in obj["points"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()

        def no_hull(*args):
            raise AssertionError("hull built for input that is then rejected")

        monkeypatch.setattr(cli, "hull_with_apex", no_hull)
        assert run(tmp_path, "hull", "--input", bad) == 1
        assert "facet classification expects a 4-dimensional hull" in capsys.readouterr().err

    def test_degree3_rejects_a_missing_or_non_integer_k(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        capsys.readouterr()
        for k in (None, "3", 3.0, True):
            bad = dict(obj)
            if k is None:
                del bad["k"]
            else:
                bad["k"] = k
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            assert run(tmp_path, "degree3", "--input", path) == 1, k
            assert "input error: degree3 needs integer k and l" in capsys.readouterr().err

    def test_lift_file_listing_a_point_twice_is_rejected(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        assert run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "a.json") == 0
        obj = json.loads(lift.read_text())
        obj["points"].append(["a:1:1", ["100", "100", "100"]])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        off = tmp_path / "mesh.off"
        for argv in (
            ("hull", "--input", bad),
            ("verify", "regular", bad),
            ("degree3", "--input", bad),
            ("export", "off", "--input", tmp_path / "a.realized.json", "--lift", bad, "-o", off),
        ):
            assert run(tmp_path, *argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == "input error: malformed lift file: point a:1:1 appears twice\n", argv
            assert captured.out == "", argv
        assert not off.exists()

    def test_degree3_rejects_a_lift_that_is_not_its_regenerated_lift(self, tmp_path, capsys):
        lifts = {}
        for k in (3, 5):
            path = tmp_path / f"lift{k}1.json"
            assert run(tmp_path, "lift", "aztec", "--k", k, "--l", "1", "-o", path) == 0
            lifts[k] = json.loads(path.read_text())
        raised = json.loads(json.dumps(lifts[3]))
        raised["heights"]["a:1:1"] = "1000"
        flat = json.loads(json.dumps(lifts[5]))
        flat["points"] = [[label, [str(i), "0", "0"]] for i, (label, _) in enumerate(flat["points"])]
        flat["heights"] = {label: "0" for label in flat["heights"]}
        flat["subdivision"] = flat["subdivision"][:1]
        capsys.readouterr()
        for name, obj, regular in (("raised", raised, 2), ("flat", flat, None)):
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(obj))
            if regular is not None:
                assert run(tmp_path, "verify", "regular", bad) == regular
                capsys.readouterr()
            out = tmp_path / f"{name}.degree3.json"
            assert run(tmp_path, "degree3", "--input", bad, "-o", out) == 1, name
            captured = capsys.readouterr()
            assert captured.err == "input error: lift file does not match its regenerated lift\n"
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("k, l", [(3, 9), (7, 9)])
    def test_degree3_refuses_a_point_count_that_cannot_match_before_building(
        self, tmp_path, capsys, monkeypatch, k, l
    ):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        obj["k"], obj["l"] = k, l
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()

        def no_lift(*args):
            raise AssertionError("lift built for a file that is then refused")

        monkeypatch.setattr(cli, "build_aztec_lift", no_lift)
        assert run(tmp_path, "degree3", "--input", bad) == 1
        captured = capsys.readouterr()
        assert captured.err == "input error: lift file does not match its regenerated lift\n"
        assert captured.out == ""

    def test_hull_refuses_a_point_labelled_as_the_apex(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        obj["points"] = [["c" if label == "a:1:1" else label, coords] for label, coords in obj["points"]]
        obj["heights"]["c"] = obj["heights"].pop("a:1:1")
        obj["subdivision"] = [["c" if label == "a:1:1" else label for label in cell] for cell in obj["subdivision"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        out = tmp_path / "hull.json"
        assert run(tmp_path, "hull", "--input", bad, "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "input error: lift point label c is reserved for the apex\n"
        assert captured.out == ""
        assert not out.exists()

    def test_two_labels_at_one_point_are_rejected(self, tmp_path, capsys):
        # r:0 at the point and height of a:1:1 used to give 33 bipyramids
        # and 16 other facets instead of 36 and 4
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "3", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        coords = dict(obj["points"])["a:1:1"]
        obj["points"].append(["r:0", coords])
        obj["heights"]["r:0"] = obj["heights"]["a:1:1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv in (("hull", "--input", bad), ("verify", "regular", bad)):
            assert run(tmp_path, *argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == (
                "input error: malformed lift file: points a:1:1 and r:0 are both at (1,0,1)\n"
            ), argv
            assert captured.out == "", argv

    @pytest.mark.parametrize("n", [2, 4])
    def test_export_off_refuses_points_that_are_not_3d(self, tmp_path, capsys, n):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        assert run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "a.json") == 0
        obj = json.loads(lift.read_text())
        points = obj["points"]
        for point in points:
            point[1] = (point[1] + ["0"])[:n]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        off = tmp_path / "mesh.off"
        assert run(tmp_path, "export", "off", "--input", tmp_path / "a.realized.json", "--lift", bad, "-o", off) == 1
        captured = capsys.readouterr()
        label = points[0][0]
        assert captured.err == f"input error: export off needs 3-D points; point {label} has {n} coordinates\n"
        assert captured.out == ""
        assert not off.exists()

    @pytest.mark.parametrize("dim", [0, 1, 4])
    def test_export_off_refuses_a_complex_that_is_not_2d_or_3d(self, tmp_path, capsys, dim):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        # a point, the path a:1:1 - a:1:2 - a:1:3, and a 4-simplex
        v = [VertexId.from_label(f"a:{i // 4 + 1}:{i % 4 + 1}") for i in range(5)]
        facets = {0: [v[:1]], 1: [v[:2], v[1:3]], 4: [v]}[dim]
        sfio.save_complex(str(tmp_path / "x.json"), SimplicialComplex.from_facets(map(Simplex, facets)))
        capsys.readouterr()
        off = tmp_path / "mesh.off"
        assert run(tmp_path, "export", "off", "--input", tmp_path / "x.json", "--lift", lift, "-o", off) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"input error: export off needs a 2- or 3-dimensional complex, got dimension {dim}\n"
        )
        assert captured.out == ""
        assert not off.exists() and not (tmp_path / "mesh.off.exact.json").exists()

    def test_export_off_names_the_least_triangle_in_three_tetrahedra(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        # the triangles {r:0,r:8,r:10} and {r:5,r:6,r:11} each lie in 3 tetrahedra
        tets = [(0, 8, 10, k) for k in (1, 3, 9)] + [(5, 6, 11, k) for k in (2, 4, 7)]
        x = SimplicialComplex.from_facets(Simplex(map(VertexId.raw, t)) for t in tets)
        sfio.save_complex(str(tmp_path / "x.json"), x)
        capsys.readouterr()
        off = tmp_path / "mesh.off"
        assert run(tmp_path, "export", "off", "--input", tmp_path / "x.json", "--lift", lift, "-o", off) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: face {r:0,r:8,r:10} lies in 3 facets\n"
        assert captured.out == ""
        assert not off.exists()

    @pytest.mark.parametrize("which, coords, message", [
        ("every", [], "point a:1:1 has no coordinates"),
        ("first", ["1", "0"], "points a:1:1 and a:1:2 have 2 and 3 coordinates"),
    ])
    def test_a_point_without_coordinates_or_of_another_dimension_is_rejected(
        self, tmp_path, capsys, which, coords, message
    ):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        assert run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "a.json") == 0
        obj = json.loads(lift.read_text())
        points = obj["points"]
        for point in points if which == "every" else points[:1]:
            point[1] = coords
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        off = tmp_path / "mesh.off"
        for argv in (
            ("verify", "regular", bad),
            ("hull", "--input", bad),
            ("degree3", "--input", bad),
            ("export", "off", "--input", tmp_path / "a.realized.json", "--lift", bad, "-o", off),
        ):
            assert run(tmp_path, *argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == f"input error: malformed lift file: {message}\n", argv
            assert captured.out == "", argv
        assert not off.exists()

    def test_a_lift_file_without_points_is_rejected(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        obj.update(points=[], heights={}, coarse={}, fine={})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv in (("verify", "regular", bad), ("hull", "--input", bad), ("degree3", "--input", bad)):
            assert run(tmp_path, *argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == "input error: malformed lift file: no points\n", argv
            assert captured.out == "", argv

    def test_lift_file_listing_a_cell_or_a_cell_label_twice_is_rejected(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        label_twice = json.loads(json.dumps(obj))
        first = label_twice["subdivision"][0]
        first.append(first[0])
        cell_twice = json.loads(json.dumps(obj))
        cell_twice["subdivision"].append(cell_twice["subdivision"][3])
        cell = "{" + ",".join(obj["subdivision"][3]) + "}"
        capsys.readouterr()
        for tampered, message in (
            (label_twice, f"a cell lists {first[0]} twice"),
            (cell_twice, f"cell {cell} appears twice"),
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(tampered))
            for argv in (("verify", "regular", bad), ("degree3", "--input", bad)):
                assert run(tmp_path, *argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.err == f"input error: malformed lift file: {message}\n", argv
                assert captured.out == "", argv

    @pytest.mark.parametrize("tamper, message", [
        (lambda obj: obj["cells"].append(obj["cells"][1]), "cell {r:0,r:1,r:3} appears twice"),
        (lambda obj: obj.update(dim=5), "dim 5 but the cells have dimension 2"),
        (lambda obj: obj.update(dim="2"), "dim '2' but the cells have dimension 2"),
    ], ids=["cell-twice", "dim-5", "dim-string"])
    def test_a_complex_file_with_a_cell_twice_or_a_wrong_dim_is_rejected(
        self, tmp_path, capsys, tamper, message
    ):
        # the boundary of a tetrahedron, which is sphere(2) as written
        tetra = Simplex(map(VertexId.raw, range(4)))
        good = tmp_path / "good.json"
        facets = [tetra[:i] + tetra[i + 1:] for i in range(4)]
        sfio.save_complex(str(good), SimplicialComplex.from_facets(facets))
        assert run(tmp_path, "verify", "sphere", good) == 0
        obj = json.loads(good.read_text())
        tamper(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(tmp_path, "verify", "sphere", bad) == 1
        captured = capsys.readouterr()
        assert captured.err == f"input error: malformed complex: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tamper, message", [
        (lambda obj: obj["complex"]["cells"].append(obj["complex"]["cells"][-1]),
         "cell FS({a:1:4,a:2:3}+{a:1:5,a:2:4,h:1}) appears twice"),
        (lambda obj: obj.update(dim=4), "dim 4 but the cells have dimension 3"),
    ], ids=["free-cell-twice", "dim-4"])
    def test_a_manifest_with_a_cell_twice_or_a_wrong_dim_is_rejected(
        self, tmp_path, capsys, tamper, message
    ):
        assert run(tmp_path, "generate", "holes4", "--n", "5", "-o", tmp_path / "h.json") == 0
        obj = json.loads((tmp_path / "h.manifest.json").read_text())
        tamper(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(tmp_path, "count", "--manifest", bad) == 1
        captured = capsys.readouterr()
        assert captured.err == f"input error: malformed manifest: {message}\n"
        assert captured.out == ""

    def test_manifest_holes_that_disagree_with_the_complex_are_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "holes4", "--n", "5", "-o", tmp_path / "h.json") == 0
        obj = json.loads((tmp_path / "h.manifest.json").read_text())
        assert [(h["key"], len(h["cells"])) for h in obj["holes"]] == [("0", 0), ("1", 5)]
        twice = json.loads(json.dumps(obj))
        twice["holes"].append(twice["holes"][1])
        dropped = json.loads(json.dumps(obj))
        dropped["holes"][1]["cells"].pop()
        capsys.readouterr()
        for tampered in (twice, dropped):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(tampered))
            out = tmp_path / "r.json"
            for argv in (("count", "--manifest", bad), ("realize", "--manifest", bad, "-o", out)):
                assert run(tmp_path, *argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.err.startswith("input error: malformed manifest: "), argv
                assert captured.out == "", argv
            assert not out.exists()

    def test_a_vertex_label_that_is_not_a_string_is_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "holes4", "--n", "5", "-o", tmp_path / "h.json") == 0
        obj = json.loads((tmp_path / "h.manifest.json").read_text())
        obj["holes"][1]["apex"] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv in (("count", "--manifest", bad), ("realize", "--manifest", bad, "-o", tmp_path / "r.json")):
            assert run(tmp_path, *argv) == 1, argv
            assert capsys.readouterr().err == "input error: malformed manifest: bad vertex label 7\n"

    @pytest.mark.parametrize(
        "label, canonical",
        [("r:01", "r:1"), ("r:1_0", "r:10"), ("r: 1", "r:1"), ("r:+1", "r:1"), ("r:\u0663", "r:3")],
        ids=["leading-zero", "underscore", "space", "sign", "arabic-indic-digit"],
    )
    def test_a_label_that_is_not_canonical_is_rejected(self, tmp_path, capsys, label, canonical):
        # r:3 -- label would close the path r:1 -- r:2 -- r:3 into a circle
        # if it were read as r:1
        path = tmp_path / "path.json"
        edges = [["r:1", "r:2"], ["r:2", "r:3"], ["r:3", label]]
        path.write_text(json.dumps({"dim": 1, "cells": [{"t": "s", "v": e} for e in edges]}))
        assert run(tmp_path, "verify", "sphere", path) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"input error: malformed complex: bad vertex label {label!r}: "
            f"the canonical spelling is {canonical!r}\n"
        )
        assert captured.out == ""

    def test_manifest_and_lift_labels_must_be_canonical(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "holes4", "--n", "5", "-o", tmp_path / "h.json") == 0
        manifest = json.loads((tmp_path / "h.manifest.json").read_text())
        assert manifest["holes"][1]["apex"] == "h:1"
        manifest["holes"][1]["apex"] = "h:+1"
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        assert obj["points"][0][0] == "a:1:1"
        obj["points"][0][0] = "a:01:1"
        bad_manifest, bad_lift = tmp_path / "bad.manifest.json", tmp_path / "bad.lift.json"
        bad_manifest.write_text(json.dumps(manifest))
        bad_lift.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv, message in (
            (("count", "--manifest", bad_manifest), "manifest: bad vertex label 'h:+1'"),
            (("realize", "--manifest", bad_manifest, "-o", tmp_path / "r.json"),
             "manifest: bad vertex label 'h:+1'"),
            (("verify", "regular", bad_lift), "lift file: bad vertex label 'a:01:1'"),
            (("hull", "--input", bad_lift), "lift file: bad vertex label 'a:01:1'"),
        ):
            assert run(tmp_path, *argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(f"input error: malformed {message}: "), argv
            assert captured.out == "", argv
        assert not (tmp_path / "r.json").exists()

    def test_rationals_must_be_strings(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        obj = json.loads(lift.read_text())
        assert obj["points"][0] == ["a:1:1", ["1", "0", "1"]]
        eps = dict(obj, eps=0.25)
        point = json.loads(json.dumps(obj))
        point["points"][0][1] = [1.0, 0.0, 1.0]
        heights = dict(obj, heights={label: float(Fraction(h)) for label, h in obj["heights"].items()})
        capsys.readouterr()
        for tampered, commands, number in (
            (eps, ("verify",), "0.25"),
            (point, ("verify", "hull"), "1.0"),
            (heights, ("verify",), repr(float(Fraction(obj["heights"]["a:1:1"])))),
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(tampered))
            argvs = {"verify": ("verify", "regular", bad), "hull": ("hull", "--input", bad)}
            for command in commands:
                assert run(tmp_path, *argvs[command]) == 1, command
                captured = capsys.readouterr()
                assert captured.err == f"input error: malformed lift file: bad rational {number}\n"
                assert captured.out == ""

    def test_a_height_for_a_label_that_is_not_a_point_is_rejected(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        assert run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "a.json") == 0
        obj = json.loads(lift.read_text())
        obj["heights"]["a:9:9"] = "5"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        off = tmp_path / "mesh.off"
        for argv in (
            ("verify", "regular", bad),
            ("hull", "--input", bad),
            ("export", "off", "--input", tmp_path / "a.realized.json", "--lift", bad, "-o", off),
        ):
            assert run(tmp_path, *argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == "input error: malformed lift file: height for a:9:9, which is not a point\n"
            assert captured.out == ""
        assert not off.exists()

    def test_a_cell_that_uses_a_label_which_is_not_a_point_is_rejected(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", lift) == 0
        assert run(tmp_path, "generate", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "a.json") == 0
        obj = json.loads(lift.read_text())
        obj["subdivision"][0].append("r:77")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        off = tmp_path / "mesh.off"
        for argv in (
            ("verify", "regular", bad),
            ("hull", "--input", bad),
            ("degree3", "--input", bad),
            ("export", "off", "--input", tmp_path / "a.realized.json", "--lift", bad, "-o", off),
        ):
            assert run(tmp_path, *argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == (
                "input error: malformed lift file: "
                "cell {a:1:1,a:1:2,a:2:1,a:2:2,r:77} uses r:77, which is not a point\n"
            ), argv
            assert captured.out == "", argv
        assert not off.exists()

    @pytest.mark.parametrize("content", [b'{"cells": "\xff"}', b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_a_file_that_is_not_readable_json_is_an_input_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run(tmp_path, "verify", "sphere", bad) == 1
        assert capsys.readouterr().err.startswith(f"input error: cannot read JSON from {bad}: ")

    def test_lift_aztec_beyond_k7_fails_its_own_check(self, tmp_path, capsys):
        # the built-in coordinates certify k = 3, 5, 7 only: at k = 9 the
        # split heights stop increasing and the a-posteriori check rejects
        out = tmp_path / "lift.json"
        assert run(tmp_path, "lift", "aztec", "--k", "9", "--l", "1", "-o", out) == 1
        assert capsys.readouterr().err == "error: lift failed its own regularity check\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("generate", "holes4", "--n", "5", "-o", "g.json", "--no-check"),
        ("generate", "holes4", "--n", "5", "-o", "g.json", "--check"),
        ("hull", "--input", "lift.json", "--apex", "auto"),
    ], ids=["no-check", "check", "apex"])
    def test_options_that_select_nothing_are_gone(self, tmp_path, capsys, argv):
        assert run(tmp_path, "lift", "aztec", "--k", "3", "--l", "1", "-o", tmp_path / "lift.json") == 0
        capsys.readouterr()
        assert run(tmp_path, *(tmp_path / a if a.endswith(".json") else a for a in argv)) == 1
        assert capsys.readouterr().err.startswith("usage error")
        assert not (tmp_path / "g.json").exists()

    def test_a_negative_sample_count_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(tmp_path, "generate", "holes4", "--n", 5, "--samples", -2, "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: argument --samples: must not be negative, got -2\n"
        assert captured.out == ""
        assert not out.exists()

    def test_a_negative_index_is_a_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "holes4", "--n", 5, "-o", tmp_path / "h.json") == 0
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run(tmp_path, "realize", "--manifest", tmp_path / "h.manifest.json",
                   "--random", "--index", -1, "-o", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: argument --index: must not be negative, got -1\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("cubes, key", [
        (((1, 1), (3, 3)), 1),
        (((1, 1), (2, 2)), 1),
        (((1, 1), (3, 3)), "2,5"),
    ], ids=["disjoint", "edge-only", "key-as-spelled"])
    def test_fill_refuses_a_hole_that_is_not_a_ball(self, tmp_path, capsys, cubes, key):
        host_path = tmp_path / "host.json"
        sfio.save_complex(str(host_path), join_of_paths((5, 5)).complex)
        facets = [[f"a:1:{i}", f"a:1:{i+1}", f"a:2:{j}", f"a:2:{j+1}"] for i, j in cubes]
        holes_path = tmp_path / "holes.json"
        holes_path.write_text(json.dumps({"holes": [{"key": key, "facets": facets}]}))
        mpath = tmp_path / "m.json"
        assert run(tmp_path, "fill", "--input", host_path, "--holes", holes_path, "-o", mpath) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: hole {key} is not a ball: certified neither(3)\n"
        assert captured.out == ""
        assert not mpath.exists()

    def test_aztec_hd_dimension_bound(self, tmp_path, capsys):
        code = run(tmp_path, "generate", "aztec-hd", "--d", "1", "--k", "3", "--l", "1", "-o", tmp_path / "a.json")
        assert code == 1
        assert "need 2 <= d <= 3" in capsys.readouterr().err

    def test_exit_codes_on_bad_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(tmp_path, "verify", "sphere", bad) == 1
        assert run(tmp_path, "realize", "--manifest", bad, "-o", tmp_path / "x.json") == 1
        assert main(["generate", "holes4", "--n"]) == 1
        assert main(["nonsense"]) == 1


def test_cli_reads_no_private_io_member():
    """File formats are decided in ``io``: ``cli`` uses only its public names."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    private = sorted(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sfio"
        and node.attr.startswith("_")
    )
    assert private == []


def test_files_are_utf8_and_newlines_are_not_translated(tmp_path, monkeypatch, capsys):
    """Emulate a platform whose text files default to "\\r\\n" line ends
    and the cp1252 code page, as Windows does: ``write_text`` must still
    write ``text.encode()``, and a UTF-8 file must still read as UTF-8."""
    real_open = open

    def platform_open(file, mode="r", *args, encoding=None, newline=None, **kwargs):
        if "b" not in mode:
            encoding = encoding or "cp1252"
            if newline is None and set(mode) & set("wax+"):
                newline = "\r\n"
        return real_open(file, mode, *args, encoding=encoding, newline=newline, **kwargs)

    monkeypatch.setattr(sfio, "open", platform_open, raising=False)
    text = 'OFF\n{\n "v": "\u00e9"\n}\n'
    path = tmp_path / "t.txt"
    sfio.write_text(str(path), text)
    assert path.read_bytes() == text.encode()

    label = "r:\u0663"
    edges = [["r:1", "r:2"], ["r:2", label]]
    complex_path = tmp_path / "path.json"
    complex_path.write_bytes(
        json.dumps({"dim": 1, "cells": [{"t": "s", "v": e} for e in edges]}, ensure_ascii=False).encode()
    )
    assert run(tmp_path, "verify", "sphere", complex_path) == 1
    assert capsys.readouterr().err == (
        f"input error: malformed complex: bad vertex label {label!r}: the canonical spelling is 'r:3'\n"
    )


@pytest.fixture(scope="module")
def writer_inputs(tmp_path_factory):
    """Inputs for every command that writes a file: an Aztec (3,1)
    manifest, its realization, the (3,1) lift, and a host with one hole."""
    d = tmp_path_factory.mktemp("inputs")
    assert run(d, "generate", "aztec", "--k", 3, "--l", 1, "-o", d / "a.json") == 0
    assert run(d, "lift", "aztec", "--k", 3, "--l", 1, "-o", d / "lift.json") == 0
    sfio.save_complex(str(d / "host.json"), join_of_paths((4, 4)).complex)
    block = [[f"a:1:{i}", f"a:1:{i+1}", f"a:2:{j}", f"a:2:{j+1}"] for i in (1, 2) for j in (1, 2)]
    (d / "holes.json").write_text(json.dumps({"holes": [{"key": 1, "facets": block, "members": [block[0]]}]}))
    return d


WRITERS = {
    "generate": lambda d, out: ("generate", "holes4", "--n", 5, "-o", out),
    "fill": lambda d, out: ("fill", "--input", d / "host.json", "--holes", d / "holes.json", "-o", out),
    "realize": lambda d, out: ("realize", "--manifest", d / "a.manifest.json", "-o", out),
    "verify-report": lambda d, out: ("verify", "sphere", d / "a.realized.json", "--report", out),
    "lift": lambda d, out: ("lift", "aztec", "--k", 3, "--l", 1, "-o", out),
    "hull": lambda d, out: ("hull", "--input", d / "lift.json", "-o", out),
    "degree3": lambda d, out: ("degree3", "--input", d / "lift.json", "-o", out),
    "export-off": lambda d, out: ("export", "off", "--input", d / "a.realized.json",
                                  "--lift", d / "lift.json", "-o", out),
}


@pytest.mark.parametrize("where", ["missing-directory", "is-a-directory"])
@pytest.mark.parametrize("command", list(WRITERS))
def test_an_output_path_that_cannot_be_written_is_an_input_error(
    tmp_path, capsys, writer_inputs, command, where
):
    if where == "missing-directory":
        out = tmp_path / "nonexistent" / "out.json"
    else:
        out = tmp_path / "out.json"
        out.mkdir()
    capsys.readouterr()
    assert run(tmp_path, *WRITERS[command](writer_inputs, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out}: "), err
    assert err.count("\n") == 1, err
