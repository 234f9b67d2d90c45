"""Cross-module invariants on construction outputs."""

from sphereforge import (
    GridBox,
    SimplicialComplex,
    VertexId,
    betti_gf2,
    boundary_complex,
    certify,
    diagonal_band,
    realize,
    verify_shelling,
)
from sphereforge.cli import main
from sphereforge.constructions import build_aztec, build_holes4

from oracles import cone, region_complex, shelling_order_band, validate_proper_intersections


class TestProperIntersections:
    def test_holes4_output(self):
        validate_proper_intersections(build_holes4(6, 6).manifest.result)

    def test_aztec_output(self):
        validate_proper_intersections(build_aztec(3, 2).manifest.result)


class TestShellableImpliesBall:
    def test_band_shellings_certify_balls(self):
        cases = [((4, 4), 3, 6), ((5, 5), 2, 4), ((3, 3, 3), 4, 7), ((2, 2, 2), 3, 4)]
        for dims, m1, m2 in cases:
            band = diagonal_band(GridBox(dims), m1, m2)
            cx = region_complex(band)
            assert verify_shelling(cx, shelling_order_band(band))
            assert certify(cx).is_ball(2 * len(dims) - 1), (dims, m1, m2)


class TestConeGlue:
    def test_cone_upgrade_and_glue(self):
        manifest = build_aztec(3, 1).manifest
        ball = realize(manifest, (0,) * manifest.n_free_cells)
        assert certify(ball).is_ball(3)
        bd = boundary_complex(ball)
        assert certify(bd).is_sphere(2)
        apex = VertexId.cone()
        lid = cone(bd, apex)
        assert certify(lid).is_ball(3)
        glued = SimplicialComplex.from_facets(list(ball.facets) + list(lid.facets))
        assert certify(glued).is_sphere(3)


class TestHomologyInvariance:
    def test_realizations_preserve_host_homology(self):
        manifest = build_aztec(3, 1).manifest
        from sphereforge import join_of_paths

        host = join_of_paths((4, 4)).complex
        base = betti_gf2(host)
        for bits in ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)):
            assert betti_gf2(realize(manifest, bits)) == base


class TestSamplesFlag:
    def test_generate_with_samples_and_seed(self, tmp_path, capsys, monkeypatch):
        from sphereforge import cli
        from sphereforge.sampling import choice_vector

        realized = []

        def recording_realize(manifest, bits):
            realized.append(tuple(bits))
            return realize(manifest, bits)

        monkeypatch.setattr(cli, "realize", recording_realize)
        out = tmp_path / "s.json"
        code = main(
            ["generate", "holes4", "--n", "5", "-o", str(out), "--samples", "3", "--seed", "9"]
        )
        assert code == 0
        assert "certificate sphere(3)" in capsys.readouterr().out
        b = len(realized[0])
        assert realized == [(0,) * b] + [choice_vector(9, t, b) for t in range(3)]

    def test_a_failing_sample_is_named_on_stderr(self, tmp_path, capsys, monkeypatch):
        from dataclasses import replace

        from sphereforge import cli

        calls = []

        def certify_failing_sample_1(x):
            cert = certify(x)
            calls.append(cert)
            # call 1 certifies the zero realization, call t + 2 sample t
            return replace(cert, kind="neither") if len(calls) == 3 else cert

        monkeypatch.setattr(cli, "certify", certify_failing_sample_1)
        argv = ["generate", "holes4", "--n", "5", "--samples", "3", "--seed", "9"]
        code = main(argv + ["-o", str(tmp_path / "bad.json")])
        bad = capsys.readouterr()
        assert code == 2
        assert bad.err == "sample 1 certified neither(3), expected sphere(3)\n"

        monkeypatch.setattr(cli, "certify", certify)
        assert main(argv + ["-o", str(tmp_path / "good.json")]) == 0
        good = capsys.readouterr()
        assert good.err == ""
        assert bad.out == good.out
