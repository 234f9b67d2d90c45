"""The benchmark's workloads: what one pass runs, and the known answer
each operation is checked against.

Every workload is a closed loop with one client: an operation starts
when the previous one has returned.  ``generate`` and ``geometry`` drive
``sphereforge.cli.main`` in-process; ``sample`` calls ``realize`` and
``certify`` directly, as ``generate --samples`` does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

KNOWN_ARTIFACTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "known_artifacts.json")


@dataclass
class Op:
    """One operation of a pass.  ``run`` is timed; ``check`` is not, and
    returns None when the result is the known answer, else a message.
    Negative controls have ``job=None`` and count in no job time.  A
    workload's ``parts[job]`` ops of a job in one pass (default 1) make
    one sample of that job's time."""

    job: str | None
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_cli(expect_code: int, expect_stdout: str, artifacts: dict[str, str] | None = None):
    """A check that the exit code, the whole standard output and the
    SHA-256 of each named artifact file are the known ones."""

    def check(result) -> str | None:
        code, out, err = result
        if code != expect_code:
            return f"exit code {code}, expected {expect_code}: {err.strip()}"
        if out != expect_stdout:
            return f"stdout {out!r}, expected {expect_stdout!r}"
        for path, digest in (artifacts or {}).items():
            got = sha256_file(path)
            if got != digest:
                return f"{os.path.basename(path)} has SHA-256 {got}, expected {digest}"
        return None

    return check


def ehrhart_crosspolytope(d: int, x: int) -> int:
    """Lattice points of x times the d-dimensional crosspolytope."""
    return sum(2 ** i * comb(d, i) * comb(x, i) for i in range(d + 1))


def aztec_free_cells(k: int, l: int) -> int:
    return (2 * k - 2) * l * l


def aztec_hd_free_cells(d: int, k: int, l: int) -> int:
    shell = ehrhart_crosspolytope(d, (k - 1) // 2) - ehrhart_crosspolytope(d, (k - 3) // 2)
    return shell * l ** d


# ---------------------------------------------------------------------------
# generate

# job -> (argv after "generate", construction name, free cells, simplices,
# vertices, certificate, runs per pass).  Free cells of the Aztec families
# come from their formulas; the other counts were recorded from the
# package.  Jobs that take under a second run more than once per pass.
GENERATE_JOBS = {
    "holes4": (["holes4", "--n", "81"], "holes4", 3121, 715, 203, "sphere(3)", 1),
    "cyclic": (["cyclic", "--n", "20"], "cyclic", 1500, 160, 100, "sphere(3)", 1),
    "highd": (["highd", "--d", "3", "--n", "8"], "highd", 86, 690, 30, "sphere(5)", 2),
    "aztec": (["aztec", "--k", "7", "--l", "4"], "aztec", aztec_free_cells(7, 4), 384, 74, "ball(3)", 4),
    "aztec_hd": (
        ["aztec-hd", "--d", "3", "--k", "3", "--l", "2"],
        "aztec_highd",
        aztec_hd_free_cells(3, 3, 2),
        160,
        29,
        "ball(5)",
        2,
    ),
}
ARTIFACT_SUFFIXES = (".json", ".manifest.json", ".realized.json", ".report.json")


def load_known_artifacts() -> dict[str, str]:
    with open(KNOWN_ARTIFACTS) as fh:
        return json.load(fh)


class Generate:
    name = "generate"
    jobs = tuple(GENERATE_JOBS)
    parts: dict[str, int] = {}

    def setup(self, sf, workdir: str) -> None:
        self.cli = sf.cli
        self.workdir = workdir
        self.known = load_known_artifacts()

    def pass_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for job, (args, name, free, simplices, verts, cert, reps) in GENERATE_JOBS.items():
            base = os.path.join(self.workdir, job)
            argv = ["generate", *args, "-o", base + ".json"]
            stdout = (
                f"{name}: {free} free cells, {simplices} simplices, "
                f"{verts} vertices, certificate {cert}\n"
            )
            artifacts = {base + s: self.known[job + s] for s in ARTIFACT_SUFFIXES}
            check = check_cli(0, stdout, artifacts)
            for _ in range(reps):
                ops.append(Op(job, job, lambda argv=argv: call_cli(self.cli, argv), check))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# geometry

LIFTS = ((3, 3), (5, 3), (7, 4))
LIFT_CELLS = {(3, 3): 72, (5, 3): 180, (7, 4): 576}


class Geometry:
    name = "geometry"
    jobs = ("lift", "verify_regular", "degree3", "hull")
    # one sample of the lift job is the three lift commands together
    parts = {"lift": len(LIFTS)}

    def setup(self, sf, workdir: str) -> None:
        self.cli = sf.cli
        self.workdir = workdir
        self.known = load_known_artifacts()

    def _lift_path(self, k: int, l: int) -> str:
        return os.path.join(self.workdir, f"lift_{k}_{l}.json")

    def _raised(self, center: int) -> tuple[int, str, str]:
        """Verify the (5,3) lift with one hole center raised by 1, which
        breaks regularity."""
        with open(self._lift_path(5, 3)) as fh:
            obj = json.load(fh)
        label = f"h:{center}"
        obj["heights"][label] = str(Fraction(obj["heights"][label]) + 1)
        path = os.path.join(self.workdir, "lift_5_3_raised.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return call_cli(self.cli, ["verify", "regular", path])

    def pass_ops(self, rng: random.Random) -> list[Op]:
        lifts = []
        for k, l in LIFTS:
            path = self._lift_path(k, l)
            argv = ["lift", "aztec", "--k", str(k), "--l", str(l), "-o", path]
            stdout = (
                f"lift certified with eps=1/4; {LIFT_CELLS[k, l]} cells, "
                f"{aztec_free_cells(k, l)} bipyramids\n"
            )
            check = check_cli(0, stdout, {path: self.known[os.path.basename(path)]})
            lifts.append(Op("lift", f"lift_{k}_{l}", lambda argv=argv: call_cli(self.cli, argv), check))
        rng.shuffle(lifts)

        def cli_op(job, argv, stdout, code=0, reps=1):
            check = check_cli(code, stdout)
            return [Op(job, job, lambda: call_cli(self.cli, argv), check)] * reps

        readers = (
            cli_op("verify_regular", ["verify", "regular", self._lift_path(7, 4)],
                   "regular subdivision verified\n", reps=3)
            + cli_op("degree3", ["degree3", "--input", self._lift_path(5, 3)],
                     "degree-3 edges: 72 (guaranteed 36), delta=1/8\n", reps=2)
            + cli_op("hull", ["hull", "--input", self._lift_path(3, 3)],
                     "bipyramids: 36\nfacets: 80 (simplices 40, other 4)\n")
        )
        center = rng.randint(1, 9)
        readers.append(
            Op(None, f"raised_center_{center}", lambda: self._raised(center),
               check_cli(2, "regularity check failed\n"))
        )
        rng.shuffle(readers)
        return lifts + readers


# ---------------------------------------------------------------------------
# sample

# job -> (builder, arguments, free cells, dimension, positive vectors per pass)
SAMPLE_JOBS = {
    "sample_holes4": ("build_holes4", (41, 41), 761, 3, 4),
    "sample_highd": ("build_highd", (3, 8), 86, 5, 2),
}


def _kind(cert) -> str:
    return f"{cert.kind}({cert.dim})"


def expect_kind(kind: str):
    def check(cert) -> str | None:
        got = _kind(cert)
        return None if got == kind else f"certified {got}, expected {kind}"

    return check


class Sample:
    name = "sample"
    jobs = tuple(SAMPLE_JOBS)
    parts: dict[str, int] = {}

    def setup(self, sf, workdir: str) -> None:
        # the package's functions are looked up at call time, so that the
        # traced run sees them wrapped
        self.sf = sf
        self.manifests = {}
        for job, (builder, args, free, dim, _) in SAMPLE_JOBS.items():
            manifest = getattr(sf.constructions, builder)(*args).manifest
            if manifest.n_free_cells != free or manifest.result.dim != dim:
                raise RuntimeError(f"{job}: unexpected manifest")
            self.manifests[job] = manifest

    def _realize_certify(self, job: str, bits):
        return self.sf.topology.certify(self.sf.carvefill.realize(self.manifests[job], bits))

    def _certify_minus(self, job: str, bits, picks: tuple[int, ...]):
        """Certify a realization minus one facet, or minus two facets that
        share no vertex."""
        x = self.sf.carvefill.realize(self.manifests[job], bits)
        facets = list(x.sorted_facets)
        drop = [facets[picks[0] % len(facets)]]
        if len(picks) > 1:
            disjoint = [f for f in facets if not f.vset & drop[0].vset]
            drop.append(disjoint[picks[1] % len(disjoint)])
        rest = self.sf.complexes.SimplicialComplex.from_facets(f for f in facets if f not in drop)
        return self.sf.topology.certify(rest)

    def pass_ops(self, rng: random.Random) -> list[Op]:
        ops = []
        for job, (_, _, free, dim, reps) in SAMPLE_JOBS.items():
            sphere = expect_kind(f"sphere({dim})")
            for _ in range(reps):
                bits = tuple(rng.getrandbits(1) for _ in range(free))
                ops.append(Op(job, job, lambda j=job, b=bits: self._realize_certify(j, b), sphere))
            bits = tuple(rng.getrandbits(1) for _ in range(free))
            one = (rng.getrandbits(32),)
            two = (rng.getrandbits(32), rng.getrandbits(32))
            ops.append(Op(None, f"{job}_minus_one", lambda j=job, b=bits, p=one: self._certify_minus(j, b, p),
                          expect_kind(f"ball({dim})")))
            ops.append(Op(None, f"{job}_minus_two", lambda j=job, b=bits, p=two: self._certify_minus(j, b, p),
                          expect_kind(f"neither({dim})")))
        return ops


WORKLOADS = {w.name: w for w in (Generate, Sample, Geometry)}
