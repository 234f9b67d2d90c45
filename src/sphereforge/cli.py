"""Command-line entry point wiring generation, filling, realization,
lifting, hulls and verification into reproducible pipelines.

Exit codes: 0 on success, 2 when a verification or certification fails,
1 on usage or input errors.  All randomness flows from --seed through a
fixed counter-based generator (see the sampling module), so identical
invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal

from . import io as sfio
from .carvefill import realize
from .complexes import VertexId
from .constructions import BUILDERS, fill_holes
from .errors import DegenerateInput, InputParseError, SphereforgeError
from .geometry import (
    build_aztec_lift,
    count_degree3_edges,
    delta_search,
    detect_bipyramid_facets,
    hull_with_apex,
    raised_center_target,
    verify_regular,
)
from .sampling import choice_vector, parse_hex_choices
from .topology import BALL, SPHERE, certify, verify_shelling

OK, VERIFY_FAILED, USAGE = 0, 2, 1

# generate kind -> (builder parameters, one integer flag each, and the
# certificate kind of its realizations).  Every flag is required except
# --m, which defaults to --n.
GENERATE_KINDS = {
    "holes4": (("n", "m"), SPHERE),
    "holes3": (("n", "m"), SPHERE),
    "aztec": (("k", "l"), BALL),
    "cyclic": (("n",), SPHERE),
    "highd": (("d", "n"), SPHERE),
    "aztec-hd": (("d", "k", "l"), BALL),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    """The value of a count option: an integer that is not negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def _base_path(out: str) -> str:
    return out[:-5] if out.endswith(".json") else out


def _cmd_generate(args) -> int:
    flags, expected = GENERATE_KINDS[args.kind]
    report = BUILDERS[args.kind](*(getattr(args, f) for f in flags))
    manifest = report.manifest
    base = _base_path(args.output)
    sfio.save_complex(f"{base}.json", manifest.result)
    sfio.save_manifest(f"{base}.manifest.json", manifest)
    zeros = (0,) * manifest.n_free_cells
    realized = realize(manifest, zeros)
    sfio.save_complex(f"{base}.realized.json", realized)
    sfio.write_text(f"{base}.report.json", sfio.dumps(sfio.report_to_obj(report)))
    summary = (
        f"{report.name}: {report.free_cell_count} free cells, "
        f"{report.simplex_cell_count} simplices, {report.vertex_count} vertices"
    )
    dim = manifest.result.dim
    cert = certify(realized)
    ok = cert.kind == expected and cert.dim == dim
    for t in range(args.samples):
        c = certify(realize(manifest, choice_vector(args.seed, t, manifest.n_free_cells)))
        if c.kind != expected or c.dim != dim:
            ok = False
            print(
                f"sample {t} certified {c.kind}({c.dim}), expected {expected}({dim})",
                file=sys.stderr,
            )
    print(f"{summary}, certificate {cert.kind}({cert.dim})")
    return OK if ok else VERIFY_FAILED


def _cmd_fill(args) -> int:
    manifest = fill_holes(sfio.load_simplicial(args.input), sfio.load_holes(args.holes))
    sfio.save_manifest(args.output, manifest)
    print(f"filled {len(manifest.holes)} holes, {manifest.n_free_cells} free cells")
    return OK


def _cmd_realize(args) -> int:
    manifest = sfio.load_manifest(args.manifest)
    b = manifest.n_free_cells
    if args.choices is not None:
        try:
            bits = parse_hex_choices(args.choices, b)
        except ValueError as exc:
            raise InputParseError(str(exc)) from exc
    elif args.random:
        bits = choice_vector(args.seed, args.index, b)
    else:
        bits = (0,) * b
    realized = realize(manifest, bits)
    sfio.save_complex(args.output, realized)
    print(f"realized {b} cells -> {realized.n_facets} facets")
    return OK


def _cmd_verify_sphere(args) -> int:
    """``verify sphere`` and ``verify ball``: ``args.what`` is the kind to certify."""
    x = sfio.load_simplicial(args.input)
    cert = certify(x)
    obj = sfio.certificate_to_obj(cert)
    print(sfio.dumps(obj).rstrip())
    if args.report:
        sfio.write_text(args.report, sfio.dumps(obj))
    return OK if cert.kind == args.what else VERIFY_FAILED


def _cmd_verify_shelling(args) -> int:
    x = sfio.load_simplicial(args.input)
    order = sfio.load_order(args.order)
    ok = verify_shelling(x, order)
    print("shelling accepted" if ok else "shelling rejected")
    return OK if ok else VERIFY_FAILED


def _cmd_verify_regular(args) -> int:
    data = sfio.load_lift_data(args.input)
    config = data["config"]
    ok = verify_regular(config.points, config.heights, data["subdivision"])
    print("regular subdivision verified" if ok else "regularity check failed")
    return OK if ok else VERIFY_FAILED


def _cmd_lift(args) -> int:
    lift = build_aztec_lift(args.k, args.l)
    sfio.save_lift(args.output, lift)
    print(
        f"lift certified with eps={lift.eps}; "
        f"{len(lift.subdivision)} cells, {lift.manifest.n_free_cells} bipyramids"
    )
    return OK


def _cmd_hull(args) -> int:
    config = sfio.load_lift_data(args.input)["config"]
    apex = VertexId.cone()
    if apex in config.heights:
        raise InputParseError(f"lift point label {apex.label} is reserved for the apex")
    pts = [(v, p + (config.heights[v],)) for v, p in config.points]
    if any(len(p) != 4 for _, p in pts):
        raise DegenerateInput("facet classification expects a 4-dimensional hull")
    facets, apex_pt = hull_with_apex(pts, apex)
    pts.append((apex, apex_pt))
    count, kinds = detect_bipyramid_facets(facets, pts)
    print(f"bipyramids: {count}")
    print(f"facets: {len(facets)} (simplices {kinds.count('simplex')}, other {kinds.count('other')})")
    if args.output:
        sfio.write_text(args.output, sfio.dumps(sfio.hull_to_obj(facets, kinds, pts)))
    return OK


def _cmd_degree3(args) -> int:
    data = sfio.load_lift_data(args.input)
    if data["kind"] != "aztec":
        raise InputParseError("degree3 expects an aztec lift file")
    if not all(type(data[key]) is int for key in ("k", "l")):
        raise InputParseError("degree3 needs integer k and l in the lift file")
    mismatch = InputParseError("lift file does not match its regenerated lift")
    k, l = data["k"], data["l"]
    # The lift of Aztec (k, l) has 2(kl + 1) path points and l^2 hole
    # centers; refuse a file that cannot match before building the lift.
    if len(data["config"].points) != 2 * (k * l + 1) + l * l:
        raise mismatch
    lift = build_aztec_lift(k, l)
    regenerated = (lift.config, lift.subdivision, lift.eps, lift.coarse, lift.fine)
    if regenerated != tuple(data[key] for key in ("config", "subdivision", "eps", "coarse", "fine")):
        raise mismatch
    target = raised_center_target(lift.manifest)
    delta, heights = delta_search(lift, target)
    degree3 = count_degree3_edges(target)
    guaranteed = (2 * lift.k - 6) * lift.l * lift.l
    print(f"degree-3 edges: {degree3} (guaranteed {guaranteed}), delta={delta}")
    if args.output:
        obj = sfio.degree3_to_obj(delta, degree3, guaranteed, heights)
        sfio.write_text(args.output, sfio.dumps(obj))
    return OK


def _cmd_count(args) -> int:
    manifest = sfio.load_manifest(args.manifest)
    for hole in manifest.holes:
        print(f"hole {sfio.key_label(hole.key)}: {len(hole.cells)} free cells")
    b = manifest.n_free_cells
    # Decimal prints an int of any size; str refuses one over 4300 digits
    print(f"total: {b} free cells, 2^{b} = {Decimal(2 ** b)} realizations")
    return OK


def _cmd_export_off(args) -> int:
    x = sfio.load_simplicial(args.input)
    coords = dict(sfio.load_lift_data(args.lift)["config"].points)
    flat = [(v, len(p)) for v, p in coords.items() if len(p) != 3]
    if flat:
        v, n = flat[0]
        raise InputParseError(f"export off needs 3-D points; point {v.label} has {n} coordinates")
    text, sidecar = sfio.off_export(x, coords)
    sfio.write_text(args.output, text)
    sidecar_path = args.output + ".exact.json"
    sfio.write_text(sidecar_path, sfio.dumps(sidecar))
    print(f"wrote {args.output} (+ exact sidecar)")
    return OK


def build_parser() -> _Parser:
    p = _Parser(prog="sphereforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a named construction")
    gsub = gen.add_subparsers(dest="kind", required=True)
    for kind, (flags, _) in GENERATE_KINDS.items():
        g = gsub.add_parser(kind)
        for flag in flags:
            g.add_argument(f"--{flag}", type=int, required=flag != "m")
        g.add_argument("-o", "--output", required=True)
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--samples", type=_count, default=0,
                       help="additionally certify this many seeded realizations")
        g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("fill", help="carve and fill explicit holes")
    f.add_argument("--input", required=True)
    f.add_argument("--holes", required=True)
    f.add_argument("-o", "--output", required=True)
    f.set_defaults(func=_cmd_fill)

    r = sub.add_parser("realize", help="triangulate the free cells of a manifest")
    r.add_argument("--manifest", required=True)
    r.add_argument("--choices", help="hex bitstring, bit j selects cell j")
    r.add_argument("--random", action="store_true")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--index", type=_count, default=0)
    r.add_argument("-o", "--output", required=True)
    r.set_defaults(func=_cmd_realize)

    v = sub.add_parser("verify", help="certify spheres, balls, shellings, lifts")
    vsub = v.add_subparsers(dest="what", required=True)
    for kind in (SPHERE, BALL):
        vs = vsub.add_parser(kind)
        vs.add_argument("input")
        vs.add_argument("--report")
        vs.set_defaults(func=_cmd_verify_sphere)
    vk = vsub.add_parser("shelling")
    vk.add_argument("input")
    vk.add_argument("order")
    vk.set_defaults(func=_cmd_verify_shelling)
    vr = vsub.add_parser("regular")
    vr.add_argument("input")
    vr.set_defaults(func=_cmd_verify_regular)

    li = sub.add_parser("lift", help="certified regular lifts")
    lsub = li.add_subparsers(dest="what", required=True)
    la = lsub.add_parser(
        "aztec",
        description="Build and certify the regular lift of Aztec (k, l).  With the "
        "built-in coordinates -k, -k+2, ..., k the lift certifies for k in {3, 5, 7}; "
        "for larger k its split heights stop increasing, the lift fails its own "
        "regularity check and the command exits 1 without writing a file.",
    )
    la.add_argument("--k", type=int, required=True, help="odd; certifies for 3, 5 and 7")
    la.add_argument("--l", type=int, required=True)
    la.add_argument("-o", "--output", required=True)
    la.set_defaults(func=_cmd_lift)

    h = sub.add_parser("hull", help="exact hull of a lifted configuration plus an apex")
    h.add_argument("--input", required=True)
    h.add_argument("-o", "--output")
    h.set_defaults(func=_cmd_hull)

    d3 = sub.add_parser("degree3", help="raise hole centers, count degree-3 edges")
    d3.add_argument("--input", required=True)
    d3.add_argument("-o", "--output")
    d3.set_defaults(func=_cmd_degree3)

    c = sub.add_parser("count", help="free-cell counts of a manifest")
    c.add_argument("--manifest", required=True)
    c.set_defaults(func=_cmd_count)

    e = sub.add_parser("export", help="export artifacts")
    esub = e.add_subparsers(dest="what", required=True)
    eo = esub.add_parser("off")
    eo.add_argument("--input", required=True, help="realized complex JSON")
    eo.add_argument("--lift", required=True, help="lift JSON providing coordinates")
    eo.add_argument("-o", "--output", required=True)
    eo.set_defaults(func=_cmd_export_off)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    try:
        return args.func(args)
    except InputParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE
    except SphereforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
