"""Layer spans recorded from outside the package, by wrapping its public
functions for the length of a traced pass.

A layer is one module of ``sphereforge``.  Each wrapped call records a
span ``(layer, start, end, depth)``; a layer's self time is the time in
which one of its spans is the innermost one running, so nested spans of
the same layer count once and a child's time is charged to the child.
"""

from __future__ import annotations

import heapq
import inspect
import sys
import time
from math import comb

# module -> attributes wrapped in it.  ``sampling`` and ``errors`` do
# negligible work and are left to their callers' self time.
WRAPPED = {
    "cli": ("main",),
    "constructions": (
        "build_holes4",
        "build_aztec",
        "build_cyclic",
        "build_highd",
        "build_aztec_highd",
    ),
    "grid": (
        "join_of_paths",
        "diagonal_band",
        "aztec_crosspolytope",
        "is_grid_starconvex",
        "boundary_members",
        "band_cell_order",
    ),
    "carvefill": (
        "BallInComplex.of",
        "CompatibleFamily.of",
        "carve_and_fill",
        "realize",
    ),
    "complexes": (
        "SimplicialComplex.from_facets",
        "PolyComplex.from_cells",
        "boundary_complex",
    ),
    "topology": ("certify", "verify_shelling"),
    "geometry": (
        "build_aztec_lift",
        "aztec_lift",
        "eps_search",
        "verify_regular",
        "delta_search",
        "raise_centers",
        "hull_with_apex",
        "convex_hull_brute",
        "detect_bipyramid_facets",
    ),
    "io": (
        "save_complex",
        "save_manifest",
        "write_text",
        "dumps",
        "load_lift_data",
        "load_manifest",
    ),
}
LAYERS = tuple(WRAPPED)

# ``cli.main`` is reported per subcommand, for the subcommands the
# workloads run.
CLI_COMMANDS = ("generate", "lift", "verify", "degree3", "hull")


def _subsets(a, r):
    pts = a["pts"]
    return comb(len(pts), len(pts[0][1])) if pts else 0


# Work counts taken from a call's bound arguments and result:
# (layer, function) -> (counter suffix, count).
WORK = {
    ("topology", "certify"): ("facets", lambda a, r: a["x"].n_facets),
    ("carvefill", "realize"): ("facets", lambda a, r: r.n_facets),
    ("geometry", "verify_regular"): ("cells", lambda a, r: len(a["sub"].cells)),
    ("geometry", "convex_hull_brute"): ("subsets", _subsets),
    ("io", "write_text"): ("bytes", lambda a, r: len(a["text"].encode())),
}


def function_names() -> list[str]:
    """The ``<layer>.<function>`` names whose calls and time are reported."""
    names = []
    for layer, attrs in WRAPPED.items():
        if layer == "cli":
            names += [f"cli.main.{cmd}" for cmd in CLI_COMMANDS]
        else:
            names += [f"{layer}.{attr}" for attr in attrs]
    return names


def work_names() -> list[tuple[str, str]]:
    """The work counters and their units."""
    return [(f"{layer}.{fn}.{suffix}", suffix) for (layer, fn), (suffix, _) in WORK.items()]


class Tracer:
    """Records spans and per-function counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self._depth = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, attr: str, fn):
        fname = attr.rsplit(".", 1)[-1]
        work = WORK.get((layer, fname))
        signature = inspect.signature(fn) if work else None
        per_command = layer == "cli"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if per_command:
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.main.{argv[0] if argv else ''}"
            else:
                name = f"{layer}.{attr}"
            self.calls[name] = self.calls.get(name, 0) + 1
            depth = self._depth
            self._depth = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._depth = depth
                self.spans.append((layer, start, end, depth))
                self.inclusive[name] = self.inclusive.get(name, 0.0) + end - start
            if work:
                suffix, count = work
                bound = signature.bind(*args, **kwargs).arguments
                key = f"{name}.{suffix}"
                self.work[key] = self.work.get(key, 0) + count(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED, at every binding of it in the
        package: modules bind some of them with ``from .x import y`` at
        import time, and ``constructions.BUILDERS`` holds the builders."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sphereforge" or name.startswith("sphereforge."))
        ]
        for layer, attrs in WRAPPED.items():
            module = sys.modules[f"sphereforge.{layer}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(layer, attr, raw.__func__))
                    self._set(cls, meth, wrapped)
                    continue
                fn = getattr(module, attr)
                wrapped = self._wrap(layer, attr, fn)
                for m in modules:
                    if m.__dict__.get(attr) is fn:
                        self._set(m, attr, wrapped)
                    for value in m.__dict__.values():
                        if type(value) is dict and fn in value.values():
                            for key, v in list(value.items()):
                                if v is fn:
                                    self._undo.append((value, key, v))
                                    value[key] = wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take_spans(self) -> list[tuple[str, float, float, int]]:
        spans, self.spans = self.spans, []
        return spans


def layer_self_times(spans) -> dict[str, float]:
    """Seconds in which each layer's span is the innermost one running.

    ``spans`` holds ``(layer, start, end, depth)``.  The innermost span at
    an instant is the one that started last; a deeper span wins a tie in
    start time.  Overlapping siblings therefore split their overlap, and
    a layer nested inside itself is counted once.
    """
    events = []
    for i, (layer, start, end, depth) in enumerate(spans):
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()
    out: dict[str, float] = {}
    active: list[tuple[float, int, int]] = []
    ended: set[int] = set()
    prev = None
    for t, opening, i in events:
        while active and -active[0][2] in ended:
            heapq.heappop(active)
        if active and prev is not None and t > prev:
            layer = spans[-active[0][2]][0]
            out[layer] = out.get(layer, 0.0) + (t - prev)
        prev = t
        if opening:
            _, start, _, depth = spans[i]
            heapq.heappush(active, (-start, -depth, -i))
        else:
            ended.add(i)
    return out
