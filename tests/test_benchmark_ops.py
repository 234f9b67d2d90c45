"""The benchmark's own operations, run once each under its tracer.

``perfbench/run.py`` times these operations and refuses a run in which
one fails its check, but only a benchmark run executes them.  One untimed
pass of each workload here catches a package change that breaks an
operation, such as a negative control of ``sample``, or a name the
tracer wraps.
"""

import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_pass_of_every_workload_passes_its_checks(name, tmp_path):
    # the modules already imported, not the fresh import run.py makes, so
    # the other tests keep their classes
    sf = SimpleNamespace(**{m: importlib.import_module(f"sphereforge.{m}") for m in run.PACKAGE_MODULES})
    workload = workloads.WORKLOADS[name]()
    workload.setup(sf, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer:
        for op in workload.pass_ops(random.Random(7)):
            assert op.check(op.run()) is None, op.label
    assert tracer.calls
