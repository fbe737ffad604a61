"""The benchmark's workloads run against this package at reduced sizes.

perfbench/workloads.py drives the package through its public entry points
and the types they return (an ensemble that iterates over bundles, takes
integer indices and slices, and is accepted by every entry point).  A
change to those types fails here rather than in a benchmark run.
"""

import importlib.util
import types
from pathlib import Path

import pytest

from tcfbsde import cash, fbsde

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


wl = _workloads()


class SmallCertify(wl.Certify):
    ENSEMBLE = 256


class SmallCost(wl.Cost):
    ENSEMBLE = 512


class SmallLsmc(wl.Lsmc):
    REFERENCE = 512


@pytest.mark.parametrize("workload", [SmallCertify, SmallCost, SmallLsmc],
                         ids=["certify", "cost", "lsmc"])
def test_workload_runs_and_checks(workload):
    w = workload(0, types.SimpleNamespace(cash=cash, fbsde=fbsde))
    w.setup(0)
    out = w.run(0)
    assert w.steps(0) > 0
    assert w.check(0, out) == []
