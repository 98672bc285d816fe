"""Each benchmark workload still sets up, passes its input checks and runs.

The benchmark calls library constructors and functions directly, so a change
to their signatures breaks it; this catches that without a timed run.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("name", ["finetune-512", "predict-2048", "pretrain-1024"])
def test_workload_sets_up_and_runs(workloads, tmp_path, name):
    assert set(workloads.WORKLOADS) == {"finetune-512", "predict-2048", "pretrain-1024"}
    workload = workloads.WORKLOADS[name](seed=1, workdir=str(tmp_path))
    workload.setup()
    assert workload.check_inputs() == []
    if name == "predict-2048":
        phase = workload.run(2)
        assert phase.failed == 0 and phase.problems == []
        assert workload.verify() == []
    else:
        workload.warm_step()
