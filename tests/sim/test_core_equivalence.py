"""Bit-identity of the inlined DRAM core and the scheduler-service core.

Every run goes through ``MemoryPipeline.run_batch``, but a DRAM
transfer reaches the bus one of two ways.  On a channel whose
discipline is a plain :class:`~repro.memory.sched.FIFOScheduler` and
that has no observer (``fifo_fast``), the pipeline and the MEE's
emitters inline the occupancy arithmetic.  On every other channel the
transfer goes through ``DRAMChannel.service`` and its scheduler.  A
FIFO discipline that is not a ``FIFOScheduler`` takes the second route
with the same arithmetic, so the two cores must be *indistinguishable*
in results — every serialised field byte-equal — across the scheme zoo
and across workload shapes the batch boundary cares about: multi-kernel
suites, composed suites whose ``barrier: false`` phases merge into one
kernel batch, and kernels with zero accesses (an empty batch must
advance kernel bookkeeping without issuing anything).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.eval.results_io import serialize_run_result
from repro.sim import gpu as gpu_mod
from repro.sim.runner import Runner
from repro.workloads.base import Workload
from tests.conftest import RecordingScheduler

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parents[1] / "golden" / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

SCALE = 0.05

SCHEMES = ["naive", "pssm", "shm", "shm_cctr", "shm_vl2"]


def _run(core: str, workload, scheme: str):
    """One serialised run on the requested core; ``workload`` is a
    suite name or a custom :class:`Workload`."""
    runner = Runner(scale=SCALE)
    if isinstance(workload, Workload):
        runner.add_workload(workload)
        name = workload.name
    else:
        name = workload
    if core == "inline":
        return serialize_run_result(runner.run(name, scheme))
    assert core == "service", core
    log = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gpu_mod, "build_scheduler",
                   lambda gpu: RecordingScheduler(log))
        result = serialize_run_result(runner.run(name, scheme))
    assert log  # the transfers really went through ``service``
    return result


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cores_agree_on_a_suite_workload(scheme):
    assert _run("service", "atax", scheme) == _run("inline", "atax", scheme)


@pytest.mark.parametrize("scheme", ["naive", "shm"])
def test_cores_agree_on_a_composed_barrier_false_suite(scheme):
    workload = generate.composed_suite()
    assert (_run("service", workload, scheme)
            == _run("inline", workload, scheme))


@pytest.mark.parametrize("scheme", ["pssm", "shm"])
def test_cores_agree_on_zero_access_kernels(scheme):
    workload = generate.zero_access_workload()
    assert (_run("service", workload, scheme)
            == _run("inline", workload, scheme))


def test_zero_access_kernels_run_to_completion():
    # An empty batch must neither crash nor contribute cycles beyond
    # its kernel-boundary bookkeeping.
    runner = Runner(scale=SCALE)
    workload = generate.zero_access_workload()
    runner.add_workload(workload)
    result = runner.run(workload.name, "shm")
    assert result.cycles > 0
    assert result.traffic.data_bytes > 0
