"""The benchmark's workloads run against this tree, each operation through its own check.

``bench/workloads.py`` drives stabcert through its public entry points and
pins check names (``pointwise_curvature_inequality``,
``quadform/quadform_lower_bound``, ``barrier[*]/barrier_ode_residual``), so a
renamed entry point or check fails here instead of only in a benchmark run.
Every function the benchmark's tracer wraps must still exist, or its
per-layer metrics read zero; the few deleted from stabcert (``stabcert.quadmin``
is gone as a module) are pinned here by name.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_checked(workload, ops) -> None:
    for op in ops:
        op.check(op.run())
    workload.end_pass()


def test_certify_all_verify_op(tmp_path):
    workload = workloads.CertifyAll(seed=0, workdir=tmp_path / "certify-all")
    workload.prepare()
    ops = [op for op in workload.ops() if op.label == "verify-all"]
    assert len(ops) == 1
    run_checked(workload, ops)
    assert workload.delta0_ratios == [pytest.approx(1.0)]


def test_search_sweep_one_seed(tmp_path):
    workload = workloads.SearchSweep(seed=0, workdir=tmp_path / "search-sweep")
    workload.prepare()
    ops = workload.ops()[: len(workloads.SearchSweep.RUNS)]
    assert len({op.label.rpartition("seed=")[2] for op in ops}) == 1
    run_checked(workload, ops)
    assert len(workload.delta0_ratios) == 1 and workload.delta0_ratios[0] <= 1


def test_recheck_ops(tmp_path):
    workload = workloads.Recheck(seed=0, workdir=tmp_path / "recheck")
    workload.prepare()
    run_checked(workload, workload.ops()[:20])
    assert len(workload.delta0_ratios) == 1


def test_trace_targets_resolve():
    # a missing target reads as zero in its per-layer metrics instead of failing a run
    for module_name in {module_name for module_name, *_ in tracing.TARGETS} - {"stabcert.quadmin"}:
        importlib.import_module(module_name)
    optimize = sys.modules["stabcert.optimize"]
    feasibility = optimize.feasibility
    tracer = tracing.Tracer()
    tracer.install()
    assert optimize.feasibility is not feasibility
    tracer.uninstall()
    assert optimize.feasibility is feasibility
    # deleted from stabcert; the benchmark's target list still names them
    assert sorted(tracer.missing) == [
        "stabcert.bubble.certify_chain",
        "stabcert.curvature.certify_builtin_row",
        "stabcert.curvature.epsilon_of",
        "stabcert.curvature.linearity_check",
        "stabcert.quadmin.f_min_coefficient",
    ]
    # the tracer binds the sample counts of these by parameter name
    for module_name, attr in (("stabcert.curvature", "curvature_sample_check"),
                              ("stabcert.bubble", "quadform_lower_bound_check"),
                              ("stabcert.bubble", "barrier_ode_check")):
        assert "sample_count" in inspect.signature(getattr(sys.modules[module_name], attr)).parameters
