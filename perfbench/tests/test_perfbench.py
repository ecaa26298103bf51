"""Self-test of the benchmark on tiny instance sets.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import checkout  # noqa: E402
import setup_probe  # noqa: E402

exactspca = checkout.use_checkout_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload runs its warm-up instances, with one set-up probe."""
    for name, specs in workloads.WARMUP_SPECS.items():
        monkeypatch.setitem(workloads.SPECS, name, specs)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _run(capsys, workload: str, trace: int) -> tuple[dict, str]:
    """The parsed result line and the run's stderr."""
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    captured = capsys.readouterr()
    return json.loads(captured.out.strip().splitlines()[-1]), captured.err


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(tiny, capsys, workload, trace):
    result, _ = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(workloads.SPECS[workload])
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_wrong_objective_is_counted(tiny, capsys, monkeypatch):
    honest = workloads.reference_objective
    monkeypatch.setattr(workloads, "reference_objective",
                        lambda instance: honest(instance) * (1.0 + 1e-6))
    result, err = _run(capsys, "ds-regions", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "reference" in err


def test_raising_solve_is_counted(tiny, capsys, monkeypatch):
    def broken(instance):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(workloads, "warm_up", lambda name, seed, workdir: None)
    monkeypatch.setattr(workloads, "solve", broken)
    result, err = _run(capsys, "spca-cells", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "solver blew up" in err


@pytest.mark.parametrize("solver,d,s", [("cli-spca", 1, 3), ("cli-spca-ds", 2, 2)])
def test_rank_one_closed_form_matches_oracle(tmp_path, solver, d, s):
    spec = workloads.Spec(solver, 7, 1, d, s)
    (instance,) = workloads.generate([spec], 11, 0, tmp_path)
    if spec.disjoint:
        oracle = exactspca.brute_force_spca_ds(instance.kmatrix, d, s).objective
    else:
        oracle = exactspca.brute_force_spca(instance.kmatrix, d, s).objective
    assert workloads.matches(workloads.reference_objective(instance), oracle)


def test_each_pass_draws_fresh_matrices(tmp_path):
    specs = workloads.WARMUP_SPECS["spca-cells"]
    first = workloads.generate(specs, 5, 0, tmp_path)
    again = workloads.generate(specs, 5, 0, tmp_path)
    second = workloads.generate(specs, 5, 1, tmp_path)
    for a, b, c in zip(first, again, second):
        assert np.array_equal(a.kmatrix, b.kmatrix)
        assert not np.array_equal(a.kmatrix, c.kmatrix)


def test_patch_restores_layer_functions():
    spca = sys.modules["exactspca.spca"]
    original = spca.enumerate_cells
    entry = workloads.solve_spca
    tracer = tracing.Tracer()
    patch = tracing.LayerPatch(tracer)
    with pytest.raises(RuntimeError):
        with patch.installed():
            assert spca.enumerate_cells is not original
            assert workloads.solve_spca is not entry
            raise RuntimeError("interrupted solve")
    assert spca.enumerate_cells is original
    assert workloads.solve_spca is entry


def test_patch_traces_the_benchmark_entry_points(tmp_path):
    tracer = tracing.Tracer()
    patch = tracing.LayerPatch(tracer)
    (instance,) = workloads.generate([workloads.Spec("spca", 5, 2, 1, 2)], 4, 0, tmp_path)
    with patch.installed():
        result = workloads.solve(instance)
    calls = tracer.calls()
    assert calls["spca.build"] == calls["spca.solve_spca"] == 1
    assert calls["arrangement.enumerate_cells"] >= 1
    assert tracer.counts["spca.cells"] == result.diagnostics.cells_enumerated > 0


def test_self_times_sum_to_root_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("linalg.solve_pca", exactspca.solve_pca)
    outer = tracer.wrap("spca.solve_spca", lambda a: [inner(a, 1) for _ in range(3)])
    outer(np.eye(4))
    selfs = tracer.self_times()
    root = tracer.ends[0] - tracer.starts[0]
    assert tracer.calls()["linalg.solve_pca"] == 3
    assert sum(selfs.values()) == pytest.approx(root, rel=1e-9)
    assert 0.0 < selfs["spca.solve_spca"] < root


def test_calibration_scales_to_reference_speed():
    ref = calibration.REFERENCE_S
    assert calibration.scale(0.5, ref, ref) == pytest.approx(0.5)
    assert calibration.scale(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert calibration.kernel_seconds() > 0.0
    assert calibration.scale(0.5, 0.2, 0.2, reference=0.1) == pytest.approx(0.25)
    assert setup_probe.kernel_seconds() > 0.0
