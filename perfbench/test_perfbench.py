"""
Self-test of the benchmark harness: every workload at tiny shapes, plain
and traced, must pass its output checks and emit every metric that
BENCHMARK.json names, with its unit, in the result on the last line.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics each workload exercises: they must come out non-zero,
# so a wrapper that catches no calls (a renamed function, a call moved to
# another module) fails here instead of reading as a layer that takes no
# time
EXERCISED = {
    "all": ["tdse.step.us_per_config_step.b1_n1024",
            "tdse.step.us_per_config_step.b32_n1024",
            "tdse.step.us_per_config_step.b16_n8192"],
    "gas_run": ["model.field_at.calls", "model.field_at.s",
                "tdse.step.calls", "tdse.step.s", "tdse.step.self_s",
                "tdse.fft.calls", "tdse.fft.s", "tdse.fft.bytes_computed",
                "tdse.propagate.self_s", "tdse.ground_state.s",
                "tdse.us_per_config_step", "ensemble.run_ensemble.s",
                "ensemble.block_s.max", "storage.write_wavefunctions.s",
                "storage.write_wavefunctions.bytes", "storage.write_map.s",
                "storage.sha256_of.bytes"],
    "records_analysis": [
        "ensemble.purity.calls", "ensemble.purity.s",
        "ensemble.purity.gflop_computed", "ensemble.purity_series.s",
        "ensemble.density_matrix_map.s",
        "ensemble.probability_density_map.s", "spectra.gabor.s",
        "spectra.gabor.terms_computed", "spectra.hhg_spectrum.s",
        "spectra.fit_purity_decay.s", "semiclassics.find_returns.calls",
        "semiclassics.find_returns.s", "semiclassics.max_return_energy.s",
        "semiclassics.find_periodic_orbit.s", "semiclassics.monodromy.calls",
        "semiclassics.monodromy.s", "semiclassics.classical_flow.calls",
        "semiclassics.classical_flow.s", "storage.read_wavefunctions.s",
        "storage.read_wavefunctions.bytes", "storage.read_map.s",
        "storage.sha256_of.s", "storage.sha256_of.bytes", "cli.spectrum.s",
        "cli.density_map.s"],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "5", "--seconds", "0.1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"]
                                      for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        silent = [k for k in EXERCISED["all"] + EXERCISED[workload]
                  if not values[k] > 0]
        assert not silent, f"no calls caught on {workload}: {silent}"
    if trace and workload == "records_analysis":
        # `cmd_sfa` computes each (t_i, ell) pair twice; no propagation
        assert values["semiclassics.find_returns.useful_ratio"] == 0.5
        assert values["tdse.step.calls"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        other = report["other_metrics"]
        assert other["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
        assert ("config_steps_per_s" in other) != ("analysis_s" in other)


def test_refuses_a_tree_without_sources(tmp_path):
    proc = run_bench("gas_run", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
