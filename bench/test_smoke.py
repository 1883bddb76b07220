"""Smoke test of the benchmark at a tiny size, from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Every workload runs with --tiny, untraced and traced, and must print
every metric BENCHMARK.json names with its unit; a traced run must
give a non-zero value exactly for the layers its workload reaches.  A deliberately
perturbed value must trip each correctness gate, and the benchmark
must refuse to run where the fsosec sources are missing.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fsosec.secrecy as secrecy  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fsosec.mc import McConfig, mc_asc  # noqa: E402


# per-layer metrics a workload does not reach, by name prefix; they
# read 0, every other per-layer metric must not
_UNREACHED = {
    "analytic-sweep": ("fading.sample_ht.", "mc."),
    "mc-sweep": ("quadrature.", "secrecy.", "specfun.", "fading.pdf",
                 "fading.cdf"),
    "edge-scenarios": ("fading.sample_ht.", "mc.", "cli.", "config.",
                       "turbulence.", "atmosphere."),
}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170,
                          check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in named}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        zero = {name for name, v in values.items() if v == 0}
        assert zero == {name for name in values
                        if name.startswith(_UNREACHED[workload])}
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "edge-scenarios", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_speed_cancels_a_slower_core():
    def iteration(slowdown, rest_ms):
        lat = {"p": 100.0 * slowdown, "q": 300.0 * slowdown}
        cal = {"p": 2.0 * slowdown, "q": 2.0 * slowdown}
        wall = 1e-3 * (sum(lat.values()) + sum(cal.values())
                       + rest_ms * slowdown)
        return workloads.Iteration(wall, lat, cal, 2, 0)

    k = run.REFERENCE_KERNEL_S
    wall, point_ms = run.reference_pass([iteration(1.0, 4.0)])
    assert point_ms == pytest.approx([50e3 * k, 150e3 * k])
    assert wall == pytest.approx(202.0 * k)
    slowed = run.reference_pass(
        [iteration(1.7, 4.0), iteration(1.0, 4.0), iteration(2.0, 4.0)])
    assert slowed[0] == pytest.approx(wall)
    assert slowed[1] == pytest.approx(point_ms)


def _edge_values(scenario):
    values = {}
    for key, name, kwargs in workloads._EDGE_CALLS:
        mv = getattr(secrecy, name)(scenario, **kwargs)
        values[key] = (mv.value, mv.error)
    return values


def test_perturbed_route_trips_the_route_gate():
    draw = {"a": 2.5, "b": 4.0, "mean_snr": 30.0, "eve_ratio_db": -6.0,
            "rate": 0.0}
    values = _edge_values(workloads.edge_scenario(draw))
    assert workloads.route_gate(values, 0.0) == set()
    for key in (("asc", "closed_form"), ("spsc", "quadrature")):
        value, error = values[key]
        bumped = dict(values)
        bumped[key] = (value + 1e-6 + 10.0 * error, error)
        assert key in workloads.route_gate(bumped, 0.0)


def test_perturbed_route_counts_as_failed_op(monkeypatch, tmp_path):
    edge = workloads.EdgeScenarios(ROOT, 5, tmp_path, tiny=True)
    edge.prepare()
    assert edge.run().failed == 0
    real = secrecy.asc_closed_form

    def perturbed(scenario, **kwargs):
        mv = real(scenario, **kwargs)
        return dataclasses.replace(mv, value=mv.value * 1.001 + 1e-6)

    monkeypatch.setattr(secrecy, "asc_closed_form", perturbed)
    it = edge.run()
    assert it.failed == 2 * edge.points
    assert it.attempted == 7 * edge.points


def test_perturbed_sample_mean_trips_the_mc_gate():
    draw = {"a": 2.5, "b": 4.0, "mean_snr": 30.0, "eve_ratio_db": -6.0,
            "rate": 0.5}
    scenario = workloads.edge_scenario(draw)
    reference = {"asc": secrecy.asc_quadrature(scenario).value,
                 "sop": 0.0, "spsc": 1.0}
    n = 20000
    est = mc_asc(scenario, McConfig(samples=n, seed=11))
    key = ("asc", "monte_carlo")
    assert workloads.mc_gate({key: (est.mean, est.std_error)}, reference,
                             n) == set()
    allow = max(0.01 * reference["asc"], 3.0 * est.std_error)
    assert workloads.mc_gate({key: (est.mean + 1.5 * allow, est.std_error)},
                             reference, n) == {key}
