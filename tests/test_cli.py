"""Command-line behaviour, exercised in process through cli.main."""
import importlib.util
import json
import hashlib
import math
import warnings
from pathlib import Path

import pytest

import fsosec.cli as cli
from fsosec.cli import fmt_number, main
from fsosec.errors import NonConvergent, PoleCollision
from fsosec.mc import McEstimate, mc_metrics

BASE = """\
[geometry]
wavelength_nm = 1550
satellite_altitude_km = 800
ground_height_m = 10
zenith_angle_deg = 60
divergence_urad = 10
aperture_diameter_cm = 5
eve_separation_m = 2

[atmosphere]
troposphere_db_per_km = 0.002
stratosphere_db_per_km = 0.001
stratosphere_extent_km = 20

[turbulence]
wind_speed_m_s = 21
cn2_ground = 1e-14

[link]
tx_power_w = 1
noise_std_a = 5e-7

[mc]
samples = 8000
seed = 3
"""

SWEEP = BASE + """
[sweep]
variable = geometry.zenith_angle_deg
start = 40
stop = 60
count = 3
"""


@pytest.fixture
def cfg(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE)
    return str(p)


@pytest.fixture
def sweep_cfg(tmp_path):
    p = tmp_path / "sweep.cfg"
    p.write_text(SWEEP)
    return str(p)


def test_fmt_number():
    assert fmt_number(0.5) == "0.5"
    assert fmt_number(1234.25) == "1234.25"
    assert fmt_number(1e-4) == "1.000000e-04"
    assert fmt_number(-2.5e-7) == "-2.500000e-07"
    assert fmt_number(0.0) == "0.000000e+00"
    assert fmt_number(float("nan")) == "nan"
    assert fmt_number(float("inf")) == "inf"
    assert fmt_number(float("-inf")) == "-inf"
    # round-trips exactly in the repr branch
    assert float(fmt_number(0.1 + 0.2)) == 0.1 + 0.2


def test_metrics_stdout(cfg, capsys):
    assert main(["metrics", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "sweep_value,metric,method,value,error,status"
    # 4 quadrature rows + 3 closed-form rows, no sweep coordinate
    assert len(lines) == 8
    assert all(line.split(",")[5] == "ok" for line in lines[1:])
    assert all(line.split(",")[0] == "" for line in lines[1:])
    metrics = {tuple(line.split(",")[1:3]) for line in lines[1:]}
    assert ("asc", "quadrature") in metrics
    assert ("sop", "quadrature") in metrics
    assert ("sop_lb", "closed_form") in metrics
    assert ("spsc", "closed_form") in metrics


def test_metrics_methods_flag(cfg, capsys):
    assert main(["metrics", "--config", cfg, "--methods", "monte_carlo"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4  # asc, sop, spsc
    assert {line.split(",")[1] for line in lines[1:]} == {"asc", "sop", "spsc"}
    assert all(line.split(",")[2] == "monte_carlo" for line in lines[1:])


def test_metrics_file_and_manifest(cfg, tmp_path):
    out = str(tmp_path / "m.csv")
    assert main(["metrics", "--config", cfg, "--out", out, "--seed", "77"]) == 0
    text = Path(out).read_text()
    assert text.startswith("sweep_value,metric,method,value,error,status\n")
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["command"] == "metrics"
    assert manifest["seed"] == 77
    assert manifest["mc_samples"] == 8000
    assert manifest["output"] == out
    assert manifest["config_sha256"] == hashlib.sha256(
        Path(cfg).read_bytes()).hexdigest()
    # reproducibility manifest carries no clock
    assert not any("time" in k or "date" in k for k in manifest)


def test_metrics_byte_identical_across_runs_and_jobs(sweep_cfg, tmp_path):
    outs = []
    for i, jobs in enumerate(("1", "1", "4")):
        out = str(tmp_path / f"m{i}.csv")
        code = main(["metrics", "--config", sweep_cfg, "--out", out,
                     "--methods", "quadrature,monte_carlo", "--jobs", jobs])
        assert code == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_metrics_seed_changes_mc_rows(cfg, tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    main(["metrics", "--config", cfg, "--methods", "monte_carlo",
          "--out", a, "--seed", "1"])
    main(["metrics", "--config", cfg, "--methods", "monte_carlo",
          "--out", b, "--seed", "2"])
    assert Path(a).read_text() != Path(b).read_text()


def test_metrics_sweep_rows(sweep_cfg, capsys):
    assert main(["metrics", "--config", sweep_cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 3 * 7
    coords = [line.split(",")[0] for line in lines[1:]]
    assert set(coords) == {"40.0", "50.0", "60.0"}


def test_metrics_gnuplot_layout(sweep_cfg, capsys):
    assert main(["metrics", "--config", sweep_cfg, "--gnuplot"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("# sweep_value ")
    columns = lines[0].split()[1:]  # drop the comment marker
    assert "asc:quadrature" in columns
    assert len(lines) == 4  # header + 3 sweep points
    for line in lines[1:]:
        cells = line.split()
        assert len(cells) == len(columns)
        float(cells[0])  # coordinate parses


def test_link_budget(sweep_cfg, capsys):
    assert main(["link-budget", "--config", sweep_cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "sweep_value"
    assert "mean_snr_bob" in header and "rytov_variance" in header
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        assert all(math.isfinite(float(c)) for c in cells)
    # steeper path means longer slant range: first column after sweep_value
    lengths = [float(line.split(",")[1]) for line in lines[1:]]
    assert lengths[0] < lengths[1] < lengths[2]


def test_validate_passes(cfg, capsys):
    code = main(["validate", "--config", cfg,
                 "--methods", "quadrature,closed_form,monte_carlo"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("sweep_value,metric,method,analytic,mc_mean,"
                        "mc_std_error,z_score,status")
    # asc/sop/spsc from quadrature, asc/spsc from closed form
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "pass"
        assert abs(float(cells[6])) <= 3.0


def test_validate_detects_bias(cfg, monkeypatch):
    # negative control: a Monte Carlo estimator with a wrong mean and a
    # tight error bar must trip the z-test, not pass silently
    real = mc_metrics

    def biased(scenario, mc_cfg):
        _, sop, positive = real(scenario, mc_cfg)
        asc = McEstimate(mean=10.0, std_error=1e-6, n=mc_cfg.samples)
        return asc, sop, positive
    monkeypatch.setattr("fsosec.cli.mc_metrics", biased)
    code = main(["validate", "--config", cfg,
                 "--methods", "quadrature,monte_carlo"])
    assert code == 1


def test_validate_needs_monte_carlo(cfg, capsys):
    assert main(["validate", "--config", cfg,
                 "--methods", "quadrature"]) == 2
    assert "monte_carlo" in capsys.readouterr().err


def test_metrics_nonconvergence_exit(cfg, monkeypatch, capsys):
    def blows_up(scenario):
        raise NonConvergent("synthetic")
    monkeypatch.setattr("fsosec.secrecy.asc_quadrature", blows_up)
    code = main(["metrics", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 3
    # one status row replaces the whole failed method at that point
    assert ",all,quadrature,,,non_convergent" in out
    # the untouched method still reports
    assert ",asc,closed_form," in out


def test_metrics_pole_collision_row(cfg, monkeypatch, capsys):
    def collides(scenario):
        raise PoleCollision("synthetic")
    monkeypatch.setattr("fsosec.secrecy.asc_closed_form", collides)
    code = main(["metrics", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 3
    assert ",all,closed_form,,,pole_collision" in out
    assert ",asc,quadrature," in out  # quadrature rows unaffected


@pytest.mark.parametrize("error, status", [(NonConvergent, "non_convergent"),
                                           (PoleCollision, "pole_collision")])
def test_validate_failed_route_gives_status_row(cfg, monkeypatch, capsys,
                                                error, status):
    def fails(scenario):
        raise error("synthetic")
    monkeypatch.setattr("fsosec.secrecy.asc_closed_form", fails)
    code = main(["validate", "--config", cfg,
                 "--methods", "quadrature,closed_form,monte_carlo"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 3
    # the status string is the one metrics writes for the same failure
    assert ",all,closed_form,,,,," + status in lines
    assert sum(",closed_form," in line for line in lines) == 1
    # the untouched method is still scored
    assert any(line.startswith(",asc,quadrature,") for line in lines)


def test_failed_scenario_gives_one_status_row_per_method(cfg, monkeypatch,
                                                         capsys):
    def fails(rc):
        raise NonConvergent("synthetic")
    monkeypatch.setattr(cli, "build_scenario", fails)
    methods = "quadrature,closed_form,monte_carlo"
    assert main(["metrics", "--config", cfg, "--methods", methods]) == 3
    assert main(["validate", "--config", cfg, "--methods", methods]) == 3
    lines = capsys.readouterr().out.strip().split("\n")
    for method in methods.split(","):
        assert f",all,{method},,,non_convergent" in lines
        assert f",all,{method},,,,,non_convergent" in lines


def test_manifest_closes_the_config_file(cfg, tmp_path):
    out = str(tmp_path / "budget.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["link-budget", "--config", cfg, "--out", out]) == 0
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def test_bench_tracer_reaches_every_layer(cfg, capsys):
    # the benchmark's tracer wraps cli and module attributes by name;
    # a rename here would silently zero its per-layer counters
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the tracer spans the public mc and secrecy functions cli imports
    assert tracing._functions_from(cli, "fsosec.mc")
    assert tracing._functions_from(cli, "fsosec.secrecy")
    real_main = cli.main
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert "not found" not in capsys.readouterr().err
        assert cli.main(["metrics", "--config", cfg, "--methods",
                         "quadrature,closed_form,monte_carlo"]) == 0
    finally:
        tracer.restore()
    assert cli.main is real_main
    names = {span[3] for span in tracer.spans()}
    assert any(name.startswith("mc.") for name in names)
    assert {"secrecy.asc_quadrature", "secrecy.asc_closed_form",
            "quadrature.integral", "specfun.meijer_g"} <= names
    counts = tracer.counts()
    assert counts["fading.sample_ht.items"] == 2 * 8000
    assert counts["quadrature.evals"] > 0
    assert counts["fading.pdf_calls"] > 0


def test_config_error_exits(cfg, tmp_path, capsys):
    assert main(["metrics", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["metrics", "--config", cfg, "--methods", "sorcery"]) == 2
    assert main(["metrics", "--config", cfg, "--seed", "-1"]) == 2
    assert main(["metrics", "--config", cfg, "--jobs", "0"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE.replace("zenith_angle_deg = 60",
                                "zenith_angle_deg = 95"))
    assert main(["metrics", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_run_section_output_path(tmp_path, capsys):
    out = tmp_path / "from_cfg.csv"
    p = tmp_path / "run.cfg"
    p.write_text(BASE + f"\n[run]\noutput = {out}\n")
    assert main(["link-budget", "--config", str(p)]) == 0
    assert capsys.readouterr().out == ""
    assert out.exists()
    assert (tmp_path / "from_cfg.csv.manifest.json").exists()


def test_small_values_use_scientific_notation(cfg, capsys):
    main(["link-budget", "--config", cfg])
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    # pointing gains are ~2e-5: must carry an exponent marker
    assert "e-" in cells["pointing_gain_bob"]
    assert "e-" in cells["pointing_gain_eve"]
