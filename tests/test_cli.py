"""Command-line behaviour, exercised in process through cli.main."""
import importlib.util
import json
import hashlib
import math
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import fsosec.cli as cli
from fsosec import secrecy
from fsosec.atmosphere import peak_collection
from fsosec.cli import fmt_number, main
from fsosec.config import build_geometry, parse_config
from fsosec.errors import NonConvergent
from fsosec.mc import McEstimate, mc_metrics

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
    assert fmt_number(1e-4) == "1e-04"
    assert fmt_number(-2.5e-7) == "-2.5e-07"
    assert fmt_number(0.0) == "0e+00"
    assert fmt_number(-0.0) == "-0e+00"
    assert fmt_number(9.99e-4) == "9.99e-04"
    assert fmt_number(5e-324) == "5e-324"
    # the eve-offset-sweep SOP at 30 m, every digit kept
    assert fmt_number(3.838205508476307e-07) == "3.838205508476307e-07"
    assert fmt_number(float("nan")) == "nan"
    assert fmt_number(float("inf")) == "inf"
    assert fmt_number(float("-inf")) == "-inf"
    # round-trips exactly in the repr branch
    assert float(fmt_number(0.1 + 0.2)) == 0.1 + 0.2


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_number_reads_back_to_the_same_double(x):
    cell = fmt_number(x)
    assert float(cell) == x
    # below 1e-3 and at 0 the cell is in e-notation
    assert "e" in cell or abs(x) >= 1e-3


def test_empty_methods_is_a_config_error(cfg, capsys):
    assert main(["metrics", "--config", cfg, "--methods", ""]) == 2
    assert "at least one method is required" in capsys.readouterr().err


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


def test_every_point_gives_its_monte_carlo_all_jobs(sweep_cfg, monkeypatch, capsys):
    # sweep points run in order; each hands all --jobs to its own batches
    seen = []

    def recording(scenario, mc_cfg):
        seen.append(mc_cfg.jobs)
        return mc_metrics(scenario, mc_cfg)
    monkeypatch.setattr(cli, "mc_metrics", recording)
    assert main(["metrics", "--config", sweep_cfg, "--methods", "monte_carlo",
                 "--jobs", "3"]) == 0
    assert seen == [3, 3, 3]


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


def test_metrics_both_methods_match_single_method_runs(sweep_cfg, capsys):
    # the planner shares terms between the methods: each method's rows
    # must still be those it gives alone
    def rows(methods):
        assert main(["metrics", "--config", sweep_cfg,
                     "--methods", methods]) == 0
        return capsys.readouterr().out.strip().split("\n")[1:]

    both = rows("quadrature,closed_form")
    quad, closed = rows("quadrature"), rows("closed_form")
    merged = []
    for point in range(3):
        merged += quad[4 * point:4 * point + 4]
        merged += closed[3 * point:3 * point + 3]
    assert both == merged


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


def test_gnuplot_keeps_the_columns_of_a_failed_route(sweep_cfg, monkeypatch,
                                                     capsys):
    # a failed route reads nan in its own column; the other routes of
    # its method keep their columns and values
    def fails(scenario):
        raise NonConvergent("synthetic")
    monkeypatch.setattr("fsosec.secrecy.asc_closed_form", fails)
    assert main(["metrics", "--config", sweep_cfg, "--gnuplot"]) == 3
    lines = capsys.readouterr().out.strip().split("\n")
    columns = lines[0].split()[1:]
    assert columns == ["sweep_value", "asc:quadrature", "sop:quadrature",
                       "sop_lb:quadrature", "spsc:quadrature",
                       "asc:closed_form", "sop_lb:closed_form",
                       "spsc:closed_form"]
    assert len(lines) == 4
    for line in lines[1:]:
        cells = dict(zip(columns, line.split()))
        assert cells["asc:closed_form"] == "nan"
        assert all(math.isfinite(float(cells[name]))
                   for name in columns if name != "asc:closed_form")


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
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    # one status row replaces the failed route alone at that point
    assert [line for line in lines if not line.endswith(",ok")] == [
        "sweep_value,metric,method,value,error,status",
        ",asc,quadrature,,,non_convergent"]
    # the other routes of the method and the other method still report
    assert any(line.startswith(",sop,quadrature,") for line in lines)
    assert any(line.startswith(",asc,closed_form,") for line in lines)


def test_saturated_turbulence_gives_status_rows(tmp_path, capsys):
    # at cn2_ground = 1e-6 the gain densities are too narrow for the
    # quadrature's scan grid: every ASC row of both analytic methods is
    # a status, never an ok row of 0 with error 0 where Monte Carlo
    # reads 6-10 bits; the outage rows that remain agree with Monte
    # Carlo and with the closed form wherever it has rows
    text = (CONFIGS / "zenith-sweep.cfg").read_text()
    saturated = re.sub(r"(?m)^cn2_ground = .*$", "cn2_ground = 1e-6", text)
    assert saturated != text
    path = tmp_path / "saturated.cfg"
    path.write_text(saturated)
    assert main(["metrics", "--config", str(path), "--methods",
                 "quadrature,closed_form,monte_carlo"]) == 3
    rows = {tuple(row[:3]): row[3:]
            for row in _rows(capsys.readouterr().out)}
    coords = list(dict.fromkeys(coord for coord, _, _ in rows))
    assert len(coords) == 11
    samples = parse_config(str(path)).mc_samples
    closed_rows = 0
    for coord in coords:
        for method in ("quadrature", "closed_form"):
            assert rows[coord, "asc", method] == ["", "", "non_convergent"]
        mc = {metric: (float(rows[coord, metric, "monte_carlo"][0]),
                       float(rows[coord, metric, "monte_carlo"][1]))
              for metric in ("sop", "spsc")}
        quad = {}
        for metric in ("sop", "sop_lb", "spsc"):
            value, error, status = rows[coord, metric, "quadrature"]
            assert status == "ok"
            quad[metric] = float(value), float(error)
        # validate's pass rule: three standard errors, or three over the
        # draws where the sample has none; the lower bound may sit below
        # the outage
        for metric, ref in (("sop", "sop"), ("sop_lb", "sop"),
                            ("spsc", "spsc")):
            diff = quad[metric][0] - mc[ref][0]
            allow = 3.0 * (mc[ref][1] or 1.0 / samples)
            assert (diff if metric == "sop_lb" else abs(diff)) <= allow, (
                coord, metric, quad[metric], mc[ref])
        for metric in ("sop_lb", "spsc"):
            value, error, status = rows[coord, metric, "closed_form"]
            if status == "ok":
                closed_rows += 1
                assert abs(float(value) - quad[metric][0]) <= (
                    float(error) + quad[metric][1]), (coord, metric)
    assert closed_rows > 0


def _zenith_sweep_with(tmp_path, **values):
    # configs/zenith-sweep.cfg with the named keys set to new values
    text = (CONFIGS / "zenith-sweep.cfg").read_text()
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1
    path = tmp_path / "edited.cfg"
    path.write_text(text)
    return str(path)


def _rows(out):
    return [line.split(",") for line in out.splitlines()[1:]]


_ANALYTIC_ROUTES = {("asc", "quadrature"), ("sop", "quadrature"),
                    ("sop_lb", "quadrature"), ("spsc", "quadrature"),
                    ("asc", "closed_form"), ("sop_lb", "closed_form"),
                    ("spsc", "closed_form")}


@pytest.mark.parametrize("edits", [
    # the scintillation split overflows
    {"cn2_ground": "1e100"}, {"cn2_ground": "1e300"},
    # above the turbulent layer the Rytov variance underflows to 0
    {"ground_height_m": "1.2e6", "satellite_altitude_km": "2000"}],
    ids=["cn2-1e100", "cn2-1e300", "ground-1200km"])
@pytest.mark.parametrize("command", ["link-budget", "metrics"])
def test_no_finite_shapes_exit_numerics(tmp_path, capsys, command, edits):
    # no finite F-law shape pair: exit 3 with a message or status rows,
    # never a traceback, a nan shape or an ok row
    path = _zenith_sweep_with(tmp_path, **edits)
    assert main([command, "--config", path]) == 3
    captured = capsys.readouterr()
    if command == "link-budget":
        assert "no finite F-law shape pair" in captured.err
    else:
        rows = _rows(captured.out)
        # one per point and metric x route of the config's two methods
        assert len(rows) == 11 * 7
        assert {(row[1], row[2]) for row in rows} == _ANALYTIC_ROUTES
        assert all(row[3:] == ["", "", "non_convergent"] for row in rows)


def test_huge_shapes_exit_numerics(tmp_path, capsys):
    # shapes near 1e146: the lower bound's G-function keeps its Gamma
    # factors, so its closed form is a status row, not a traceback
    path = _zenith_sweep_with(tmp_path, ground_height_m="5e5",
                              satellite_altitude_km="2000")
    assert main(["metrics", "--config", path]) == 3
    closed = [row for row in _rows(capsys.readouterr().out)
              if row[2] == "closed_form"]
    assert len(closed) == 11 * 3
    assert all(row[3:] == ["", "", "non_convergent"] for row in closed)


def test_shapes_that_lose_every_digit_exit_numerics(tmp_path, capsys):
    # configs/turbulence-sweep.cfg unswept at cn2_ground 1e8, shapes
    # a = 2.3e20 and b = 5.5e36: every route rounds off every digit,
    # which gives seven status rows, not a traceback
    text = (CONFIGS / "turbulence-sweep.cfg").read_text()
    text = text[:text.index("[sweep]")].replace("cn2_ground = 1e-14",
                                                "cn2_ground = 1e8")
    path = tmp_path / "unswept.cfg"
    path.write_text(text)
    assert main(["metrics", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    assert len(rows) == 7
    assert {(row[1], row[2]) for row in rows} == _ANALYTIC_ROUTES
    assert all(row[3:] == ["", "", "non_convergent"] for row in rows)
    assert captured.err == ""


def test_metrics_failed_route_gives_status_row(cfg, monkeypatch, capsys):
    def fails(scenario):
        raise NonConvergent("synthetic")
    monkeypatch.setattr("fsosec.secrecy.asc_closed_form", fails)
    code = main(["metrics", "--config", cfg])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert [line for line in lines if not line.endswith(",ok")] == [
        "sweep_value,metric,method,value,error,status",
        ",asc,closed_form,,,non_convergent"]
    # the method's other routes and the quadrature rows are unaffected
    assert any(line.startswith(",spsc,closed_form,") for line in lines)
    assert any(line.startswith(",asc,quadrature,") for line in lines)


@pytest.mark.parametrize("error, status", [(NonConvergent, "non_convergent")])
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
    assert ",asc,closed_form,,,,," + status in lines
    # the method's other route and the untouched method are still scored
    closed = [line for line in lines if ",closed_form," in line]
    assert len(closed) == 2 and closed[1].startswith(",spsc,closed_form,")
    assert closed[1].endswith((",pass", ",fail"))
    assert any(line.startswith(",asc,quadrature,") for line in lines)


def test_validate_scores_only_what_monte_carlo_estimates(tmp_path,
                                                        monkeypatch, capsys):
    # the lower bound at the target rate fails on both routes; SPSC takes
    # the bound at rate 0, which still succeeds.  Monte Carlo estimates
    # no lower bound, so validate writes neither a row nor a status for
    # it: the same text and exit code as a run where it succeeds
    path = _zenith_sweep_with(tmp_path, samples="20000", count="3")
    methods = ["--methods", "quadrature,closed_form,monte_carlo"]
    code = main(["validate", "--config", path] + methods)
    healthy = capsys.readouterr().out
    real = secrecy.sop_lower_bound

    def fails_above_rate_zero(scenario, method="closed_form"):
        if scenario.target_rate > 0.0:
            raise NonConvergent("synthetic")
        return real(scenario, method)

    monkeypatch.setattr(secrecy, "sop_lower_bound", fails_above_rate_zero)
    assert main(["validate", "--config", path] + methods) == code
    assert capsys.readouterr().out == healthy
    rows = _rows(healthy)
    assert len(rows) == 3 * 5 and all(row[1] != "sop_lb" for row in rows)


def test_failed_scenario_gives_one_status_row_per_route(cfg, monkeypatch,
                                                        capsys):
    def fails(rc):
        raise NonConvergent("synthetic")
    monkeypatch.setattr(cli, "build_scenario", fails)
    methods = "quadrature,closed_form,monte_carlo"
    assert main(["metrics", "--config", cfg, "--methods", methods]) == 3
    metrics = capsys.readouterr().out.splitlines()[1:]
    assert main(["validate", "--config", cfg, "--methods", methods]) == 3
    validate = capsys.readouterr().out.splitlines()[1:]
    # every metric x route in row order; validate scores no lower bound
    routes = {"quadrature": ("asc", "sop", "sop_lb", "spsc"),
              "closed_form": ("asc", "sop_lb", "spsc"),
              "monte_carlo": ("asc", "sop", "spsc")}
    assert metrics == [f",{metric},{method},,,non_convergent"
                       for method, names in routes.items()
                       for metric in names]
    assert validate == [f",{metric},{method},,,,,non_convergent"
                        for method, names in routes.items()
                        for metric in names if metric != "sop_lb"]


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
        # the tracer skips only the names the package has retired; any
        # other miss would zero its counters silently
        missing = {line.split()[1]
                   for line in capsys.readouterr().err.splitlines()
                   if "not found" in line}
        assert missing == {"fsosec.cli._map_points",
                           "fsosec.quadrature.quad_adaptive",
                           "fsosec.quadrature.kronrod_panel",
                           "fsosec.specfun.quad_adaptive",
                           "fsosec.secrecy.snr_cdf",
                           "fsosec.secrecy.snr_pdf"}
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


@pytest.mark.parametrize("key", ["satellite_altitude_km", "divergence_urad",
                                 "cn2_ground", "wind_speed_m_s"])
def test_non_finite_value_is_a_config_error(key, tmp_path, capsys):
    # inf passes the range rules (inf > 0) but breaks the physics later
    text = (CONFIGS / "zenith-sweep.cfg").read_text()
    bad = tmp_path / "bad.cfg"
    bad.write_text(re.sub(rf"^{key} = .*$", f"{key} = inf", text, flags=re.M))
    assert bad.read_text() != text
    assert main(["metrics", "--config", str(bad)]) == 2
    assert f"{key}: must be finite" in capsys.readouterr().err


def test_huge_shapes_give_status_rows(tmp_path):
    # a ground station at 500 km under a 2000 km orbit leaves a path so
    # short that the F-law shapes reach about 1e146: no point may report
    # a value, where quadrature rows read 0 +- 0 with status ok
    text = (CONFIGS / "zenith-sweep.cfg").read_text()
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace("satellite_altitude_km = 600",
                                "satellite_altitude_km = 2000")
                   .replace("ground_height_m = 10", "ground_height_m = 5e5"))
    out = tmp_path / "huge.csv"
    assert main(["metrics", "--config", str(cfg), "--methods",
                 "quadrature,closed_form", "--out", str(out)]) == 3
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 11 * 7
    assert {(row[1], row[2]) for row in rows} == _ANALYTIC_ROUTES
    assert {tuple(row[3:]) for row in rows} == {("", "", "non_convergent")}


def test_aperture_of_many_beam_radii_collects_the_peak(tmp_path, capsys):
    # at 200 m the aperture is about 44 beam radii wide and e^(-v^2)
    # underflows in the equivalent beam width: no offset loses power,
    # so both pointing gains are the peak collection erf(v)^2
    path = _zenith_sweep_with(tmp_path, aperture_diameter_cm="20000")
    assert main(["link-budget", "--config", path]) == 0
    rows = _rows(capsys.readouterr().out)
    points = cli._sweep_points(parse_config(path))
    assert len(rows) == len(points) == 11
    for row, (_, rc_point) in zip(rows, points):
        peak = fmt_number(peak_collection(build_geometry(rc_point)))
        assert row[3] == row[4] == peak
    assert main(["metrics", "--config", path]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 11 * 7
    assert all(row[5] == "ok" and math.isfinite(float(row[3]))
               and math.isfinite(float(row[4])) for row in rows)


# 4000 dB overflows the power itself; 3080 dB gives a finite ratio
# whose product with Bob's mean SNR overflows.
@pytest.mark.parametrize("db", ["4000", "3080"])
def test_fixed_db_overflow_is_a_config_error(tmp_path, capsys, db):
    text = (CONFIGS / "zenith-sweep.cfg").read_text()
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace("[link]\n",
                                f"[link]\neve_snr_ratio_db = {db}\n"))
    assert main(["link-budget", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error: link.eve_snr_ratio_db:" in err


def test_swept_db_overflow_is_a_config_error(tmp_path, capsys):
    text = (CONFIGS / "zenith-sweep.cfg").read_text()
    sweep = text[:text.index("[sweep]")] + (
        "[sweep]\nvariable = link.eve_snr_ratio_db\n"
        "start = 3000\nstop = 4000\ncount = 3\nscale = db\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text(sweep)
    assert main(["link-budget", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error: sweep: link.eve_snr_ratio_db:" in err


def _rate_cfg(tmp_path, rate_lines):
    # zenith-sweep.cfg with its target rate line, or its sweep, replaced
    text = (CONFIGS / "zenith-sweep.cfg").read_text()
    if rate_lines.startswith("[sweep]"):
        text = text[:text.index("[sweep]")] + rate_lines
    else:
        text = text.replace("target_rate_bits = 0.5\n", rate_lines)
    path = tmp_path / "rate.cfg"
    path.write_text(text)
    return str(path)


# from 1024 bits on, 2^R overflows a double: refused where the rate
# enters, as a fixed key and as a swept one
@pytest.mark.parametrize("rate_lines", [
    "target_rate_bits = 1100\n",
    "[sweep]\nvariable = link.target_rate_bits\n"
    "start = 1000\nstop = 1100\ncount = 3\n",
], ids=["fixed", "swept"])
def test_target_rate_from_1024_bits_is_a_config_error(tmp_path, capsys,
                                                      rate_lines):
    assert main(["metrics", "--config", _rate_cfg(tmp_path, rate_lines),
                 "--methods", "quadrature,closed_form"]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "link.target_rate_bits" in err
    assert "[0, 1024)" in err


def test_target_rate_of_1023_bits_gives_finite_rows(tmp_path, capsys):
    cfg = _rate_cfg(tmp_path, "target_rate_bits = 1023\n")
    assert main(["metrics", "--config", cfg, "--methods",
                 "quadrature,closed_form"]) == 0
    rows = [line.split(",")
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 11 * 7
    assert all(row[-1] == "ok" for row in rows)
    assert all(math.isfinite(float(row[3])) and math.isfinite(float(row[4]))
               for row in rows)


# a mean SNR that leaves the float range names the receiver and the key
@pytest.mark.parametrize("edit, message", [
    (("tx_power_w = 1\n", "tx_power_w = 1e200\n"),
     "link.tx_power_w: Bob's mean SNR overflows a float"),
    (("stop = 30\n", "stop = 1000\n"),
     "geometry.eve_separation_m: Eve's mean SNR underflows to 0"),
    # Eve's gain is still positive at 85-115 m; its squared budget is not
    (("stop = 30\n", "stop = 100\n"),
     "geometry.eve_separation_m: Eve's mean SNR underflows to 0"),
    (("tx_power_w = 1\n", "tx_power_w = 1e-200\n"),
     "link.tx_power_w: Bob's mean SNR underflows to 0"),
    (("[geometry]\n", "[geometry]\npointing_offset_m = 1e5\n"),
     "geometry.pointing_offset_m: Bob's mean SNR underflows to 0"),
    (("[link]\n", "[link]\neve_snr_ratio_db = -4000\n"),
     "link.eve_snr_ratio_db: -4000.0 dB underflows Eve's mean SNR"),
], ids=["tx_power", "eve_separation", "eve_gain_squared", "tx_power_low",
        "pointing_offset", "snr_ratio"])
@pytest.mark.parametrize("command", ["link-budget", "metrics"])
def test_mean_snr_out_of_range_is_a_config_error(tmp_path, capsys, edit,
                                                 message, command):
    text = (CONFIGS / "eve-offset-sweep.cfg").read_text()
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(*edit))
    assert bad.read_text() != text
    assert main([command, "--config", str(bad),
                 "--methods", "closed_form"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_unwritable_out_is_a_config_error(cfg, tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    assert main(["link-budget", "--config", cfg, "--out", str(missing)]) == 2
    assert f"cannot write {missing}: " in capsys.readouterr().err
    # the table is written but its manifest cannot be: neither is kept
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.manifest.json").mkdir()
    assert main(["link-budget", "--config", cfg, "--out", str(out)]) == 2
    assert f"cannot write {out}.manifest.json: " in capsys.readouterr().err
    assert not out.exists()


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
