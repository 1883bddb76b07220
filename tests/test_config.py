import math
import re
from pathlib import Path

import pytest

from fsosec.atmosphere import db_per_km_to_natural
from fsosec.cli import main
from fsosec.config import (RunConfig, SweepSpec, build_atmosphere,
                           build_geometry, build_scenario, build_turbulence,
                           link_state, parse_config, parse_methods)
from fsosec.errors import ConfigError
from fsosec.turbulence import (TurbulenceProfile, fading_shapes_from_rytov,
                               rytov_variance)

BASE = {
    "geometry": {
        "wavelength_nm": "1550",
        "satellite_altitude_km": "800",
        "ground_height_m": "10",
        "zenith_angle_deg": "60",
        "divergence_urad": "10",
        "aperture_diameter_cm": "5",
        "eve_separation_m": "2",
    },
    "atmosphere": {
        "troposphere_db_per_km": "0.002",
        "stratosphere_db_per_km": "0.001",
        "stratosphere_extent_km": "20",
    },
    "turbulence": {
        "wind_speed_m_s": "21",
        "cn2_ground": "1e-14",
    },
    "link": {
        "tx_power_w": "1",
        "noise_std_a": "5e-7",
    },
}


def write_cfg(tmp_path, sections, name="run.cfg"):
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in entries.items())
        lines.append("")
    p = tmp_path / name
    p.write_text("\n".join(lines))
    return str(p)


def variant(extra=None, drop=None):
    cfg = {s: dict(e) for s, e in BASE.items()}
    for path, value in (extra or {}).items():
        section, key = path.split(".", 1)
        cfg.setdefault(section, {})[key] = value
    for path in drop or ():
        section, key = path.split(".", 1)
        del cfg[section][key]
    return cfg


_SHIPPED = Path(__file__).parent.parent / "configs" / "eve-offset-sweep.cfg"


def test_parse_minimal(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    assert rc.methods == ("quadrature", "closed_form")
    assert rc.mc_samples == 1_000_000
    assert rc.mc_seed == 0
    assert rc.sweep is None
    assert rc.output is None
    # defaults fill unset optional leaves
    assert rc.value("geometry.pointing_offset_m") == 0.0
    assert rc.value("geometry.beam_quality") == 1.0
    assert rc.value("link.target_rate_bits") == 0.5
    assert rc.value("link.eve_snr_ratio_db") is None
    assert rc.value("geometry.eve_separation_m") == 2.0


def test_missing_file():
    with pytest.raises(ConfigError, match="no such config"):
        parse_config("/nonexistent/run.cfg")


def test_unknown_section(tmp_path):
    cfg = variant()
    cfg["detector"] = {"gain": "1"}
    with pytest.raises(ConfigError, match=r"unknown section \[detector\]"):
        parse_config(write_cfg(tmp_path, cfg))


def test_unknown_key_carries_field_path(tmp_path):
    cfg = variant(extra={"geometry.wavelenght_nm": "1550"})
    with pytest.raises(ConfigError, match="geometry.wavelenght_nm"):
        parse_config(write_cfg(tmp_path, cfg))


def test_missing_required_key(tmp_path):
    cfg = variant(drop=["turbulence.cn2_ground"])
    with pytest.raises(ConfigError, match="turbulence.cn2_ground"):
        parse_config(write_cfg(tmp_path, cfg))


def test_missing_section(tmp_path):
    cfg = variant()
    del cfg["turbulence"]
    with pytest.raises(ConfigError, match=r"missing section \[turbulence\]"):
        parse_config(write_cfg(tmp_path, cfg))


def test_extinction_spelling_is_exclusive(tmp_path):
    both = variant(extra={"atmosphere.troposphere_per_km": "0.01"})
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(write_cfg(tmp_path, both))
    neither = variant(drop=["atmosphere.troposphere_db_per_km"])
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(write_cfg(tmp_path, neither))


def test_range_violation_message(tmp_path):
    cfg = variant(extra={"geometry.zenith_angle_deg": "95"})
    with pytest.raises(ConfigError, match=r"in \[0, 90\)"):
        parse_config(write_cfg(tmp_path, cfg))


def test_unparseable_number(tmp_path):
    cfg = variant(extra={"link.tx_power_w": "fast"})
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(write_cfg(tmp_path, cfg))


def test_inline_comments_are_stripped(tmp_path):
    cfg = variant(extra={"link.tx_power_w": "2.5  # watts"})
    rc = parse_config(write_cfg(tmp_path, cfg))
    assert rc.value("link.tx_power_w") == 2.5


def test_mc_and_run_sections(tmp_path):
    cfg = variant()
    cfg["mc"] = {"samples": "5000", "seed": "9"}
    cfg["run"] = {"methods": "monte_carlo, quadrature", "output": "out.csv"}
    rc = parse_config(write_cfg(tmp_path, cfg))
    assert rc.mc_samples == 5000
    assert rc.mc_seed == 9
    assert rc.methods == ("monte_carlo", "quadrature")
    assert rc.output == "out.csv"


def test_mc_validation(tmp_path):
    cfg = variant()
    cfg["mc"] = {"samples": "0"}
    with pytest.raises(ConfigError, match="mc.samples"):
        parse_config(write_cfg(tmp_path, cfg))
    cfg["mc"] = {"walkers": "4"}
    with pytest.raises(ConfigError, match="unknown key mc.walkers"):
        parse_config(write_cfg(tmp_path, cfg))
    # the batch size is fixed, so the stream depends on seed and samples
    cfg["mc"] = {"batch_size": "1024"}
    with pytest.raises(ConfigError, match="unknown key mc.batch_size"):
        parse_config(write_cfg(tmp_path, cfg))


def test_parse_methods():
    assert parse_methods("quadrature") == ("quadrature",)
    assert parse_methods("closed_form quadrature closed_form") == \
        ("closed_form", "quadrature")
    with pytest.raises(ConfigError, match="unknown method"):
        parse_methods("qudrature")
    with pytest.raises(ConfigError, match="at least one"):
        parse_methods("  ")


def test_sweep_parsing(tmp_path):
    cfg = variant()
    cfg["sweep"] = {"variable": "geometry.zenith_angle_deg", "start": "40",
                    "stop": "60", "count": "11"}
    rc = parse_config(write_cfg(tmp_path, cfg))
    pts = rc.sweep.points()
    assert len(pts) == 11
    assert pts[0] == (40.0, 40.0)
    assert pts[-1] == (60.0, 60.0)
    assert pts[5][0] == pytest.approx(50.0)


def test_sweep_log_scale_points():
    spec = SweepSpec("turbulence.cn2_ground", 1e-16, 1e-12, 5, "log")
    pts = spec.points()
    assert [c for c, _ in pts] == pytest.approx([1e-16, 1e-15, 1e-14, 1e-13, 1e-12])
    assert all(c == v for c, v in pts)


def test_sweep_db_scale_points():
    spec = SweepSpec("link.tx_power_w", -10.0, 20.0, 4, "db")
    pts = spec.points()
    assert [c for c, _ in pts] == pytest.approx([-10.0, 0.0, 10.0, 20.0])
    assert [v for _, v in pts] == pytest.approx([0.1, 1.0, 10.0, 100.0])


def test_sweep_single_point_direct():
    assert SweepSpec("link.tx_power_w", 3.0, 9.0, 1).points() == [(3.0, 3.0)]


def test_sweep_validation(tmp_path):
    bad = [
        ({"variable": "geometry.nope", "start": "0", "stop": "1",
          "count": "3"}, "names no known leaf"),
        ({"variable": "geometry.zenith_angle_deg", "start": "40",
          "stop": "95", "count": "3"}, "violates"),
        ({"variable": "geometry.zenith_angle_deg", "start": "40",
          "stop": "60", "count": "1"}, "sweep.count"),
        ({"variable": "turbulence.cn2_ground", "start": "-1e-15",
          "stop": "1e-13", "count": "3", "scale": "log"}, "positive"),
        ({"variable": "geometry.zenith_angle_deg", "start": "40",
          "stop": "60", "count": "3", "scale": "octave"}, "sweep.scale"),
        ({"variable": "atmosphere.troposphere_per_km", "start": "0.001",
          "stop": "0.01", "count": "3"}, "conflicts with configured"),
        ({"start": "0", "stop": "1", "count": "3"}, "sweep.variable"),
        ({"variable": "geometry.zenith_angle_deg", "start": "40",
          "stop": "60", "count": "3", "step": "2"}, "sweep.step"),
    ]
    for entries, fragment in bad:
        cfg = variant()
        cfg["sweep"] = entries
        with pytest.raises(ConfigError, match=fragment):
            parse_config(write_cfg(tmp_path, cfg))


def test_with_value_roundtrip(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    rc2 = rc.with_value("geometry.zenith_angle_deg", 45.0)
    assert rc2.value("geometry.zenith_angle_deg") == 45.0
    assert rc.value("geometry.zenith_angle_deg") == 60.0  # original untouched
    with pytest.raises(ConfigError):
        rc.with_value("geometry.nope", 1.0)
    with pytest.raises(ConfigError):
        rc.value("nope.nope")


def test_build_geometry_unit_conversion(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    geom = build_geometry(rc)
    assert geom.wavelength_m == pytest.approx(1.55e-6, rel=1e-15)
    assert geom.satellite_altitude_m == 8e5
    assert geom.zenith_angle_rad == pytest.approx(math.radians(60.0), rel=1e-15)
    assert geom.divergence_rad == pytest.approx(1e-5, rel=1e-15)
    assert geom.aperture_diameter_m == pytest.approx(0.05, rel=1e-15)
    assert geom.eve_separation_m == 2.0


def test_build_geometry_impossible_combination(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    bad = rc.with_value("geometry.ground_height_m", 9e9)
    with pytest.raises(ConfigError, match="geometry"):
        build_geometry(bad)


def test_build_atmosphere_db_conversion(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    atm = build_atmosphere(rc)
    assert atm.troposphere_per_km == pytest.approx(
        db_per_km_to_natural(0.002), rel=1e-15)
    assert atm.stratosphere_per_km == pytest.approx(
        db_per_km_to_natural(0.001), rel=1e-15)
    # natural spelling passes through untouched
    cfg = variant(drop=["atmosphere.troposphere_db_per_km"],
                  extra={"atmosphere.troposphere_per_km": "0.00046"})
    atm2 = build_atmosphere(parse_config(write_cfg(tmp_path, cfg, "b.cfg")))
    assert atm2.troposphere_per_km == 0.00046


def test_build_turbulence(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    prof = build_turbulence(rc)
    assert prof == TurbulenceProfile(21.0, 1e-14)


def test_link_state_consistency(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    state = link_state(rc)
    gain = (state.atmospheric_gain * state.pointing_gain_bob * state.cloud_gain)
    assert state.mean_snr_bob == pytest.approx(2.0 * (1.0 * gain / 5e-7) ** 2,
                                               rel=1e-12)
    assert state.pointing_gain_eve < state.pointing_gain_bob
    assert state.cloud_gain == 1.0  # no cloud keys set
    want = fading_shapes_from_rytov(
        rytov_variance(build_turbulence(rc), build_geometry(rc)))
    assert (state.shape_a, state.shape_b) == want
    assert rc.value("link.target_rate_bits") == 0.5


def test_eve_noise_defaults_to_bob(tmp_path):
    cfg = variant(extra={"geometry.eve_separation_m": "0"})
    state = link_state(parse_config(write_cfg(tmp_path, cfg)))
    assert state.mean_snr_eve == state.mean_snr_bob
    cfg = variant(extra={"geometry.eve_separation_m": "0",
                         "link.eve_noise_std_a": "1e-6"})
    state = link_state(parse_config(write_cfg(tmp_path, cfg, "b.cfg")))
    assert state.mean_snr_eve == pytest.approx(state.mean_snr_bob / 4.0, rel=1e-12)


def test_eve_snr_ratio_overrides_budget(tmp_path):
    cfg = variant(extra={"link.eve_snr_ratio_db": "-10"})
    state = link_state(parse_config(write_cfg(tmp_path, cfg)))
    assert state.mean_snr_eve == pytest.approx(0.1 * state.mean_snr_bob, rel=1e-12)


def test_build_scenario_shares_fading_shapes(tmp_path):
    rc = parse_config(write_cfg(tmp_path, BASE))
    scen = build_scenario(rc)
    assert scen.bob.fading == scen.eve.fading
    assert scen.target_rate == 0.5
    assert scen.bob.mean_snr > scen.eve.mean_snr


def test_shipped_fixture_configs_parse():
    import glob, os
    fixtures = sorted(glob.glob(os.path.join(
        os.path.dirname(__file__), "..", "configs", "*.cfg")))
    assert len(fixtures) >= 4
    for path in fixtures:
        rc = parse_config(path)
        state = link_state(rc)
        assert state.mean_snr_bob > 0.0
        assert rc.sweep is not None


@pytest.mark.parametrize("path, value, in_file, message", [
    ("atmosphere.cloud_lwc_mg_m3", 0.0, True,
     "atmosphere: cloud layer with positive path needs positive liquid "
     "water content and droplet concentration"),
    ("turbulence.wind_speed_m_s", -1.0, False,
     "turbulence: wind speed must be >= 0"),
    ("link.target_rate_bits", 2000.0, False,
     "link: target rate must be in [0, 1024) bits, got 2000.0"),
    ("geometry.ground_height_m", 7e5, True,
     "geometry: satellite must sit above the ground station"),
    ("link.noise_std_a", -1.0, False,
     "link: power, noise and gain must all be positive"),
    ("atmosphere.cloud_lwc_mg_m3", math.nan, True,
     "atmosphere.cloud_lwc_mg_m3: must be finite, got nan"),
])
def test_model_checks_are_config_errors_of_their_section(
        tmp_path, capsys, path, value, in_file, message):
    # a check of the physical model, or of a number, fails a library
    # sweep as a ConfigError named by its section or key, without the
    # ValueError chained to it
    with pytest.raises(ConfigError) as info:
        build_scenario(parse_config(str(_SHIPPED)).with_value(path, value))
    assert str(info.value) == message
    assert info.value.__cause__ is None
    assert info.value.__context__ is None or info.value.__suppress_context__
    if in_file:
        # the key's own rule lets the value through, so the cli meets
        # the same check: a configuration error, exit code 2
        key = path.split(".")[1]
        edited = tmp_path / "edited.cfg"
        edited.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value!r}",
                                 _SHIPPED.read_text()))
        assert main(["link-budget", "--config", str(edited)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
