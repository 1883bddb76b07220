"""Run configuration: INI parsing, validation and scenario assembly.

Every physical key carries its unit in the key name, so a file is
unambiguous without outside context.  Extinction coefficients accept
either a natural-log spelling (``*_per_km``) or a decibel spelling
(``*_db_per_km``); exactly one of the pair must be given and the
decibel form is converted at build time.  ``cn2_ground`` is the one
suffix-free physical key: its unit is the customary m^(-2/3) and no
competing convention exists.

Sweeps override a single leaf value, named by its ``section.key``
path, in the units of the file.  The rest of the configuration is
rebuilt from scratch for every point, so derived quantities (fading
shapes, mean SNR) always stay consistent with the swept value.
"""

import configparser
import math
import os
from dataclasses import dataclass, replace

from .atmosphere import (AtmosphereConfig, LinkGeometry, atmospheric_loss,
                         cloud_attenuation, collection_fraction,
                         db_per_km_to_natural, path_length)
from .errors import ConfigError
from .fading import FFadingParams, SnrChannel, mean_snr_from_budget
from .secrecy import WiretapScenario
from .turbulence import TurbulenceProfile, fading_shapes_from_rytov, rytov_variance

_METHODS = ("quadrature", "closed_form", "monte_carlo")


@dataclass(frozen=True)
class _Rule:
    required: bool = False
    default: object = None
    ok: object = None          # predicate on the parsed float
    expect: str = ""           # message fragment when the predicate fails


def _pos(x):
    return x > 0.0


def _nonneg(x):
    return x >= 0.0


def _db_to_linear(key, db):
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"{key}: {db!r} dB overflows a float") from None


# One entry per recognised numeric leaf; anything else in these
# sections is rejected with its field path.
_RULES = {
    "geometry.wavelength_nm": _Rule(True, None, _pos, "> 0"),
    "geometry.satellite_altitude_km": _Rule(True, None, _pos, "> 0"),
    "geometry.ground_height_m": _Rule(True, None, _nonneg, ">= 0"),
    "geometry.zenith_angle_deg": _Rule(True, None,
                                       lambda x: 0.0 <= x < 90.0, "in [0, 90)"),
    "geometry.divergence_urad": _Rule(True, None, _pos, "> 0"),
    "geometry.aperture_diameter_cm": _Rule(True, None, _pos, "> 0"),
    "geometry.pointing_offset_m": _Rule(False, 0.0, _nonneg, ">= 0"),
    "geometry.eve_separation_m": _Rule(False, 0.0, _nonneg, ">= 0"),
    "geometry.beam_quality": _Rule(False, 1.0, lambda x: x >= 1.0, ">= 1"),
    "atmosphere.troposphere_per_km": _Rule(False, None, _nonneg, ">= 0"),
    "atmosphere.troposphere_db_per_km": _Rule(False, None, _nonneg, ">= 0"),
    "atmosphere.stratosphere_per_km": _Rule(False, None, _nonneg, ">= 0"),
    "atmosphere.stratosphere_db_per_km": _Rule(False, None, _nonneg, ">= 0"),
    "atmosphere.stratosphere_extent_km": _Rule(True, None, _nonneg, ">= 0"),
    "atmosphere.cloud_lwc_mg_m3": _Rule(False, 0.0, _nonneg, ">= 0"),
    "atmosphere.cloud_droplets_cm3": _Rule(False, 0.0, _nonneg, ">= 0"),
    "atmosphere.cloud_path_km": _Rule(False, 0.0, _nonneg, ">= 0"),
    "turbulence.wind_speed_m_s": _Rule(True, None, _nonneg, ">= 0"),
    "turbulence.cn2_ground": _Rule(True, None, _nonneg, ">= 0"),
    "link.tx_power_w": _Rule(True, None, _pos, "> 0"),
    "link.noise_std_a": _Rule(True, None, _pos, "> 0"),
    "link.eve_noise_std_a": _Rule(False, None, _pos, "> 0"),
    "link.target_rate_bits": _Rule(False, 0.5, lambda x: 0.0 <= x < 1024.0,
                                   "in [0, 1024)"),
    "link.eve_snr_ratio_db": _Rule(False, None, math.isfinite, "finite"),
}

# Spelling pairs of which exactly one must appear in the file.
_ALTERNATIVES = (
    ("atmosphere.troposphere_per_km", "atmosphere.troposphere_db_per_km"),
    ("atmosphere.stratosphere_per_km", "atmosphere.stratosphere_db_per_km"),
)

_PHYSICS_SECTIONS = ("geometry", "atmosphere", "turbulence", "link")
_SCALES = ("linear", "log", "db")


@dataclass(frozen=True)
class SweepSpec:
    """One swept leaf: which key, over what range, on what axis.

    ``scale`` picks the point spacing.  ``linear`` and ``log`` space
    the key's own values evenly or geometrically; ``db`` reads start
    and stop as decibels, spaces them evenly on that axis, and
    assigns 10^(x/10) to the key while reporting the decibel value as
    the sweep coordinate.
    """

    variable: str
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def points(self):
        """(coordinate, key value) pairs in sweep order."""
        n = self.count
        if n == 1:
            grid = [self.start]
        else:
            step = (self.stop - self.start) / (n - 1)
            grid = [self.start + i * step for i in range(n)]
        if self.scale == "linear":
            return [(x, x) for x in grid]
        if self.scale == "db":
            key = f"sweep: {self.variable}"
            return [(x, _db_to_linear(key, x)) for x in grid]
        # log: the grid above runs over exponents of the endpoints
        la, lb = math.log(self.start), math.log(self.stop)
        if n == 1:
            exps = [la]
        else:
            exps = [la + i * (lb - la) / (n - 1) for i in range(n)]
        vals = [math.exp(e) for e in exps]
        return [(v, v) for v in vals]


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: raw leaf values plus run controls."""

    values: dict
    methods: tuple = ("quadrature", "closed_form")
    output: str = None
    mc_samples: int = 1_000_000
    mc_seed: int = 0
    sweep: SweepSpec = None

    def value(self, path):
        """The configured value of one leaf, or its default."""
        if path not in _RULES:
            raise ConfigError(f"unknown configuration key {path!r}")
        if path in self.values:
            return self.values[path]
        return _RULES[path].default

    def with_value(self, path, value):
        """Copy with one leaf overridden, its value parsed as in a file."""
        if path not in _RULES:
            raise ConfigError(f"unknown configuration key {path!r}")
        values = dict(self.values)
        values[path] = _parse_number(path, value)
        return replace(self, values=values)


def _parse_number(path, text, cast=float):
    try:
        value = cast(text)
    except ValueError:
        raise ConfigError(f"{path}: cannot parse {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return value


def _int_field(section, key, text, minimum):
    path = f"{section}.{key}"
    value = _parse_number(path, text, int)
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def parse_config(path):
    """Read and validate an INI run configuration file."""
    if not os.path.isfile(path):
        raise ConfigError(f"no such config file: {path}")
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None

    known = set(_PHYSICS_SECTIONS) | {"mc", "run", "sweep"}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")

    values = {}
    for section in _PHYSICS_SECTIONS:
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        for key, text in cp.items(section):
            leaf = f"{section}.{key}"
            if leaf not in _RULES:
                raise ConfigError(f"unknown key {leaf}")
            values[leaf] = _parse_number(leaf, text)

    for leaf, rule in _RULES.items():
        if rule.required and leaf not in values:
            raise ConfigError(f"missing required key {leaf}")
        if leaf in values and rule.ok is not None and not rule.ok(values[leaf]):
            raise ConfigError(
                f"{leaf}: must be {rule.expect}, got {values[leaf]!r}")
    for first, second in _ALTERNATIVES:
        have = (first in values) + (second in values)
        if have != 1:
            raise ConfigError(
                f"exactly one of {first} or {second} is required")

    # only the run controls the file sets: RunConfig holds the defaults
    run = {}
    if cp.has_section("mc"):
        for key, text in cp.items("mc"):
            if key == "samples":
                run["mc_samples"] = _int_field("mc", key, text, 1)
            elif key == "seed":
                run["mc_seed"] = _int_field("mc", key, text, 0)
            else:
                raise ConfigError(f"unknown key mc.{key}")

    if cp.has_section("run"):
        for key, text in cp.items("run"):
            if key == "methods":
                run["methods"] = parse_methods(text, "run.methods")
            elif key == "output":
                run["output"] = text.strip()
            else:
                raise ConfigError(f"unknown key run.{key}")

    if cp.has_section("sweep"):
        run["sweep"] = _parse_sweep(cp, values)

    return RunConfig(values=values, **run)


def parse_methods(text, where="methods"):
    """Comma or space separated method names, deduplicated in order."""
    out = []
    for name in text.replace(",", " ").split():
        if name not in _METHODS:
            raise ConfigError(
                f"{where}: unknown method {name!r}; choose from {_METHODS}")
        if name not in out:
            out.append(name)
    if not out:
        raise ConfigError(f"{where}: at least one method is required")
    return tuple(out)


def _parse_sweep(cp, values):
    entries = dict(cp.items("sweep"))
    unknown = set(entries) - {"variable", "start", "stop", "count", "scale"}
    if unknown:
        raise ConfigError(f"unknown key sweep.{sorted(unknown)[0]}")
    for need in ("variable", "start", "stop", "count"):
        if need not in entries:
            raise ConfigError(f"missing required key sweep.{need}")
    variable = entries["variable"].strip()
    if variable not in _RULES:
        raise ConfigError(f"sweep.variable: {variable!r} names no known leaf")
    for first, second in _ALTERNATIVES:
        if variable == first and second in values:
            raise ConfigError(
                f"sweep.variable: {variable} conflicts with configured {second}")
        if variable == second and first in values:
            raise ConfigError(
                f"sweep.variable: {variable} conflicts with configured {first}")
    start = _parse_number("sweep.start", entries["start"])
    stop = _parse_number("sweep.stop", entries["stop"])
    count = _int_field("sweep", "count", entries["count"], 2)
    scale = entries.get("scale", "linear").strip().lower()
    if scale not in _SCALES:
        raise ConfigError(f"sweep.scale: must be one of {_SCALES}")
    if scale == "log" and not (start > 0.0 and stop > 0.0):
        raise ConfigError("sweep: log scale needs positive start and stop")
    spec = SweepSpec(variable, start, stop, count, scale)
    rule = _RULES[variable]
    for _, raw in spec.points():
        if rule.ok is not None and not rule.ok(raw):
            raise ConfigError(
                f"sweep: point {raw!r} violates {variable} {rule.expect}")
    return spec


def _in_section(section, build):
    # build(), with the ValueError of a model's own check given as the
    # ConfigError of the config section it came from
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def build_geometry(rc):
    """Geometry dataclass from the raw leaves, SI units."""
    return _in_section("geometry", lambda: LinkGeometry(
        wavelength_m=rc.value("geometry.wavelength_nm") * 1e-9,
        satellite_altitude_m=rc.value("geometry.satellite_altitude_km") * 1e3,
        ground_height_m=rc.value("geometry.ground_height_m"),
        zenith_angle_rad=math.radians(rc.value("geometry.zenith_angle_deg")),
        divergence_rad=rc.value("geometry.divergence_urad") * 1e-6,
        aperture_diameter_m=rc.value("geometry.aperture_diameter_cm") * 1e-2,
        pointing_offset_m=rc.value("geometry.pointing_offset_m"),
        eve_separation_m=rc.value("geometry.eve_separation_m"),
        beam_quality=rc.value("geometry.beam_quality"),
    ))


def _extinction(rc, natural_key, db_key):
    natural = rc.values.get(natural_key)
    in_db = rc.values.get(db_key)
    if natural is not None and in_db is not None:
        raise ConfigError(f"both {natural_key} and {db_key} set")
    if in_db is not None:
        return db_per_km_to_natural(in_db)
    if natural is None:
        raise ConfigError(f"exactly one of {natural_key} or {db_key} is required")
    return natural


def build_atmosphere(rc):
    """Atmosphere dataclass with both extinction spellings normalised."""
    return _in_section("atmosphere", lambda: AtmosphereConfig(
        troposphere_per_km=_extinction(rc, "atmosphere.troposphere_per_km",
                                       "atmosphere.troposphere_db_per_km"),
        stratosphere_per_km=_extinction(rc, "atmosphere.stratosphere_per_km",
                                        "atmosphere.stratosphere_db_per_km"),
        stratosphere_extent_km=rc.value("atmosphere.stratosphere_extent_km"),
        cloud_lwc_mg_m3=rc.value("atmosphere.cloud_lwc_mg_m3"),
        cloud_droplets_cm3=rc.value("atmosphere.cloud_droplets_cm3"),
        cloud_path_km=rc.value("atmosphere.cloud_path_km"),
    ))


def build_turbulence(rc):
    return _in_section("turbulence", lambda: TurbulenceProfile(
        wind_speed_m_s=rc.value("turbulence.wind_speed_m_s"),
        cn2_ground=rc.value("turbulence.cn2_ground"),
    ))


@dataclass(frozen=True)
class LinkState:
    """The budget table's columns; the scenario takes SNRs and shapes."""

    path_length_m: float
    atmospheric_gain: float
    pointing_gain_bob: float
    pointing_gain_eve: float
    cloud_gain: float
    mean_snr_bob: float
    mean_snr_eve: float
    rytov_variance: float
    shape_a: float
    shape_b: float


def _budget_snr(receiver, pointing_key, power, noise, h_a, h_s, h_c):
    # mean SNR of one receiver's budget; one that overflows is named by
    # link.tx_power_w, one that underflows by the key of its smallest factor
    gain = h_a * h_s * h_c
    try:
        snr = (_in_section("link", lambda: mean_snr_from_budget(
            power, noise, gain)) if gain > 0.0 else 0.0)
    except OverflowError:
        snr = math.inf
    if not 0.0 < snr < math.inf:
        factors = {pointing_key: h_s, "atmosphere": h_a * h_c,
                   "link.tx_power_w": power / noise}
        key = min(factors, key=factors.get) if snr == 0.0 else "link.tx_power_w"
        raise ConfigError(f"{key}: {receiver}'s mean SNR "
                          f"{'overflows a float' if snr else 'underflows to 0'}")
    return snr


def link_state(rc):
    """Evaluate the deterministic budget and the fading shapes.

    The single cloud gain h_c multiplies both Bob's budget
    h_a * h_s_bob * h_c and Eve's budget h_a * h_s_eve * h_c; with an
    explicit SNR ratio, Eve's SNR follows Bob's and so carries h_c too.
    """
    geom = build_geometry(rc)
    atm = build_atmosphere(rc)
    profile = build_turbulence(rc)

    h_a = atmospheric_loss(geom, atm)
    h_c = cloud_attenuation(geom, atm)
    h_s_bob = collection_fraction(geom, geom.pointing_offset_m)
    h_s_eve = collection_fraction(geom, geom.pointing_offset_m,
                                  geom.eve_separation_m)

    power = rc.value("link.tx_power_w")
    noise_bob = rc.value("link.noise_std_a")
    noise_eve = rc.value("link.eve_noise_std_a")
    if noise_eve is None:
        noise_eve = noise_bob
    snr_bob = _budget_snr("Bob", "geometry.pointing_offset_m", power,
                          noise_bob, h_a, h_s_bob, h_c)
    ratio_db = rc.value("link.eve_snr_ratio_db")
    if ratio_db is not None:
        snr_eve = snr_bob * _db_to_linear("link.eve_snr_ratio_db", ratio_db)
        if not 0.0 < snr_eve < math.inf:
            raise ConfigError(
                f"link.eve_snr_ratio_db: {ratio_db!r} dB "
                f"{'overflows' if snr_eve else 'underflows'} Eve's mean SNR")
    else:
        snr_eve = _budget_snr("Eve", "geometry.eve_separation_m", power,
                              noise_eve, h_a, h_s_eve, h_c)

    rytov = rytov_variance(profile, geom)
    a, b = fading_shapes_from_rytov(rytov)
    return LinkState(
        path_length_m=path_length(geom),
        atmospheric_gain=h_a,
        pointing_gain_bob=h_s_bob,
        pointing_gain_eve=h_s_eve,
        cloud_gain=h_c,
        mean_snr_bob=snr_bob,
        mean_snr_eve=snr_eve,
        rytov_variance=rytov,
        shape_a=a,
        shape_b=b,
    )


def build_scenario(rc):
    """Wiretap scenario for the configured link.

    Bob and Eve share the slant path, so both branches carry the same
    fading shape pair; they differ in pointing gain and noise (or in
    the explicit SNR ratio when one is configured).
    """
    state = link_state(rc)
    fading = FFadingParams(state.shape_a, state.shape_b)
    return _in_section("link", lambda: WiretapScenario(
        bob=SnrChannel(fading, state.mean_snr_bob),
        eve=SnrChannel(fading, state.mean_snr_eve),
        target_rate=rc.value("link.target_rate_bits"),
    ))
