"""Seeded inputs, timed runs and correctness gates of the workloads.

analytic-sweep  ``fsosec metrics --methods quadrature,closed_form`` on
                seeded variants of the shipped turbulence and SNR-ratio
                sweeps: quadrature, fading and specfun, no Monte Carlo.
mc-sweep        ``fsosec metrics --methods monte_carlo`` on a seeded
                variant of the shipped zenith sweep: mc and the sampler,
                no quadrature.
edge-scenarios  serial library calls of all seven analytic metric x
                route functions on draws from the wider F-law domain
                the config path cannot reach; bypasses the cli.

Both sweeps run at ``--jobs 1``: on a shared two-vCPU host the
two-thread runs spread two to five times wider between runs than the
serial ones, because a second vCPU is only intermittently available.

Every workload writes its generated inputs to a temporary directory,
runs from there, and checks every operation (one metric by one route
at one point) with the gate below.  Each point is timed right after
one run of the reference kernel ``calibrate``; ``run.reference_pass``
turns the two times into a time at the reference speed.  A failed operation is a status row
other than ``ok``, an exception, a NaN, or a value the gate rejects.
"""

import configparser
import csv
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass

import numpy

import fsosec.cli as cli
import fsosec.secrecy as secrecy
from fsosec.config import build_scenario, parse_config
from fsosec.fading import FFadingParams, SnrChannel

# roundoff allowance of the route-agreement gate, relative to max(1, |v|);
# the reported errors are the tolerance, this only absorbs last-bit noise
_ROUNDING = 8.0 * sys.float_info.epsilon

JOBS = 1

ANALYTIC_OPS = (("asc", "quadrature"), ("sop", "quadrature"),
                ("sop_lb", "quadrature"), ("spsc", "quadrature"),
                ("asc", "closed_form"), ("sop_lb", "closed_form"),
                ("spsc", "closed_form"))
MC_OPS = (("asc", "monte_carlo"), ("sop", "monte_carlo"),
          ("spsc", "monte_carlo"))


def route_gate(values, rate):
    """Operations of one point that fail the analytic cross-checks.

    values maps (metric, method) to (value, error).  Quadrature and
    closed form must agree within the sum of their reported errors;
    at target rate 0 the outage lower bound must equal the exact
    outage and SPSC must be its complement.  Both sides of a failed
    comparison count as failed.
    """
    failed = set()

    def agree(k1, k2, complement=False):
        if k1 not in values or k2 not in values:
            return
        (v1, e1), (v2, e2) = values[k1], values[k2]
        other = 1.0 - v2 if complement else v2
        allow = e1 + e2 + _ROUNDING * max(1.0, abs(v1), abs(v2))
        if not abs(v1 - other) <= allow:
            failed.update((k1, k2))

    for metric in ("asc", "sop_lb", "spsc"):
        agree((metric, "quadrature"), (metric, "closed_form"))
    if rate == 0.0:
        agree(("sop", "quadrature"), ("sop_lb", "quadrature"))
        agree(("sop", "quadrature"), ("sop_lb", "closed_form"))
        agree(("sop", "quadrature"), ("spsc", "quadrature"), complement=True)
        agree(("sop_lb", "closed_form"), ("spsc", "closed_form"),
              complement=True)
    return failed


def mc_gate(values, reference, samples):
    """Monte Carlo operations of one point off their quadrature value.

    values maps (metric, "monte_carlo") to (mean, std_error), reference
    maps metric to the quadrature value.  The allowance is max(1%,
    3 standard errors); a sample with no spread (no outage event at
    all) has no usable standard error and is held to the rule-of-three
    bound 3/n instead, as ``fsosec validate`` does.
    """
    failed = set()
    for key, (mean, se) in values.items():
        ref = reference[key[0]]
        allow = max(0.01 * abs(ref), 3.0 * se if se > 0.0 else 3.0 / samples)
        if not abs(mean - ref) <= allow:
            failed.add(key)
    return failed


def _read_csv(path):
    """Points of a ``fsosec metrics`` CSV in sweep order, each a dict
    {(metric, method): (value, error)} of its ok, non-NaN rows."""
    points = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            values = points.setdefault(row["sweep_value"], {})
            if row["status"] != "ok":
                continue
            value, error = float(row["value"]), float(row["error"])
            if not (math.isnan(value) or math.isnan(error)):
                values[(row["metric"], row["method"])] = (value, error)
    return list(points.values())


def failed_ops(ops, values, gated):
    """Operations of one point that are missing (status row, exception,
    NaN) or that the gate rejected."""
    return {k for k in ops if k not in values} | gated


def _jittered_config(shipped, out, rng, count=None, mc=None):
    """Copy a shipped sweep config with both endpoints moved inward by
    up to a tenth of the range, on the sweep's own axis."""
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    with open(shipped) as fh:
        cp.read_file(fh)
    start, stop = float(cp["sweep"]["start"]), float(cp["sweep"]["stop"])
    log = cp["sweep"].get("scale", "linear") == "log"
    lo, hi = (math.log(start), math.log(stop)) if log else (start, stop)
    span = hi - lo
    lo, hi = lo + 0.1 * span * rng.random(), hi - 0.1 * span * rng.random()
    cp["sweep"]["start"] = repr(math.exp(lo) if log else lo)
    cp["sweep"]["stop"] = repr(math.exp(hi) if log else hi)
    if count is not None:
        cp["sweep"]["count"] = str(count)
    if mc is not None:
        for key, value in mc.items():
            cp["mc"][key] = str(value)
    cp.remove_section("run")
    with open(out, "w") as fh:
        cp.write(fh)
    return str(out)


def _setup_snippet(body):
    # run as `python3 -c SNIPPET <src dir> <input>`; prints its own
    # set-up seconds, from before the import to the first metric call
    return ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import fsosec.cli\n"
            + body +
            "print(time.perf_counter() - t0)\n")


_CAL_X = numpy.linspace(0.01, 50.0, 3000)


def calibrate():
    """Seconds of one run of a fixed reference kernel, about 2 ms.

    The kernel mixes what fsosec's hot paths do: an interpreted integer
    loop, scalar math calls and numpy ufuncs on a few thousand points.
    Every point of a pass is timed right after one run of it, so the
    point's time over the kernel's time cancels the host's speed at
    that moment (see README.md, "Steadiness").
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    for i in range(1, 1500):
        acc += math.exp(-i * 1e-3) * math.log(i) + math.lgamma(1.0 + i * 1e-3)
    for k in range(4):
        y = (numpy.exp(-_CAL_X * (1.0 + 1e-3 * k)) * _CAL_X ** 2.5
             / (1.0 + _CAL_X) ** 3.1 + numpy.log1p(_CAL_X))
        acc += float(y.sum())
    return time.perf_counter() - t0


@dataclass
class Iteration:
    """One timed pass over a workload's inputs.

    latencies_ms maps each sweep point or scenario to its milliseconds,
    calibration_ms to those of the reference kernel run just before
    it; wall_s covers both.
    """

    wall_s: float
    latencies_ms: dict
    calibration_ms: dict
    attempted: int
    failed: int


class _Sweep:
    """A ``fsosec metrics`` run over generated sweep configs."""

    methods = None
    ops = ()
    pairs_reported = 0
    setup_body = ("from fsosec.config import build_scenario, parse_config\n"
                  "rc = parse_config(sys.argv[2])\n"
                  "raw = rc.sweep.points()[0][1]\n"
                  "build_scenario(rc.with_value(rc.sweep.variable, raw))\n")

    def __init__(self, configs):
        self.configs = configs
        self.counts = [parse_config(cfg).sweep.count for cfg in configs]
        self.points = sum(self.counts)
        self.setup_snippet = _setup_snippet(self.setup_body)
        self.setup_input = configs[0]

    def run(self):
        latencies, calibration = {}, {}
        real_worker = cli._metric_rows_for_point

        def timed_worker(coord, *args, **kwargs):
            calibration[(config, coord)] = 1e3 * calibrate()
            t0 = time.perf_counter()
            try:
                return real_worker(coord, *args, **kwargs)
            finally:
                latencies[(config, coord)] = 1e3 * (time.perf_counter() - t0)

        for cfg in self.configs:
            if os.path.exists(cfg + ".csv"):
                os.remove(cfg + ".csv")
        cli._metric_rows_for_point = timed_worker
        try:
            t0 = time.perf_counter()
            for config, cfg in enumerate(self.configs):
                cli.main(["metrics", "--config", cfg, "--methods", self.methods,
                          "--jobs", str(JOBS), "--out", cfg + ".csv"])
            wall = time.perf_counter() - t0
        finally:
            cli._metric_rows_for_point = real_worker
        attempted, failed = self.check()
        return Iteration(wall, latencies, calibration, attempted, failed)

    def check(self):
        """(attempted, failed) operations of the last run's CSV files."""
        attempted = failed = 0
        for index, (cfg, count) in enumerate(zip(self.configs, self.counts)):
            try:
                points = _read_csv(cfg + ".csv")
            except (OSError, KeyError, ValueError):
                points = []
            attempted += count * len(self.ops)
            failed += (count - len(points)) * len(self.ops)
            for i, values in enumerate(points[:count]):
                failed += len(failed_ops(self.ops, values,
                                         self.gate(index, i, values)))
        return attempted, failed


class AnalyticSweep(_Sweep):
    """15 points of the turbulence and SNR-ratio sweeps, analytic routes."""

    methods = "quadrature,closed_form"
    ops = ANALYTIC_OPS
    shipped = (("turbulence-sweep.cfg", 9), ("snr-ratio-sweep.cfg", 6))

    def __init__(self, root, seed, tmp, tiny=False):
        rng = random.Random(seed)
        configs = [_jittered_config(root / "configs" / name, tmp / name, rng,
                                    count=2 if tiny else count)
                   for name, count in self.shipped]
        super().__init__(configs)
        self.rates = [parse_config(cfg).value("link.target_rate_bits")
                      for cfg in configs]

    def prepare(self):
        pass

    def gate(self, config_index, point_index, values):
        return route_gate(values, self.rates[config_index])


class McSweep(_Sweep):
    """4 points of the zenith sweep at 1e6 draws, Monte Carlo only."""

    methods = "monte_carlo"
    ops = MC_OPS

    def __init__(self, root, seed, tmp, tiny=False):
        rng = random.Random(seed)
        mc = {"seed": rng.randrange(2 ** 31)}
        if tiny:
            mc["samples"] = 20000
        name = "zenith-sweep.cfg"
        cfg = _jittered_config(root / "configs" / name, tmp / name, rng,
                               count=2 if tiny else 4, mc=mc)
        super().__init__([cfg])
        self.samples = parse_config(cfg).mc_samples
        self.pairs_reported = self.points * self.samples
        self.reference = None

    def prepare(self):
        """Quadrature value of every point, outside the timed region."""
        rc = parse_config(self.configs[0])
        self.reference = []
        for _, raw in rc.sweep.points():
            scenario = build_scenario(rc.with_value(rc.sweep.variable, raw))
            self.reference.append({
                "asc": secrecy.asc_quadrature(scenario).value,
                "sop": secrecy.sop_exact(scenario).value,
                "spsc": secrecy.spsc(scenario, method="quadrature").value})

    def gate(self, config_index, point_index, values):
        return mc_gate(values, self.reference[point_index], self.samples)


# the edge domain: shapes a, b and mean SNR log-uniform, ratio uniform in dB
_EDGE_AXES = ((math.log(0.3), math.log(30.0)),
              (math.log(1.05), math.log(40.0)),
              (math.log(1e-3), math.log(1e10)),
              (-30.0, 10.0))
_EDGE_RATES = (0.0, 0.5, 2.0)
_EDGE_CALLS = ((("asc", "quadrature"), "asc_quadrature", {}),
               (("asc", "closed_form"), "asc_closed_form", {}),
               (("sop", "quadrature"), "sop_exact", {}),
               (("sop_lb", "quadrature"), "sop_lower_bound",
                {"method": "quadrature"}),
               (("sop_lb", "closed_form"), "sop_lower_bound",
                {"method": "closed_form"}),
               (("spsc", "quadrature"), "spsc", {"method": "quadrature"}),
               (("spsc", "closed_form"), "spsc", {"method": "closed_form"}))


def draw_edge_scenarios(seed, count):
    """Stratified draws over the edge domain.

    Each axis is cut into count equal strata and every stratum is hit
    once.  Which strata of the axes meet in one scenario, and its
    target rate (0, 0.5 or 2 bits), is a fixed Latin-hypercube design;
    the seed moves every scenario to a random point of its cell.  So
    every seed covers the whole domain alike, and seeds differ in
    their inputs but not in the mix of hard and easy corners.
    """
    design = random.Random(f"edge-design-{count}")
    rng = random.Random(seed)
    columns = []
    for lo, hi in _EDGE_AXES:
        strata = list(range(count))
        design.shuffle(strata)
        columns.append([lo + (hi - lo) * (k + rng.random()) / count
                        for k in strata])
    rates = [_EDGE_RATES[i % len(_EDGE_RATES)] for i in range(count)]
    design.shuffle(rates)
    return [{"a": math.exp(la), "b": math.exp(lb), "mean_snr": math.exp(ls),
             "eve_ratio_db": db, "rate": rate}
            for la, lb, ls, db, rate in zip(*columns, rates)]


def edge_scenario(draw):
    """Wiretap scenario of one draw; both branches share the shapes."""
    fading = FFadingParams(draw["a"], draw["b"])
    snr_eve = draw["mean_snr"] * 10.0 ** (draw["eve_ratio_db"] / 10.0)
    return secrecy.WiretapScenario(SnrChannel(fading, draw["mean_snr"]),
                                   SnrChannel(fading, snr_eve), draw["rate"])


class EdgeScenarios:
    """16 drawn scenarios, all seven analytic metric x route calls each."""

    ops = ANALYTIC_OPS
    pairs_reported = 0
    setup_body = ("import json\n"
                  "from fsosec.fading import FFadingParams, SnrChannel\n"
                  "from fsosec.secrecy import WiretapScenario\n"
                  "for d in json.load(open(sys.argv[2])):\n"
                  "    f = FFadingParams(d['a'], d['b'])\n"
                  "    WiretapScenario(SnrChannel(f, d['mean_snr']), SnrChannel(\n"
                  "        f, d['mean_snr'] * 10.0 ** (d['eve_ratio_db'] / 10.0)),\n"
                  "        d['rate'])\n")

    def __init__(self, root, seed, tmp, tiny=False):
        self.draws = draw_edge_scenarios(seed, 3 if tiny else 16)
        self.setup_input = str(tmp / "scenarios.json")
        with open(self.setup_input, "w") as fh:
            json.dump(self.draws, fh, indent=1)
        self.setup_snippet = _setup_snippet(self.setup_body)
        self.points = len(self.draws)
        self.scenarios = None

    def prepare(self):
        self.scenarios = [edge_scenario(d) for d in self.draws]

    def run(self):
        latencies, calibration = {}, {}
        results = []
        t_start = time.perf_counter()
        for index, scenario in enumerate(self.scenarios):
            values = {}
            calibration[index] = 1e3 * calibrate()
            t0 = time.perf_counter()
            for key, name, kwargs in _EDGE_CALLS:
                try:
                    mv = getattr(secrecy, name)(scenario, **kwargs)
                except Exception as exc:  # every failure is a counted op
                    print(f"edge: {name}{key} failed: {exc!r}",
                          file=sys.stderr)
                    continue
                if not (math.isnan(mv.value) or math.isnan(mv.error)):
                    values[key] = (mv.value, mv.error)
            latencies[index] = 1e3 * (time.perf_counter() - t0)
            results.append((scenario.target_rate, values))
        wall = time.perf_counter() - t_start
        failed = sum(len(failed_ops(self.ops, values, route_gate(values, rate)))
                     for rate, values in results)
        return Iteration(wall, latencies, calibration,
                         len(results) * len(self.ops), failed)


WORKLOADS = {"analytic-sweep": AnalyticSweep, "mc-sweep": McSweep,
             "edge-scenarios": EdgeScenarios}
