"""Command-line front end.

Three subcommands: ``link-budget`` prints the deterministic budget
per sweep point, ``metrics`` evaluates the secrecy metrics for every
requested method, ``validate`` cross-checks the analytic methods
against Monte Carlo and fails on any z-score above three.

Output is CSV with a header row; numbers below 1e-3 in magnitude are
forced to scientific notation so spreadsheet locale guessing never
bites.  A run manifest (config digest, seed, versions) goes next to
every file written, named ``<out>.manifest.json``.  All output is a
pure function of configuration plus seed: the same invocation gives
byte-identical files.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical non-convergence.
"""

import argparse
import hashlib
import json
import math
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .config import build_scenario, link_state, parse_config, parse_methods
from .errors import ConfigError, NonConvergent, PoleCollision
from .mc import MC_METRICS, McConfig, mc_metrics
from .secrecy import MetricValue, evaluate_scenario

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_CONFIG = 2
_EXIT_NUMERICS = 3

_BUDGET_COLUMNS = ("path_length_m", "atmospheric_gain", "pointing_gain_bob",
                   "pointing_gain_eve", "cloud_gain", "mean_snr_bob",
                   "mean_snr_eve", "rytov_variance", "shape_a", "shape_b")


def fmt_number(x):
    """Deterministic CSV cell for a float."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x != 0.0 and abs(x) >= 1e-3:
        return repr(x)
    return f"{x:e}"


def _sweep_points(rc):
    """(coordinate string, per-point config) pairs; one entry if unswept."""
    if rc.sweep is None:
        return [("", rc)]
    out = []
    for coord, raw in rc.sweep.points():
        out.append((fmt_number(coord), rc.with_value(rc.sweep.variable, raw)))
    return out


def _csv(header, rows):
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _map_points(items, worker, jobs):
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def _rows_over_points(rc, methods, jobs, point_rows):
    """Rows of point_rows(coord, rc_point, methods, jobs_inside) over the
    sweep.  The points share the jobs threads, or a single point gives
    them all to its Monte Carlo."""
    points = _sweep_points(rc)
    jobs_inside = 1 if (jobs > 1 and len(points) > 1) else jobs

    def worker(item):
        coord, rc_point = item
        return point_rows(coord, rc_point, methods, jobs_inside)

    return [row for chunk in _map_points(points, worker, jobs) for row in chunk]


def _evaluate_point(rc, methods, jobs_inside):
    """(method, outcome) pairs of one sweep point, in the order of methods.

    The outcome is the method's MetricValues, or the status string
    that replaces them when building the scenario or the method fails.
    """
    try:
        scenario = build_scenario(rc)
    except NonConvergent:
        return [(method, "non_convergent") for method in methods]
    out = []
    for method in methods:
        try:
            if method == "monte_carlo":
                cfg = McConfig(samples=rc.mc_samples, seed=rc.mc_seed,
                               jobs=jobs_inside, batch_size=rc.mc_batch_size)
                outcome = [MetricValue(name, method, est.mean, est.std_error)
                           for name, est in zip(MC_METRICS,
                                                mc_metrics(scenario, cfg))]
            else:
                outcome = evaluate_scenario(scenario, method)
        except PoleCollision:
            outcome = "pole_collision"
        except NonConvergent:
            outcome = "non_convergent"
        out.append((method, outcome))
    return out


def _metric_rows_for_point(coord, rc, methods, jobs_inside):
    """All CSV rows of one sweep point; failures become status rows."""
    rows = []
    for method, outcome in _evaluate_point(rc, methods, jobs_inside):
        if isinstance(outcome, str):
            rows.append((coord, "all", method, "", "", outcome))
            continue
        for mv in outcome:
            rows.append((coord, mv.metric, mv.method, fmt_number(mv.value),
                         fmt_number(mv.error), "ok"))
    return rows


def cmd_metrics(rc, methods, jobs, gnuplot=False):
    """Rows for every sweep point and method; (text, worst status)."""
    rows = _rows_over_points(rc, methods, jobs, _metric_rows_for_point)
    failed = any(row[5] != "ok" for row in rows)
    if gnuplot:
        text = _gnuplot_table(rows)
    else:
        text = _csv("sweep_value,metric,method,value,error,status", rows)
    return text, failed


def _gnuplot_table(rows):
    """Wide whitespace-separated layout, one column per metric/method."""
    columns = []
    for _, metric, method, _, _, _ in rows:
        name = f"{metric}:{method}"
        if metric != "all" and name not in columns:
            columns.append(name)
    coords = []
    table = {}
    for coord, metric, method, value, _, status in rows:
        if coord not in table:
            coords.append(coord)
            table[coord] = {}
        if metric != "all" and status == "ok":
            table[coord][f"{metric}:{method}"] = value
    lines = ["# sweep_value " + " ".join(columns)]
    for coord in coords:
        cells = [table[coord].get(name, "nan") for name in columns]
        lines.append(" ".join([coord if coord else "0"] + cells))
    return "\n".join(lines) + "\n"


def cmd_link_budget(rc, jobs):
    """Deterministic budget table text over the sweep."""

    def worker(item):
        coord, rc_point = item
        state = link_state(rc_point)
        return (coord,) + tuple(
            fmt_number(getattr(state, name)) for name in _BUDGET_COLUMNS)

    rows = _map_points(_sweep_points(rc), worker, jobs)
    return _csv("sweep_value," + ",".join(_BUDGET_COLUMNS), rows)


def _validate_rows_for_point(coord, rc, methods, jobs_inside):
    """z-score rows of one sweep point; failures become status rows."""
    outcomes = _evaluate_point(rc, methods, jobs_inside)
    mc = dict(outcomes)["monte_carlo"]
    reference = {} if isinstance(mc, str) else {e.metric: e for e in mc}
    rows = []
    for method, outcome in outcomes:
        if isinstance(outcome, str):
            rows.append((coord, "all", method, "", "", "", "", outcome))
            continue
        for mv in outcome:
            est = reference.get(mv.metric)
            if method == "monte_carlo" or est is None:
                continue
            diff = mv.value - est.value
            if est.error > 0.0:
                z = diff / est.error
            else:
                # a degenerate sample (all batches identical, e.g. zero
                # outage events) has no usable std error; score against
                # the rule-of-three bound 3/n instead
                z = diff * rc.mc_samples
            verdict = "pass" if abs(z) <= 3.0 else "fail"
            rows.append((coord, mv.metric, mv.method, fmt_number(mv.value),
                         fmt_number(est.value), fmt_number(est.error),
                         fmt_number(z), verdict))
    return rows


def cmd_validate(rc, methods, jobs):
    """Analytic-vs-MC z-score table; (text, any_fail, any_status).

    Pairs each analytic estimate with the Monte Carlo estimate of the
    same metric.  The outage lower bound has no Monte Carlo
    counterpart (the sampler estimates the true outage), so it is
    skipped; at zero target rate the bound is exact and enters
    through spsc anyway.  A method that fails gives one status row
    per point, with the status string of ``metrics``.
    """
    rows = _rows_over_points(rc, methods, jobs, _validate_rows_for_point)
    text = _csv("sweep_value,metric,method,analytic,mc_mean,mc_std_error,"
                "z_score,status", rows)
    any_fail = any(row[7] == "fail" for row in rows)
    any_status = any(row[7] not in ("pass", "fail") for row in rows)
    return text, any_fail, any_status


def _manifest(rc, args, command, out_path):
    with open(args.config, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return json.dumps({
        "command": command,
        "config": args.config,
        "config_sha256": digest,
        "jobs": args.jobs,
        "methods": list(_resolved_methods(rc, args)),
        "mc_samples": rc.mc_samples,
        "numpy_version": np.__version__,
        "output": out_path,
        "python_version": platform.python_version(),
        "seed": rc.mc_seed,
        "version": __version__,
    }, sort_keys=True, indent=2) + "\n"


def _resolved_methods(rc, args):
    if getattr(args, "methods", None):
        return parse_methods(args.methods, "--methods")
    return rc.methods


def _write(text, out_path, manifest_text=None):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", newline="") as fh:
        fh.write(text)
    if manifest_text is not None:
        with open(out_path + ".manifest.json", "w", newline="") as fh:
            fh.write(manifest_text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fsosec",
        description="Secrecy metrics of a satellite-to-ground optical "
                    "downlink against a co-located eavesdropper.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("link-budget", "deterministic gains and mean SNR"),
                      ("metrics", "secrecy metrics per sweep point"),
                      ("validate", "analytic vs Monte Carlo z-scores")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the MC seed")
        p.add_argument("--methods",
                       help="comma-separated subset of quadrature, "
                            "closed_form, monte_carlo")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker threads (default 1)")
        if name == "metrics":
            p.add_argument("--gnuplot", action="store_true",
                           help="wide whitespace table instead of CSV")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        rc = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            rc = replace(rc, mc_seed=args.seed)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        methods = _resolved_methods(rc, args)
        out_path = args.out if args.out is not None else rc.output

        if args.command == "link-budget":
            text = cmd_link_budget(rc, args.jobs)
            _write(text, out_path, _manifest(rc, args, args.command, out_path))
            return _EXIT_OK
        if args.command == "metrics":
            text, failed = cmd_metrics(rc, methods, args.jobs,
                                       gnuplot=args.gnuplot)
            _write(text, out_path, _manifest(rc, args, args.command, out_path))
            return _EXIT_NUMERICS if failed else _EXIT_OK
        if "monte_carlo" not in methods or len(methods) < 2:
            raise ConfigError("validate needs monte_carlo plus at least "
                              "one analytic method")
        text, any_fail, any_status = cmd_validate(rc, methods, args.jobs)
        _write(text, out_path, _manifest(rc, args, args.command, out_path))
        if any_status:
            return _EXIT_NUMERICS
        if any_fail:
            return _EXIT_VALIDATION
        return _EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (NonConvergent, PoleCollision) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
