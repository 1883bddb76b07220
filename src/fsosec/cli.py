"""Command-line front end.

Three subcommands: ``link-budget`` prints the deterministic budget
per sweep point, ``metrics`` evaluates the secrecy metrics for every
requested method, ``validate`` cross-checks the analytic methods
against Monte Carlo and fails on any z-score above three.

Output is CSV with a header row; numbers below 1e-3 in magnitude are
forced to scientific notation so spreadsheet locale guessing never
bites.  A route that fails at a point gives the status row
``non_convergent`` in place of its numbers.  A run manifest (config
digest, seed, versions) goes next to every file written, named
``<out>.manifest.json``.  All output is a pure function of
configuration plus seed: the same invocation gives byte-identical files.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical non-convergence.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from contextlib import suppress
from dataclasses import astuple, fields, replace

import numpy as np

from . import __version__
from .config import (LinkState, build_scenario, link_state, parse_config,
                     parse_methods)
from .errors import ConfigError, NonConvergent
from .mc import MC_METRICS, McConfig, mc_metrics
from .secrecy import MetricValue, _routes, evaluate_scenario

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_CONFIG = 2
_EXIT_NUMERICS = 3


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


def _rows_over_points(rc, methods, jobs, point_rows):
    """Rows of point_rows(coord, rc_point, methods, jobs) over the sweep,
    point by point in sweep order; jobs goes to each point's Monte Carlo."""
    return [row for coord, rc_point in _sweep_points(rc)
            for row in point_rows(coord, rc_point, methods, jobs)]


def _evaluate_point(rc, methods, jobs):
    """(metric, method, outcome) of each row of one sweep point, method
    by method in the order of methods, every metric of each.

    The outcome is the route's MetricValue or the NonConvergent it
    raised; a scenario that cannot be built fails every route with its
    NonConvergent.
    """
    names = {method: MC_METRICS if method == "monte_carlo" else
             [metric for metric, _, _ in _routes(method)]
             for method in methods}
    try:
        scenario = build_scenario(rc)
    except NonConvergent as exc:
        return [(metric, method, exc)
                for method in methods for metric in names[method]]
    outcomes = evaluate_scenario(
        scenario, [m for m in methods if m != "monte_carlo"])
    if "monte_carlo" in methods:
        cfg = McConfig(samples=rc.mc_samples, seed=rc.mc_seed, jobs=jobs)
        outcomes["monte_carlo"] = [
            MetricValue(name, "monte_carlo", est.mean, est.std_error)
            for name, est in zip(MC_METRICS, mc_metrics(scenario, cfg))]
    return [(metric, method, outcome) for method in methods
            for metric, outcome in zip(names[method], outcomes[method])]


def _metric_rows_for_point(coord, rc, methods, jobs):
    """All CSV rows of one sweep point; a failed route is a status row."""
    rows = []
    for metric, method, outcome in _evaluate_point(rc, methods, jobs):
        cells = (("", "", "non_convergent")
                 if isinstance(outcome, NonConvergent) else
                 (fmt_number(outcome.value), fmt_number(outcome.error), "ok"))
        rows.append((coord, metric, method) + cells)
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
    columns = list(dict.fromkeys(f"{row[1]}:{row[2]}" for row in rows))
    table = {}
    for coord, metric, method, value, _, status in rows:
        cells = table.setdefault(coord, {})
        if status == "ok":
            cells[f"{metric}:{method}"] = value
    lines = ["# sweep_value " + " ".join(columns)]
    for coord, cells in table.items():
        lines.append(" ".join([coord or "0"] + [cells.get(name, "nan")
                                                for name in columns]))
    return "\n".join(lines) + "\n"


def cmd_link_budget(rc):
    """Deterministic budget table text over the sweep."""
    rows = [(coord,) + tuple(map(fmt_number, astuple(link_state(rc_point))))
            for coord, rc_point in _sweep_points(rc)]
    columns = ["sweep_value"] + [field.name for field in fields(LinkState)]
    return _csv(",".join(columns), rows)


def _validate_rows_for_point(coord, rc, methods, jobs):
    """z-score rows of one sweep point; a failed route is a status row,
    and a metric Monte Carlo does not estimate gives no row."""
    outcomes = _evaluate_point(rc, methods, jobs)
    reference = {metric: est for metric, method, est in outcomes
                 if method == "monte_carlo"}
    rows = []
    for metric, method, mv in outcomes:
        if metric not in MC_METRICS:
            continue
        if isinstance(mv, NonConvergent):
            rows.append((coord, metric, method, "", "", "", "",
                         "non_convergent"))
            continue
        if method == "monte_carlo":
            continue
        est = reference[metric]
        diff = mv.value - est.value
        if est.error > 0.0:
            z = diff / est.error
        else:
            # a degenerate sample (all batches identical, e.g. zero
            # outage events) has no usable std error; score against
            # the rule-of-three bound 3/n instead
            z = diff * rc.mc_samples
        verdict = "pass" if abs(z) <= 3.0 else "fail"
        rows.append((coord, metric, method, fmt_number(mv.value),
                     fmt_number(est.value), fmt_number(est.error),
                     fmt_number(z), verdict))
    return rows


def cmd_validate(rc, methods, jobs):
    """Analytic-vs-MC z-score table; (text, any_fail, any_status).

    Pairs each analytic estimate with the Monte Carlo estimate of the
    same metric.  The outage lower bound has no Monte Carlo
    counterpart (the sampler estimates the true outage), so its rows
    are skipped, a failed one too; at zero target rate the bound is
    exact and enters through spsc anyway.  A route of another metric
    that fails gives its ``non_convergent`` status row, as in
    ``metrics``.
    """
    rows = _rows_over_points(rc, methods, jobs, _validate_rows_for_point)
    text = _csv("sweep_value,metric,method,analytic,mc_mean,mc_std_error,"
                "z_score,status", rows)
    any_fail = any(row[7] == "fail" for row in rows)
    any_status = any(row[7] not in ("pass", "fail") for row in rows)
    return text, any_fail, any_status


def _manifest(rc, args, methods, out_path):
    with open(args.config, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return json.dumps({
        "command": args.command,
        "config": args.config,
        "config_sha256": digest,
        "jobs": args.jobs,
        "methods": list(methods),
        "mc_samples": rc.mc_samples,
        "numpy_version": np.__version__,
        "output": out_path,
        "python_version": platform.python_version(),
        "seed": rc.mc_seed,
        "version": __version__,
    }, sort_keys=True, indent=2) + "\n"


def _write(text, out_path, manifest_text):
    if out_path is None:
        sys.stdout.write(text)
        return
    written = []
    try:
        for path, content in ((out_path, text),
                              (out_path + ".manifest.json", manifest_text)):
            with open(path, "w", newline="") as fh:
                written.append(path)
                fh.write(content)
    except OSError as exc:
        # a file this run opened is incomplete or orphaned: remove it
        for done in written:
            with suppress(OSError):
                os.remove(done)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from None


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
                       help="Monte Carlo worker threads (default 1); sweep "
                            "points run in order and the output is the same "
                            "at any value")
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
        methods = (parse_methods(args.methods, "--methods")
                   if args.methods else rc.methods)
        out_path = args.out if args.out is not None else rc.output

        if args.command == "link-budget":
            text, code = cmd_link_budget(rc), _EXIT_OK
        elif args.command == "metrics":
            text, failed = cmd_metrics(rc, methods, args.jobs,
                                       gnuplot=args.gnuplot)
            code = _EXIT_NUMERICS if failed else _EXIT_OK
        else:
            if "monte_carlo" not in methods or len(methods) < 2:
                raise ConfigError("validate needs monte_carlo plus at least "
                                  "one analytic method")
            text, any_fail, any_status = cmd_validate(rc, methods, args.jobs)
            code = (_EXIT_NUMERICS if any_status else
                    _EXIT_VALIDATION if any_fail else _EXIT_OK)
        _write(text, out_path, _manifest(rc, args, methods, out_path))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NonConvergent as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
