"""Bit-for-bit comparison of every analytic route between two checkouts.

Run from anywhere, with two checkouts of the repository:

    python3 tools/route_identity.py BEFORE AFTER

Each checkout is imported from its own src/ in a child process, which
draws 300 wiretap scenarios from a domain seeded with 0: shapes a in
0.3-300 and b in 1.05-300, Bob's mean SNR in 1e-3-1e10 (all three
log-uniform), Eve's mean SNR -60 to +20 dB from Bob's, target rate 0,
0.5, 2 or 8 bits, and every second scenario with shapes of Eve's own.
Per scenario it records float.hex of value and error, or the type of
the exception raised, of the seven standalone routes and of the seven
metric x route outcomes of evaluate_scenario over both analytic
methods.  A checkout whose evaluate_scenario gives one exception for a
whole method counts it for each of the method's rows, so comparing it
with one whose outcome is per route lists exactly the routes that
gained or lost rows.  It also records a digest
of reg_inc_beta on 300 seeded point sets of up to 1500 points (with
0, 1 and nan among them).  Then each checkout runs ``fsosec
link-budget``, ``fsosec metrics`` and ``fsosec validate``, the last two
with ``--methods quadrature,closed_form,monte_carlo``, on the
configs/*.cfg of AFTER at --jobs 1 and 2, and the exit codes, CSVs and
messages are compared byte by byte.

Every difference is printed, then one line that sizes them: how many
value records differ, how many changed kind (a value against an
exception, or one exception type against another), and the worst shift
|value_after - value_before| / (error_before + error_after) with its
key.  The exit status is 1 if there is any difference.  Needs numpy
only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

_ROUTES = (("asc", "quadrature", "asc_quadrature", {}),
           ("asc", "closed_form", "asc_closed_form", {}),
           ("sop", "quadrature", "sop_exact", {}),
           ("sop_lb", "quadrature", "sop_lower_bound",
            {"method": "quadrature"}),
           ("sop_lb", "closed_form", "sop_lower_bound",
            {"method": "closed_form"}),
           ("spsc", "quadrature", "spsc", {"method": "quadrature"}),
           ("spsc", "closed_form", "spsc", {"method": "closed_form"}))
_RATES = (0.0, 0.5, 2.0, 8.0)
_METHODS = "quadrature,closed_form,monte_carlo"
_COMMANDS = (("link-budget",), ("metrics", "--methods", _METHODS),
             ("validate", "--methods", _METHODS))
_COUNT = 300
_SEED = 0


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _draw_scenario(rng, index):
    # (description, WiretapScenario) of one draw
    from fsosec.fading import FFadingParams, SnrChannel
    from fsosec.secrecy import WiretapScenario

    shapes = [(_log_uniform(rng, 0.3, 300.0), _log_uniform(rng, 1.05, 300.0))]
    shapes.append(shapes[0] if index % 2 == 0 else
                  (_log_uniform(rng, 0.3, 300.0),
                   _log_uniform(rng, 1.05, 300.0)))
    snr_bob = _log_uniform(rng, 1e-3, 1e10)
    ratio_db = float(rng.uniform(-60.0, 20.0))
    rate = _RATES[int(rng.integers(len(_RATES)))]
    snr_eve = snr_bob * 10.0 ** (ratio_db / 10.0)
    scenario = WiretapScenario(SnrChannel(FFadingParams(*shapes[0]), snr_bob),
                               SnrChannel(FFadingParams(*shapes[1]), snr_eve),
                               rate)
    return [shapes, snr_bob, ratio_db, rate], scenario


def _hex(mv):
    return [float(mv.value).hex(), float(mv.error).hex()]


def _outcome(call):
    # _hex of the MetricValue call() returns, or the exception's type
    try:
        return _hex(call())
    except Exception as exc:  # every outcome is compared, failures too
        return type(exc).__name__


def _records():
    """{key: outcome} of this process's fsosec over the seeded domain."""
    from fsosec import secrecy
    from fsosec.specfun import reg_inc_beta

    rng = np.random.default_rng(_SEED)
    out = {}
    for index in range(_COUNT):
        draw, scenario = _draw_scenario(rng, index)
        out[f"scenario {index} draw"] = repr(draw)
        for metric, method, name, kwargs in _ROUTES:
            route = getattr(secrecy, name)
            out[f"scenario {index} {metric}/{method}"] = _outcome(
                lambda: route(scenario, **kwargs))
        try:
            shared = secrecy.evaluate_scenario(scenario)
        except Exception as exc:
            shared = {method: exc for _, method, _, _ in _ROUTES}
        for method, result in shared.items():
            metrics = [metric for metric, own, _, _ in _ROUTES
                       if own == method]
            if isinstance(result, Exception):
                # one outcome for the whole method
                result = [result] * len(metrics)
            for metric, outcome in zip(metrics, result):
                key = f"scenario {index} evaluate_scenario {metric}/{method}"
                out[key] = (type(outcome).__name__
                            if isinstance(outcome, Exception)
                            else _hex(outcome))

    for index in range(_COUNT):
        a, b = _log_uniform(rng, 0.3, 300.0), _log_uniform(rng, 1.05, 300.0)
        x = rng.random(int(rng.integers(1, 1501)))
        x[:3] = (0.0, 1.0, np.nan)[:x.size]
        try:
            y = reg_inc_beta(rng.permutation(x), a, b)
            out[f"reg_inc_beta {index}"] = hashlib.sha256(
                np.ascontiguousarray(y).tobytes()).hexdigest()
        except Exception as exc:
            out[f"reg_inc_beta {index}"] = type(exc).__name__
    return out


def _shift(before, after):
    # |value change| / (summed errors) of two [value, error] records
    (v0, e0), (v1, e1) = ([float.fromhex(x) for x in pair]
                          for pair in (before, after))
    if v0 == v1:
        return 0.0
    return abs(v1 - v0) / (e0 + e1) if e0 + e1 > 0.0 else float("inf")


def _summary(changed):
    # the line that sizes the differing records {key: (before, after)};
    # draws and digests are neither values nor exceptions
    values, kinds, others, worst, worst_key = 0, 0, 0, 0.0, None
    for key, (before, after) in changed.items():
        if key.endswith(" draw") or key.startswith("reg_inc_beta"):
            others += 1
        elif isinstance(before, list) and isinstance(after, list):
            values += 1
            shift = _shift(before, after)
            if shift > worst:
                worst, worst_key = shift, key
        else:
            kinds += 1
    return (f"{values} value records differ, {kinds} changed kind, "
            f"{others} draws or digests differ; worst shift {worst:.3g} "
            f"of the summed errors" + (f" at {worst_key}" if worst_key
                                       else ""))


def _child_env(checkout):
    paths = [str(Path(checkout).resolve() / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _run_records(checkout):
    command = [sys.executable, str(Path(__file__).resolve()), "--records"]
    out = subprocess.run(command, cwd=checkout, env=_child_env(checkout),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _run_cli(checkout, command, config, jobs):
    command = [sys.executable, "-m", "fsosec.cli", *command, "--config",
               str(config), "--jobs", str(jobs)]
    done = subprocess.run(command, cwd=checkout, env=_child_env(checkout),
                          capture_output=True)
    return done.returncode, done.stdout, done.stderr


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--records"]:
        # child mode: records of the fsosec on the import path, to stdout
        json.dump(_records(), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    sides = [_run_records(c) for c in (args.before, args.after)]
    changed = {}
    for key in sorted(set(sides[0]) | set(sides[1])):
        before, after = (side.get(key) for side in sides)
        if before != after:
            changed[key] = before, after
            print(f"{key}: {before} -> {after}")
    print(f"{len(sides[1])} route records compared")
    print(_summary(changed))
    differences = len(changed)

    configs = sorted((args.after / "configs").glob("*.cfg"))
    for command in _COMMANDS:
        for config in configs:
            for jobs in (1, 2):
                runs = [_run_cli(c, command, config.resolve(), jobs)
                        for c in (args.before, args.after)]
                if runs[0] != runs[1]:
                    differences += 1
                    print(f"{command[0]} {config.name} --jobs {jobs}: exit "
                          f"{runs[0][0]} -> {runs[1][0]}, output differs")
    print(f"{2 * len(configs) * len(_COMMANDS)} CLI runs compared; "
          f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
