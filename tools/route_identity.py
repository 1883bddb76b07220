"""Bit-for-bit comparison of every analytic route between two checkouts.

Run from anywhere, with two checkouts of the repository:

    python3 tools/route_identity.py BEFORE AFTER

Each checkout is imported from its own src/ in a child process, which
draws 300 wiretap scenarios from a domain seeded with 0: shapes a in
0.3-300 and b in 1.05-300, Bob's mean SNR in 1e-3-1e10 (all three
log-uniform), Eve's mean SNR -60 to +20 dB from Bob's, target rate 0,
0.5, 2 or 8 bits, and every second scenario with shapes of Eve's own.
Per scenario it records float.hex of value and error, or the failure
as "<type>: <message>", of the seven standalone routes and of the
seven metric x route outcomes of evaluate_scenario over both analytic
methods.  A census records the evaluate_scenario outcomes of 400 more
scenarios from a wide domain seeded with 1, where routes do fail:
shapes a in 0.05-1e6 and b - 1 in 1e-3-1e6, every second scenario
with shapes of Eve's own, mean SNRs 1e-300-1e300 (all log-uniform),
target rate 0, 0.5, 20 or 1023 bits in turn.  It also records a
digest of reg_inc_beta on 300 seeded point sets of up to 1500 points
(with 0, 1 and nan among them).  Then each checkout runs ``fsosec
link-budget``, ``fsosec metrics`` and ``fsosec validate``, the last two
with ``--methods quadrature,closed_form,monte_carlo``, on the
configs/*.cfg of AFTER at --jobs 1 and 2, and the exit codes, CSVs and
messages are compared byte by byte.

Every difference is printed, then one line that sizes them: how many
value records differ, how many changed kind (a value against a
failure, or one exception type against another), how many changed
their failure's message alone, and the worst shift |value_after -
value_before| / (error_before + error_after) with its key; one line
per route, <metric>/<method>, with its counts of those three changes;
and one line with the number of failing records on each side.  The
exit status is 1 if there is any difference.  Needs numpy only.
"""

import argparse
import collections
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
_CENSUS_COUNT = 400
_CENSUS_SEED = 1
_CENSUS_RATES = (0.0, 0.5, 20.0, 1023.0)


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


def _census_scenarios():
    # the census domain, drawn in the order of its seeded stream
    from fsosec.fading import FFadingParams, SnrChannel
    from fsosec.secrecy import WiretapScenario

    rng = np.random.default_rng(_CENSUS_SEED)

    def fading():
        a, b1 = np.exp(rng.uniform(np.log([0.05, 1e-3]), np.log([1e6, 1e6])))
        return FFadingParams(float(a), 1.0 + float(b1))

    for index in range(_CENSUS_COUNT):
        bob = fading()
        eve = fading() if index % 2 else bob
        snr_bob, snr_eve = 10.0 ** rng.uniform(-300.0, 300.0, 2)
        yield WiretapScenario(SnrChannel(bob, float(snr_bob)),
                              SnrChannel(eve, float(snr_eve)),
                              _CENSUS_RATES[index % len(_CENSUS_RATES)])


def _record(outcome):
    # [float.hex of value, of error] of a MetricValue, or the failure
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return [float(outcome.value).hex(), float(outcome.error).hex()]


def _outcome(call):
    # _record of what call() returns or raises
    try:
        return _record(call())
    except Exception as exc:  # every outcome is compared, failures too
        return _record(exc)


def _shared_records(out, prefix, scenario):
    # the evaluate_scenario outcomes of scenario into out, one per route
    from fsosec import secrecy

    for method, result in secrecy.evaluate_scenario(scenario).items():
        metrics = [metric for metric, own, _, _ in _ROUTES if own == method]
        for metric, outcome in zip(metrics, result):
            out[f"{prefix} evaluate_scenario {metric}/{method}"] = \
                _record(outcome)


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
        _shared_records(out, f"scenario {index}", scenario)

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

    for index, scenario in enumerate(_census_scenarios()):
        _shared_records(out, f"census {index}", scenario)
    return out


def _shift(before, after):
    # |value change| / (summed errors) of two [value, error] records
    (v0, e0), (v1, e1) = ([float.fromhex(x) for x in pair]
                          for pair in (before, after))
    if v0 == v1:
        return 0.0
    return abs(v1 - v0) / (e0 + e1) if e0 + e1 > 0.0 else float("inf")


def _is_route(key):
    # draws and digests are neither values nor failures
    return not (key.endswith(" draw") or key.startswith("reg_inc_beta"))


def _change(before, after):
    # how two differing route records differ: "value", "message" or "kind"
    if isinstance(before, list) and isinstance(after, list):
        return "value"
    if (isinstance(before, str) and isinstance(after, str)
            and before.split(":")[0] == after.split(":")[0]):
        return "message"
    return "kind"


def _summary(changed):
    # the lines that size the differing records {key: (before, after)}:
    # the totals, then the counts of each route
    totals = collections.Counter()
    routes = {f"{metric}/{method}": collections.Counter()
              for metric, method, _, _ in _ROUTES}
    worst, worst_key = 0.0, None
    for key, (before, after) in changed.items():
        if not _is_route(key):
            totals["other"] += 1
            continue
        change = _change(before, after)
        totals[change] += 1
        routes[key.rsplit(" ", 1)[1]][change] += 1
        shift = _shift(before, after) if change == "value" else 0.0
        if shift > worst:
            worst, worst_key = shift, key
    lines = [f"{totals['value']} value records differ, {totals['kind']} "
             f"changed kind, {totals['message']} changed message alone, "
             f"{totals['other']} draws or digests differ; worst shift "
             f"{worst:.3g} of the summed errors"
             + (f" at {worst_key}" if worst_key else "")]
    lines += [f"{route}: {counts['value']} value, {counts['kind']} kind, "
              f"{counts['message']} message changes"
              for route, counts in routes.items()]
    return "\n".join(lines)


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
    failing = [sum(_is_route(key) and isinstance(record, str)
                   for key, record in side.items()) for side in sides]
    print(f"failing route records: {failing[0]} before, {failing[1]} after")

    configs = sorted((args.after / "configs").glob("*.cfg"))
    runs_differ = 0
    for command in _COMMANDS:
        for config in configs:
            for jobs in (1, 2):
                runs = [_run_cli(c, command, config.resolve(), jobs)
                        for c in (args.before, args.after)]
                if runs[0] != runs[1]:
                    runs_differ += 1
                    print(f"{command[0]} {config.name} --jobs {jobs}: exit "
                          f"{runs[0][0]} -> {runs[1][0]}, output differs")
    print(f"{2 * len(configs) * len(_COMMANDS)} CLI runs compared; "
          f"{runs_differ} differences")
    return 1 if changed or runs_differ else 0


if __name__ == "__main__":
    sys.exit(main())
