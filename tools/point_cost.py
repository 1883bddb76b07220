"""Cost per shipped sweep point of the analytic routes, in two checkouts.

Run from anywhere, with two checkouts of the repository:

    python3 tools/point_cost.py BEFORE AFTER [--runs N]

Each of N rounds runs one child process per checkout, in an order that
alternates from round to round, as tools/bench_pairs.py does; each
child imports fsosec from its checkout's src/ and evaluates
``evaluate_scenario`` with both analytic methods on every point of the
configs/*.cfg of AFTER.  A child makes one warm-up pass, one timed pass
(process CPU time per config) and one counting pass, in which it counts
the calls of ``pdf_ht`` and ``cdf_ht`` that ``secrecy`` makes, the
arguments of ``specfun.log_gamma_complex``, the contour points of
``specfun._log_phi_complex``, and the calls of the quadrature entries
``secrecy`` imports (``quad_positive_axis``, and
``quad_positive_axis_many`` where a checkout has it) with the integrals
they take: the length of a list of hints, or 1 for a single hint.  Per
config and side it prints the CPU ms per point (minimum over the N
rounds) and those counts per point, then the same over all points.
Needs numpy only.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

_COUNTS = ("pdf_ht", "cdf_ht", "lgamma_args", "contour_points",
           "quad_calls", "integrals")


def _integrals(args, kwargs):
    # the integrals of one quadrature entry call: a list of hints, or one
    hints = (args[1:] or list(kwargs.values()) or [None])[0]
    return len(hints) if isinstance(hints, (list, tuple)) else 1


def _child(configs):
    # {config: [cpu seconds, points, *counts]} of the fsosec on the path
    import numpy as np
    from fsosec import secrecy, specfun
    from fsosec.config import build_scenario, parse_config

    points = {}
    for path in configs:
        rc = parse_config(path)
        points[Path(path).stem] = [
            build_scenario(rc.with_value(rc.sweep.variable, raw))
            for _, raw in rc.sweep.points()]
    out = {name: [0.0, len(scenarios)] + [0] * len(_COUNTS)
           for name, scenarios in points.items()}
    for timed in (False, True):
        for name, scenarios in points.items():
            start = time.process_time()
            for scenario in scenarios:
                secrecy.evaluate_scenario(scenario)
            if timed:
                out[name][0] = time.process_time() - start
    counter = [None]

    def counted(owner, attr, slots):
        # each slot in slots counts size(args, kwargs) per call
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            for slot, size in slots.items():
                counter[0][slot] += size(args, kwargs)
            return real(*args, **kwargs)
        setattr(owner, attr, wrapper)

    def once(args, kwargs):
        return 1

    counted(secrecy, "pdf_ht", {2: once})
    counted(secrecy, "cdf_ht", {3: once})
    counted(specfun, "log_gamma_complex",
            {4: lambda args, kwargs: np.size(args[0])})
    counted(specfun, "_log_phi_complex",
            {5: lambda args, kwargs: np.size(args[1])})
    for entry in ("quad_positive_axis", "quad_positive_axis_many"):
        if hasattr(secrecy, entry):
            counted(secrecy, entry, {6: once, 7: _integrals})
    for name, scenarios in points.items():
        counter[0] = out[name]
        for scenario in scenarios:
            secrecy.evaluate_scenario(scenario)
    return out


def _run(checkout, configs):
    src = str(Path(checkout).resolve() / "src")
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               *map(str, configs)]
    done = subprocess.run(command, env={**os.environ, "PYTHONPATH": src},
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _line(label, side, rows):
    # min CPU ms per point over the rounds, then the counts per point
    points = rows[0][1]
    ms = 1e3 * min(row[0] for row in rows) / points
    counts = "".join(f"{value / points:>15.1f}" for value in rows[0][2:])
    return f"{label:<18}{side:<8}{ms:>10.3f}{counts}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        json.dump(_child(argv[1:]), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args(argv)
    configs = sorted((args.after / "configs").glob("*.cfg"))
    sides = {"before": [], "after": []}
    for run in range(args.runs):
        for side in (("before", "after") if run % 2 == 0
                     else ("after", "before")):
            sides[side].append(_run(getattr(args, side), configs))
    print(f"{'config':<18}{'side':<8}{'ms/point':>10}"
          + "".join(f"{name:>15}" for name in _COUNTS))
    for name in [config.stem for config in configs] + ["all"]:
        for side, runs in sides.items():
            rows = [[sum(col) for col in zip(*run.values())] if name == "all"
                    else run[name] for run in runs]
            print(_line(name, side, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
