"""Alternating before/after runs of one benchmark workload.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py BEFORE AFTER --workload mc-sweep \
        --out BENCH.json

Each of ten pairs runs ``python3 bench/run.py --workload W`` once in
BEFORE, then once in AFTER (the order alternates from pair to pair, so
a slow drift of the machine does not favour one side); ``bench/run.py``
alone sets the run length, and the seed unless --seed is passed on.
The entry keyed "WORKLOAD/seedSEED" in OUT, named by the seed the runs
report, holds the last-line metrics of every run, the median and
quartiles of each end-to-end metric per side, the number of pairs the
AFTER side won on each, and the machine of the first run (nproc, CPU
model, Python and numpy versions).  Other entries already in OUT are
kept, so one file can gather several workloads and seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")
PAIRS = 10


def _run(checkout, workload, seed):
    command = [sys.executable, "bench/run.py", "--workload", workload]
    if seed is not None:
        command += ["--seed", str(seed)]
    out = subprocess.run(command, cwd=checkout, check=True,
                         capture_output=True, text=True).stdout
    machine_line, metrics_line = out.strip().splitlines()[-2:]
    return json.loads(machine_line), json.loads(metrics_line)


def _revision(checkout):
    # "-dirty" marks a checkout measured with uncommitted changes
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=checkout, capture_output=True, text=True).stdout.strip()


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = dict(zip(SIDES, (args.before, args.after)))
    runs = {side: [] for side in SIDES}
    first = None
    for pair in range(PAIRS):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            line, result = _run(checkouts[side], args.workload, args.seed)
            first = first or line
            runs[side].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"pair {pair} {side}: {json.dumps(values)}",
                  file=sys.stderr)

    summary = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        summary[name] = {
            **{side: _quartiles(values[side]) for side in SIDES},
            "after_wins": sum(sign * (b - a) > 0.0 for b, a in
                              zip(values["before"], values["after"])),
        }

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[f"{args.workload}/seed{first['seed']}"] = {
        "pairs": PAIRS,
        "revisions": {side: _revision(checkouts[side]) for side in SIDES},
        "machine": first["machine"], "summary": summary, "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
