"""Benchmark of fsosec: one workload, one seed, one timed run.

Run from the repository root:

    python3 bench/run.py --workload analytic-sweep --seed 1 --seconds 30 --trace 0

Workloads: analytic-sweep, mc-sweep, edge-scenarios (see workloads.py
and README.md).  The seed fixes every generated input; the run repeats
the workload on those inputs until --seconds are used.  The last line
of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  The line
before it records the machine and the raw samples.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# about the fastest time of workloads.calibrate on the reference
# machine (README.md): times at the reference speed read as seconds on
# an uncontended core of it
REFERENCE_KERNEL_S = 1.4e-3


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _machine():
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _setup_seconds(workload):
    """One fresh-process set-up time: import plus input construction.

    numpy's BLAS thread pool is held to one thread in the child: fsosec
    calls no BLAS routine, and starting the pool costs a bimodal 0.05
    to 0.1 s on a two-vCPU host, which would swamp fsosec's own part.
    """
    proc = subprocess.run(
        [sys.executable, "-c", workload.setup_snippet,
         str(ROOT / "src"), workload.setup_input],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        _fail(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _measure(workload, seconds, trace, setup_repeats):
    """Run passes until seconds are used; with trace, every second
    pass runs traced, so traced and untraced passes interleave.

    One set-up process runs before each pass, outside its timed
    region, so set-up samples the host over the whole run; the last
    pass is followed by enough more to make setup_repeats.
    """
    plain, traced, setup = [], [], []
    tr = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        setup.append(_setup_seconds(workload))
        with_trace = trace and len(plain) > len(traced)
        if with_trace:
            tracing.install(tr)
        try:
            it = workload.run()
        finally:
            if with_trace:
                tr.restore()
        (traced if with_trace else plain).append(it)
        elapsed = time.perf_counter() - start
        if elapsed + it.wall_s > seconds and (traced or not trace):
            while len(setup) < setup_repeats:
                setup.append(_setup_seconds(workload))
            return plain, traced, tr, setup


def reference_pass(iterations):
    """(seconds, point milliseconds) of one pass at the reference speed.

    Every time a point runs, its time is divided by that of the
    reference kernel run just before it (workloads.calibrate), and the
    point costs the median of these ratios over the passes.  The pass
    is the sum of its points plus the median remainder of a pass (what
    runs outside the points: cli set-up, formatting, writing) over the
    pass's median kernel time.  Kernel units are turned into seconds
    with REFERENCE_KERNEL_S.  Other tenants of a shared host slow the
    core by up to 2x, over seconds and over minutes; the ratio to a
    kernel timed at the same moment stays within a few percent (see
    README.md).
    """
    ratios = {}
    for it in iterations:
        for key, ms in it.latencies_ms.items():
            ratios.setdefault(key, []).append(ms / it.calibration_ms[key])
    point_ms = sorted(1e3 * REFERENCE_KERNEL_S * statistics.median(r)
                      for r in ratios.values())
    rest = statistics.median(
        (1e3 * it.wall_s - sum(it.latencies_ms.values())
         - sum(it.calibration_ms.values()))
        / statistics.median(it.calibration_ms.values())
        for it in iterations)
    return (1e-3 * sum(point_ms) + REFERENCE_KERNEL_S * max(rest, 0.0),
            point_ms)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a few points, few draws")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fsosec" / "__init__.py").is_file():
        _fail(f"no fsosec sources under {ROOT / 'src'}")
    if not (ROOT / "configs").is_dir():
        _fail(f"no shipped configs under {ROOT / 'configs'}")
    sys.path.insert(0, str(ROOT / "src"))
    import fsosec
    if Path(fsosec.__file__).resolve().parent != ROOT / "src" / "fsosec":
        _fail(f"imported fsosec from {fsosec.__file__}, not from {ROOT}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            ROOT, args.seed, tmp, tiny=args.tiny)
        workload.prepare()
        plain, traced, tr, setup = _measure(
            workload, args.seconds, bool(args.trace),
            1 if args.tiny else SETUP_REPEATS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    runs = plain + traced
    attempted = sum(it.attempted for it in runs)
    failed = sum(it.failed for it in runs)
    wall, point_ms = reference_pass(plain)
    if args.trace:
        traced_wall = sum(it.wall_s for it in traced)
        values = tracing.layer_metrics(
            tr, workload.points * len(traced),
            workload.pairs_reported * len(traced))
        values["trace.overhead_ratio"] = reference_pass(traced)[0] / wall
        _write_spans(tr, args, traced_wall)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_ref_s": wall,
            "points_per_ref_s": workload.points / wall,
            "scenario_ref_ms_p50": statistics.median(point_ms),
            "scenario_ref_ms_p90": statistics.quantiles(
                point_ms, n=10, method="inclusive")[-1],
            "ok_share": 1.0 - failed / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = _units()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "jobs": workloads.JOBS, "machine": _machine(),
                      "setup_s": setup,
                      "walls_s": [it.wall_s for it in plain],
                      "traced_walls_s": [it.wall_s for it in traced],
                      "calibration_ms": statistics.median(
                          c for it in plain
                          for c in it.calibration_ms.values()),
                      "point_ref_ms": point_ms}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


def _units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _write_spans(tr, args, wall):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "traced_wall_s": wall, "machine": _machine(),
                             "counts": dict(tr.counts())}) + "\n")
        for sid, parent, request, name, label, t0, t1 in tr.spans():
            fh.write(json.dumps({"id": sid, "parent": parent,
                                 "request": request, "name": name,
                                 "label": label, "start": t0,
                                 "end": t1}) + "\n")
    print(f"bench: spans written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
