"""Benchmark for the ``posid`` package.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload identify_n800 --seed 1 \
        --seconds 50 --trace 0

The package is imported from ``src/`` of that checkout.  The load is a
closed loop in one process: each operation starts when the previous one
returns, and units (fixed batches of operations, see ``workloads.py``)
repeat until the next one would overrun ``--seconds``.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` one untraced unit is followed by one traced
unit, and the JSON holds the per-layer metrics of the traced one and the
tracing overhead.  Metric names and units come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Fresh interpreters timed from launch to "inputs ready".
SETUP_SAMPLES = 7
# Operations a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def pin_blas_threads() -> None:
    """One BLAS thread; must run before NumPy loads.

    On a 2-core machine two OpenBLAS threads made the Monte Carlo study
    and ``tune`` 2.4 times slower, and ``identify_n800`` no faster, and
    they made every figure noisier (see README.md).
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package() -> None:
    """Import ``posid`` from this checkout's ``src/``, or exit with 1."""
    if not (SRC / "posid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'posid'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import posid
    if Path(posid.__file__).resolve().parent != (SRC / "posid").resolve():
        sys.exit(f"perfbench: imported posid from {posid.__file__}, "
                 f"not from {SRC}")


def metric_specs(kind: str) -> list:
    """``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def measure_setup(workload: str, seed: int, samples: int) -> float:
    """Median time from interpreter launch to generated inputs."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--setup-probe"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline().strip()
                times.append(time.perf_counter() - start)
                proc.stdout.read()
                code = proc.wait(timeout=120)
            finally:
                proc.kill()  # no-op once the probe has exited
        if line != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code})")
    return statistics.median(times)


def typical_op_times(units: list) -> list:
    """Each operation's mean time over the run's repeats of it.

    Every unit runs the same operations in the same order, so the i-th
    operations of all units are repeats of one operation.
    """
    return [statistics.fmean(op.seconds for op in repeats)
            for repeats in zip(*(unit.ops for unit in units))]


def tail(times: list) -> float:
    """Highest percentile leaving ``TAIL_BEYOND`` times beyond it, or the
    largest time when there are fewer than ``2 * TAIL_BEYOND``."""
    ordered = sorted(times)
    if len(ordered) < 2 * TAIL_BEYOND:
        return ordered[-1]
    return ordered[-1 - TAIL_BEYOND]


def describe_tail(count: int) -> str:
    if count < 2 * TAIL_BEYOND:
        return f"slowest of {count} operations"
    return (f"p{100 * (1 - TAIL_BEYOND / count):.1f} of {count} operations, "
            f"{TAIL_BEYOND} beyond it")


def run_units(workload, inputs, seconds: float) -> list:
    """Closed loop: repeat units while the next one fits the budget."""
    from workloads import check_unit
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.run_unit(inputs))
        check_unit(units[-1])
        if time.perf_counter() - start + units[-1].wall > seconds:
            return units


def end_to_end(units: list, setup_s: float) -> dict:
    """End-to-end metrics, each read so that host slow spells move it least.

    The host makes this machine up to 1.7 times slower, in spells from
    seconds to minutes that the guest cannot see (no steal time; CPU
    time slows with wall time), so a run's units mix fast and slow ones.
    A mean moves in proportion to the slow share; a median or a minimum
    jumps when that share crosses its threshold, and over five ten-seed
    sets the mean unit spread least.  So ``wall_s`` is the mean unit, and
    each operation is timed as its mean over its repeats before the
    operation-time percentiles are read.
    """
    ops = [op for unit in units for op in unit.ops]
    fits = [fit for op in ops for fit in op.fits]
    walls = [unit.wall for unit in units]
    typical = typical_op_times(units)
    print(f"  unit walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"  op_s.tail is the {describe_tail(len(typical))}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "op_s.p50": statistics.median(typical),
        "op_s.tail": tail(typical),
        "ops_per_s": len(ops) / sum(walls),
        "ok_share": sum(op.ok for op in ops) / len(ops),
        "fit_pct.p50": statistics.median(fits) if fits else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(workload, inputs) -> tuple:
    """One untraced then one traced unit; per-layer metrics of the latter."""
    from tracer import Patches, Tracer, instrument, layer_metrics
    from workloads import check_unit
    plain = workload.run_unit(inputs)
    check_unit(plain)
    tracer = Tracer()
    with Patches() as patches:
        instrument(patches, tracer)
        unit = workload.run_unit(inputs)
    check_unit(unit)
    values = layer_metrics(tracer)
    values.update({
        "trace.wall_s": unit.wall,
        "trace.untraced_wall_s": plain.wall,
        "trace.overhead_s": unit.wall - plain.wall,
        "tuning.val_mse.best": unit.val_mse or 0.0,
    })
    share = (values["qp.solve.busy_s"]
             + values["estimator.build_qp.busy_s"]) / unit.wall
    print(f"  qp.solve + estimator.build_qp busy time is {100 * share:.1f}% "
          f"of the traced unit ({unit.wall:.3f} s); tracing overhead "
          f"{unit.wall - plain.wall:+.3f} s")
    return values, [plain, unit]


def describe_environment() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{var}={os.environ.get(var)}"
                        for var in BLAS_THREAD_VARS)
    return (f"nproc {os.cpu_count()}; BLAS {blas.get('name')} "
            f"{blas.get('version')} ({threads}); numpy {numpy.__version__}; "
            f"scipy {scipy.__version__}")


def measure(workload, inputs, seed: int, seconds: float,
            trace: bool) -> dict:
    """One measurement: the result object printed as the last line."""
    print(f"workload {workload.name}, seed {seed}: {describe_environment()}")
    specs = metric_specs("per_layer" if trace else "end_to_end")
    if trace:
        values, units = per_layer(workload, inputs)
    else:
        setup_s = measure_setup(workload.name, seed, SETUP_SAMPLES)
        units = run_units(workload, inputs, seconds)
        values = end_to_end(units, setup_s)
    ops = [op for unit in units for op in unit.ops]
    wrong = [unit.check for unit in units if unit.check]
    wrong += [op.check for op in ops if op.check]
    for message in sorted(set(wrong + [op.error for op in ops if op.error])):
        print(f"  failure: {message}")
    # A forced accept is the estimator's documented outcome at m = m0,
    # so it is counted here but not failed.
    print(f"  {sum(op.forced for op in ops)} forced accept(s)")
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    result = measure(workload, inputs, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
