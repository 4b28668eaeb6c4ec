"""Benchmark of the fld training, gate and calibration paths.

    python3 perfbench/run.py --workload train_paper|gate_stream|calibrate_corpus \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory and from nowhere else. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md for what each means.
``--setup-only`` sets up once and prints the CPU seconds since the process
started; untraced runs start it in fresh processes for ``setup_s``.

Every time the result reports is process CPU time, the sum over all threads
of the process, and the process is pinned to one CPU. The timed phase's
times are also scaled to a nominal CPU speed, gauged by a fixed reference
workload timed between the ops (``reference.py``). README.md records why.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Fixed for every commit compared: one OpenBLAS thread, and the whole process
# (the program's scipy.fft workers=-1 pool too) on one CPU. README.md records why.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# setup_s is the median over this many processes: the run's own and fresh
# ones that only set up, so that import and first-call costs count each time
SETUP_PROCESSES = 3

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_ref_s": "1/s",
                    "op_ref_ms_p50": "ms"}


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on the lowest CPU it may
    use, so that the program's thread pools share one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program() -> None:
    """Put ``ROOT/src`` first on the path, make sure ``fld`` comes from it,
    and import the benchmark's modules."""
    src = ROOT / "src"
    if not (src / "fld" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import fld
    if Path(fld.__file__).resolve().parent != (src / "fld").resolve():
        sys.exit(f"perfbench: fld imported from {fld.__file__}, not from {src}")
    import spans  # noqa: F401  (the benchmark's modules import the rest of fld)
    import workloads  # noqa: F401


def make_workload(workload: str, seed: int, scale=None, out: Path = OUT):
    from inputs import PAPER
    from workloads import WORKLOADS
    return WORKLOADS[workload](scale or PAPER, seed, out)


def setup_only(workload: str, seed: int) -> dict:
    """One set-up in this process, timed in CPU seconds from its start."""
    wl = make_workload(workload, seed)
    wl.setup()
    return {"setup_s": process_time(), "failures": wl.failures}


def setup_in_fresh_process(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None,
        out: Path = OUT, import_s: float = 0.0, other_setups: tuple = ()) -> dict:
    """One run. ``import_s`` is this process's CPU time from its start to the
    end of its imports; ``other_setups`` are results of ``setup_only`` in
    other processes, which join this process's set-up in the median
    ``setup_s``."""
    from reference import Reference
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import OpLog

    wl = make_workload(workload, seed, scale, out)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        start = process_time()
        wl.setup()
        setup_seconds = [import_s + process_time() - start]
        setup_seconds += [other["setup_s"] for other in other_setups]
        for other in other_setups:
            wl.failures += [f"set-up in another process: {f}" for f in other["failures"]]
        ops = OpLog(tracer, Reference(), wl.reference_every, wl.reference_repeats)
        start = perf_counter()
        while True:
            wl.round(ops)
            if perf_counter() - start >= seconds:
                break
        # before the checks, whose reference computations are not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.op = -2
        failures = wl.check()
    finally:
        if tracer is not None:
            tracer.remove()
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    items_per_cpu_s = ops.items / sum(ops.seconds)
    op_cpu_ms_p50 = statistics.median(ops.seconds) * 1e3
    # CPU time at the nominal speed: a slow spell lengthens the reference and
    # the ops alike
    speed = ops.reference.speed()
    items_per_ref_s = items_per_cpu_s / speed
    op_ref_ms_p50 = op_cpu_ms_p50 * speed
    print(f"{workload} seed {seed}: {items_per_cpu_s:.4g} items per CPU second, "
          f"median op {op_cpu_ms_p50:.4g} CPU ms, reference speed {speed:.4f} "
          f"over {len(ops.reference.samples)} samples", file=sys.stderr)
    if tracer is None:
        values = {"setup_s": statistics.median(setup_seconds),
                  "peak_rss_mb": peak_rss_mb,
                  "items_per_ref_s": items_per_ref_s, "op_ref_ms_p50": op_ref_ms_p50}
        units = END_TO_END_UNITS
    else:
        values = layer_metrics(tracer, len(ops.seconds), wl.layer_extras())
        values["traced.items_per_ref_s"] = items_per_ref_s
        values["traced.op_ref_ms_p50"] = op_ref_ms_p50
        values["traced.items_per_cpu_s"] = items_per_cpu_s
        values["reference.speed"] = speed
        units = PER_LAYER_UNITS
        tracer.write_jsonl(out / f"trace-{workload}-seed{seed}.jsonl")
    return {"correct": not failures, "attempted": len(ops.seconds), "failed": ops.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_paper", "gate_stream", "calibrate_corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the CPU seconds since start and exit")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)
    pin_to_one_cpu()
    import_program()
    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    import_s = process_time()
    others = () if args.trace else tuple(setup_in_fresh_process(args.workload, args.seed)
                                         for _ in range(SETUP_PROCESSES - 1))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 import_s=import_s, other_setups=others)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
