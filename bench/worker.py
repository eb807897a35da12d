"""One workload in a process of its own, so that its peak RSS is its own.

    python3 bench/worker.py setup   WORKLOAD WORKDIR
    python3 bench/worker.py measure WORKLOAD WORKDIR SEED SECONDS
    python3 bench/worker.py trace   WORKLOAD WORKDIR SEED

``bench/run.py`` starts it with ``src`` and ``bench`` on ``PYTHONPATH``.
Each mode prints one JSON object as its last line. ``setup`` times the
import of ringlab plus writing the workload's input files, ``measure`` runs
whole rounds for about SECONDS, and ``trace`` runs one round untraced, the
same round layer by layer, and the table builds of its first pass under
tracemalloc. Times are in reference seconds (``bench/calibrate.py``); the
measured ones and the scale factor travel beside them.
"""
from __future__ import annotations

import gc
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import calibrate

SRC = Path(__file__).resolve().parent.parent / "src"
# calibration ticks in a row before and after the timed set-up, which is
# too short for the sampler alone
SETUP_TICKS = 50


def _import_workloads():
    import workloads  # imports ringlab

    origin = Path(sys.modules["ringlab"].__file__).resolve()
    if SRC not in origin.parents:
        sys.exit(f"error: ringlab was imported from {origin}, not from {SRC}")
    return workloads


def setup(name: str, workdir: Path) -> dict:
    before = calibrate.timed_ticks(SETUP_TICKS)
    with calibrate.Sampler() as sampler:
        start = perf_counter()
        workloads = _import_workloads()
        workloads.prepare(workloads.WORKLOADS[name], workdir)
        end = perf_counter()
    measured = end - start - sampler.busy(start, end)
    scale = calibrate.scale(before + sampler.durations + calibrate.timed_ticks(SETUP_TICKS))
    return {"setup_s": measured * scale, "measured_s": measured, "scale": scale}


def measure(name: str, workdir: Path, seed: int, seconds: float) -> dict:
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[name]
    expected = workloads.load_expected()[name]
    rng = random.Random(seed)
    passes_done = 0
    with calibrate.Sampler() as sampler:
        outcome = workloads.Outcome(sampler=sampler)
        start = perf_counter()
        while True:
            began = perf_counter()
            passes = workloads.plan_round(workload, rng)
            workloads.run_round(name, passes, workdir, expected, outcome)
            passes_done += len(passes)
            # Elapsed time in reference seconds, so that the number of rounds,
            # and with it the rank of the tail, does not follow the host's speed.
            now, scale = perf_counter(), sampler.scale()
            elapsed, last = (now - start) * scale, (now - began) * scale
            # another round only if the run then ends nearer to SECONDS
            if elapsed + last / 2 > seconds:
                break
    scaled = outcome.scaled_latencies()
    per_pass = len(scaled) // passes_done
    return {
        "pass_s": [sum(scaled[i : i + per_pass]) for i in range(0, len(scaled), per_pass)],
        "latencies": scaled,
        "measured_latencies": outcome.latencies,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(name: str, workdir: Path, seed: int) -> dict:
    workloads = _import_workloads()
    import layers as layer_metrics

    workload = workloads.WORKLOADS[name]
    expected = workloads.load_expected()[name]
    passes = workloads.plan_round(workload, random.Random(seed))
    layers = layer_metrics.Layers()
    outcome = workloads.Outcome()

    with calibrate.Sampler() as sampler:
        outcome.sampler = layers.sampler = sampler
        layer_metrics.trace_prepare(name, workload.members, workdir, layers)
        untraced = sum(workloads.run_round(name, passes, workdir, expected, outcome))
        if name in workloads.CLI_WORKLOADS:
            layers.add("cli.main_s", untraced)
            layers.add("cli.stdout_bytes", outcome.stdout_bytes)

        gc.collect()
        start = perf_counter()
        layer_metrics.TRACES[name]([m for p in passes for m in p], workdir, expected, outcome, layers)
        end = perf_counter()
        traced = end - start - sampler.busy(start, end)
    scale = sampler.scale()

    gc.collect()
    layers.add("core.alloc_mb", layer_metrics.table_alloc_mb(passes[0], workdir))
    units = {k: layer_metrics.unit(k) for k in layers.values}
    return {
        "metrics": {
            k: {"value": v * scale if units[k] == "s" else v, "unit": units[k]}
            for k, v in layers.values.items()
        },
        "untraced_s": untraced * scale,
        "traced_s": traced * scale,
        "scale": scale,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }


def main(argv: list[str]) -> int:
    mode, name, workdir, *rest = argv
    workdir = Path(workdir)
    if mode == "setup":
        result = setup(name, workdir)
    elif mode == "measure":
        result = measure(name, workdir, int(rest[0]), float(rest[1]))
    elif mode == "trace":
        result = trace(name, workdir, int(rest[0]))
    else:
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
