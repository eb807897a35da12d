"""ringlab benchmark: four workloads, checked against frozen outputs.

Run from the root of a checkout:

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn and a table of the
end-to-end metrics is printed. The last line of stdout is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``bench/layers.py``).

Every workload runs in child processes (``bench/worker.py``): set-up runs
several times, each in a fresh process, and the median is ``setup_s``; the
measured passes run in one more process, whose peak RSS is ``peak_rss_mb``.
Times are in reference seconds: measured seconds scaled by a calibration
tick timed every 50 ms throughout the run (``bench/calibrate.py``), so that
the host's swings in speed stay out of them; the measured times are printed
as well. The benchmark imports ringlab only from ``src`` of the checkout and
exits 2 without a result when it is missing or a child fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
# set-up repeats until it ran at least this often and this long
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 7
TIME_LIMIT_S = 170  # for one workload, all of its child processes together
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
}


class ChildFailed(Exception):
    pass


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """The highest-ranked latency with ``TAIL_BEYOND`` samples beyond it, and
    its 1-based rank. A run of fewer than ``4 * TAIL_BEYOND`` ops keeps a
    quarter of its samples beyond it instead, so that one slow op cannot set
    the tail of a short run."""
    ordered = sorted(latencies)
    rank = len(ordered) - min(TAIL_BEYOND, len(ordered) // 4)
    return ordered[rank - 1], rank


class Runner:
    def __init__(self, workdir: Path, seed: int, seconds: int):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]),
            PYTHONHASHSEED="0",
        )

    def child(self, deadline: float, mode: str, name: str, *args) -> dict:
        argv = [sys.executable, str(BENCH / "worker.py"), mode, name, str(self.workdir), *map(str, args)]
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, deadline - monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} {name} ran past the time limit") from None
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            raise ChildFailed(f"{mode} {name} exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def end_to_end(self, name: str) -> dict:
        deadline = monotonic() + TIME_LIMIT_S
        setups: list[dict] = []
        while len(setups) < SETUP_MIN_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS and sum(s["measured_s"] for s in setups) < SETUP_MIN_SECONDS
        ):
            setups.append(self.child(deadline, "setup", name))
        run = self.child(deadline, "measure", name, self.seed, self.seconds)
        tail, rank = tail_latency(run["latencies"])
        count = len(run["latencies"])
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            # The mean over whole rounds: a round visits every pool member once,
            # so it does not depend on which members the seed put in one pass.
            "wall_s": statistics.fmean(run["pass_s"]),
            "op_p50_s": statistics.median(run["latencies"]),
            "op_tail_s": tail,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        measured = run["measured_latencies"]
        print(
            f"{name}: seed {self.seed}, {count} ops in {len(run['pass_s'])} passes; "
            f"op_tail_s is rank {rank} of {count} ({count - rank} beyond); "
            f"failed {run['failed']} of {run['attempted']}"
        )
        print(
            f"{name}: times in reference seconds; measured x {sum(run['latencies']) / sum(measured):.3f} "
            f"in the run, x {statistics.median(s['scale'] for s in setups):.3f} in set-up; measured "
            f"wall_s {sum(measured) / len(run['pass_s']):.4f}, op_p50_s "
            f"{statistics.median(measured):.4f}, setup_s "
            f"{statistics.median(s['measured_s'] for s in setups):.4f}"
        )
        return {
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        }

    def traced(self, name: str) -> dict:
        from layers import ENCLOSING

        run = self.child(monotonic() + TIME_LIMIT_S, "trace", name, self.seed)
        base = run["untraced_s"]
        print(
            f"{name}: untraced round {base:.3f} s, traced round {run['traced_s']:.3f} s, "
            f"tracing overhead {run['traced_s'] - base:.3f} s (charged to no layer); "
            f"reference seconds, measured x {run['scale']:.3f}"
        )
        shares = sorted(
            (m["value"] / base, k)
            for k, m in run["metrics"].items()
            if m["unit"] == "s" and k not in ENCLOSING and m["value"] > 0
        )
        for share, key in reversed(shares[-5:]):
            print(f"  {key}: {share:.1%} of the untraced round")
        return run


def _print_table(results: dict) -> None:
    columns = list(END_TO_END_UNITS) + ["failed_ops"]
    print("workload        " + "  ".join(f"{c:>12}" for c in columns))
    print("                " + "  ".join(f"{u:>12}" for u in list(END_TO_END_UNITS.values()) + ["ratio"]))
    for name, result in results.items():
        cells = [f"{result['metrics'][c]['value']:12.4f}" for c in END_TO_END_UNITS]
        cells.append(f"{result['failed'] / result['attempted']:12.4f}")
        print(f"{name:<16}" + "  ".join(cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringlab" / "__init__.py").is_file():
        print(f"error: no ringlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    runner = Runner(workdir, args.seed, args.seconds)
    try:
        results = {n: runner.traced(n) if args.trace else runner.end_to_end(n) for n in names}
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload is not None:
        metrics = results[args.workload]["metrics"]
    else:
        if not args.trace:
            _print_table(results)
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
