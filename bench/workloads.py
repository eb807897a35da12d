"""The benchmark's workloads: input pools, seeded rounds, the ops that drive
ringlab through its public API, and the frozen checks of their outputs.

A *pass* runs one op per order class (two for ``lattice-survey``) on freshly
built or loaded rings. A *round* is the largest number of passes in which no
class repeats a member, so a round visits every member of the workload's
smallest pool once. The seed shuffles each class's pool anew for every round:
it decides which members share a pass and, where a pool is larger than the
round, which members run. Every seed therefore runs the same number of ops
per class, and the median op and the mean pass of a round do not depend on
the pairing.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
from ringlab import (
    all_right_ideals,
    build_preset,
    jacobson,
    maximal_right_ideals,
    save_ring,
    socle,
    two_sided_ideals,
)
from ringlab.cli import main as ringlab_main

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The catalog is fixed by definition, so its single "member" names it.
CATALOG_MEMBER = "default_catalog"


@dataclass(frozen=True)
class OrderClass:
    name: str
    pool: tuple[str, ...]
    picks: int = 1  # members of this class in one pass


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[OrderClass, ...]

    @property
    def passes_per_round(self) -> int:
        return min(len(c.pool) // c.picks for c in self.classes)

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(m for c in self.classes for m in c.pool)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog-verify",
            (OrderClass("catalog", (CATALOG_MEMBER,)),),
        ),
        Workload(
            "report-load",
            (
                OrderClass(
                    "order-64-81",
                    ("tri:3:zmod:2", "dorroh:tri:2:zmod:2", "tri:2:zmod:4", "mat:2:zmod:3"),
                ),
                # A third order-128 member keeps this pool as large as the
                # round, so the median op (an order-128 report) is the same
                # ring on every seed.
                OrderClass(
                    "order-128",
                    (
                        "cdtri:4:zmod:2",
                        "product:mat:2:zmod:2,zmod:8",
                        "product:tri:3:zmod:2,zmod:2",
                    ),
                ),
                OrderClass(
                    "order-216-256",
                    ("tri:2:zmod:6", "mat:2:zmod:4", "cdtri:3:zmod:4"),
                ),
            ),
        ),
        Workload(
            "lattice-survey",
            (
                OrderClass(
                    "order-256",
                    (
                        "product:zmod:4,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
                        "product:tri:2:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
                        "product:tri:2:zmod:2,tri:2:zmod:2,zmod:2,zmod:2",
                        "product:cdtri:2:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
                    ),
                    picks=2,
                ),
            ),
        ),
        # Two order-512 builds per pass put the median op inside the
        # order-512 cluster rather than in the gap between the two orders.
        Workload(
            "build-save",
            (
                OrderClass(
                    "order-512",
                    (
                        "tri:2:zmod:8",
                        "product:" + ",".join(["zmod:2"] * 9),
                        "product:zmod:2,zmod:256",
                        "product:zmod:8,zmod:64",
                    ),
                    picks=2,
                ),
                OrderClass("order-1024", ("product:mat:2:zmod:2,zmod:64", "zmod:1024")),
            ),
        ),
    )
}


def plan_round(workload: Workload, rng: random.Random) -> list[list[str]]:
    """The passes of one round, each a list of members, drawn from ``rng``."""
    shuffled = [rng.sample(c.pool, len(c.pool)) for c in workload.classes]
    return [
        [m for c, order in zip(workload.classes, shuffled) for m in order[j * c.picks : (j + 1) * c.picks]]
        for j in range(workload.passes_per_round)
    ]


def ring_file(workdir: Path, member: str) -> Path:
    return workdir / (member.replace(":", "_").replace(",", "-") + ".json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare(workload: Workload, workdir: Path) -> None:
    """Write the ring files the workload reads (only ``report-load`` reads any)."""
    if workload.name == "report-load":
        for member in workload.members:
            save_ring(build_preset(member), ring_file(workdir, member))


# --------------------------------------------------------------------------
# ops: each returns raw output; ``observe`` reduces it, outside the timing


def _cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ringlab_main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _op_catalog_verify(member: str, workdir: Path) -> dict:
    return _cli(["verify-paper", "--format", "json"])


def _op_report_load(member: str, workdir: Path) -> dict:
    return _cli(["report", str(ring_file(workdir, member))])


def _op_lattice_survey(member: str, workdir: Path) -> dict:
    ring = build_preset(member)
    return {
        "right_ideals": len(all_right_ideals(ring)),
        "two_sided": len(two_sided_ideals(ring)),
        "maximal": len(maximal_right_ideals(ring)),
        "socle": format(socle(ring).bits, "x"),
        "jacobson": format(jacobson(ring).bits, "x"),
    }


def _op_build_save(member: str, workdir: Path) -> dict:
    path = workdir / "built.json"
    raw = _cli(["build", member, "-o", str(path)])
    raw["file"] = path
    return raw


OPS = {
    "catalog-verify": _op_catalog_verify,
    "report-load": _op_report_load,
    "lattice-survey": _op_lattice_survey,
    "build-save": _op_build_save,
}

# workloads whose op is one call of ringlab's command-line entry point
CLI_WORKLOADS = frozenset({"catalog-verify", "report-load", "build-save"})


def summarize_claims(exit_code: int, results: list[dict]) -> dict:
    """Claim statuses and the rings that witness each disputed claim."""
    return {
        "exit": exit_code,
        "status": {r["claim_id"]: r["status"] for r in results},
        "disputed_witnesses": {
            r["claim_id"]: sorted({w["ring"] for w in r["witnesses"]})
            for r in results
            if r["status"] == "disputed-paper-claim"
        },
    }


def observe(workload_name: str, raw: dict) -> dict:
    """The part of an op's output that the frozen expectation pins."""
    if workload_name == "catalog-verify":
        return summarize_claims(raw["exit"], json.loads(raw["stdout"]))
    if workload_name == "report-load":
        return {"exit": raw["exit"], "sha256": sha256(raw["stdout"].encode())}
    if workload_name == "build-save":
        # stdout names the output path, so the written file is hashed instead
        return {"exit": raw["exit"], "sha256": sha256(raw["file"].read_bytes())}
    return raw


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@dataclass
class Outcome:
    """Latencies and checks of the ops a run attempted. With a ``sampler``
    running, the time its ticks took is taken out of every latency."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    sampler: calibrate.Sampler | None = None
    windows: list[tuple[float, float]] = field(default_factory=list)  # of each op

    def scaled_latencies(self) -> list[float]:
        """Each latency in reference seconds, scaled by the ticks taken
        during that op (``calibrate.Sampler.scale_between``)."""
        return [
            latency * self.sampler.scale_between(*window)
            for latency, window in zip(self.latencies, self.windows)
        ]

    def check(self, workload_name: str, member: str, observed: dict, expected: dict) -> None:
        self.attempted += 1
        if observed != expected.get(member):
            self.failed += 1
            print(f"mismatch: {workload_name} {member}: {observed}", file=sys.stderr)


def run_op(workload_name: str, member: str, workdir: Path, expected: dict, outcome: Outcome) -> None:
    """Time one op, then check its output. An op that raises counts as failed.
    Every op starts on a freshly collected heap, as in a new process."""
    gc.collect()
    start = perf_counter()
    try:
        raw = OPS[workload_name](member, workdir)
    except Exception:  # a failing op is a measured outcome, not a crash
        raw, error = None, traceback.format_exc()
    end = perf_counter()
    ticks = outcome.sampler.busy(start, end) if outcome.sampler else 0.0
    outcome.latencies.append(end - start - ticks)
    outcome.windows.append((start, end))
    if raw is None:
        print(error, file=sys.stderr)
        observed = {"raised": True}
    else:
        outcome.stdout_bytes += len(raw.get("stdout", "").encode())
        try:
            observed = observe(workload_name, raw)
        except (ValueError, KeyError, OSError):
            observed = {"unreadable": True}
    outcome.check(workload_name, member, observed, expected)


def run_round(
    workload_name: str, passes: list[list[str]], workdir: Path, expected: dict, outcome: Outcome
) -> list[float]:
    """Run the passes of one round; return each pass's time, the sum of its
    op latencies, so that output checks stay out of it."""
    times = []
    for members in passes:
        first = len(outcome.latencies)
        for member in members:
            run_op(workload_name, member, workdir, expected, outcome)
        times.append(sum(outcome.latencies[first:]))
    return times
