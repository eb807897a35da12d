"""Tests of the benchmark itself:  python3 -m pytest bench -q"""
from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ringlab import build_preset, save_ring  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_name_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_per_layer_names_start_with_a_ringlab_module():
    modules = {p.stem for p in (ROOT / "src" / "ringlab").glob("*.py")}
    for metric in SPEC["per_layer"]:
        assert metric["name"].split(".")[0] in modules, metric["name"]


def test_spec_matches_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (n, layers.unit(n)) for n in layers.layer_names()
    ]


def test_expectations_cover_every_pool_member():
    expected = workloads.load_expected()
    for name, workload in workloads.WORKLOADS.items():
        assert set(expected[name]) == set(workload.members), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_seed_runs_the_same_ops_per_class(name):
    workload = workloads.WORKLOADS[name]
    for seed in range(40):
        passes = workloads.plan_round(workload, random.Random(seed))
        assert len(passes) == workload.passes_per_round
        for order_class in workload.classes:
            ran = [m for members in passes for m in members if m in order_class.pool]
            assert len(ran) == len(set(ran)) == workload.passes_per_round * order_class.picks


def test_tail_is_the_highest_rank_with_enough_samples_beyond():
    assert run.tail_latency([float(i) for i in range(50)]) == (39.0, 40)
    # a short run keeps a quarter of its samples beyond the tail
    assert run.tail_latency([float(i) for i in range(9)]) == (6.0, 7)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 3)


def _report_file(tmp_path: Path, member: str) -> None:
    save_ring(build_preset(member), workloads.ring_file(tmp_path, member))


def test_frozen_output_passes_and_a_corrupted_one_fails(tmp_path):
    member = "tri:2:zmod:4"
    _report_file(tmp_path, member)
    expected = workloads.load_expected()["report-load"]
    outcome = workloads.Outcome()
    workloads.run_op("report-load", member, tmp_path, expected, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 0)

    corrupted = {member: dict(expected[member], sha256="0" * 64)}
    workloads.run_op("report-load", member, tmp_path, corrupted, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert len(outcome.latencies) == 2


def test_an_op_that_raises_or_exits_nonzero_counts_as_failed(tmp_path):
    outcome = workloads.Outcome()
    workloads.run_op("lattice-survey", "no-such-preset", tmp_path, {}, outcome)
    missing = "mat:2:zmod:3"  # its ring file was never written
    expected = workloads.load_expected()["report-load"]
    workloads.run_op("report-load", missing, tmp_path, expected, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 2)


def test_exits_nonzero_without_a_result_when_ringlab_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "catalog-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_the_scale_is_reference_over_the_harmonic_mean_tick():
    import calibrate

    ref = calibrate.REFERENCE_S
    # ticks of ref and 4*ref: on average 0.625 ticks of the reference speed
    assert calibrate.scale([ref, 4 * ref]) == pytest.approx((1 + 0.25) / 2)


def test_ticks_are_taken_out_of_the_latency_of_an_op(tmp_path):
    import calibrate

    _report_file(tmp_path, "tri:2:zmod:4")
    expected = workloads.load_expected()["report-load"]
    with calibrate.Sampler() as sampler:
        outcome = workloads.Outcome(sampler=sampler)
        start = perf_counter()
        for _ in range(3):
            workloads.run_op("report-load", "tri:2:zmod:4", tmp_path, expected, outcome)
        end = perf_counter()
    assert (outcome.attempted, outcome.failed) == (3, 0)
    assert sampler.durations and sampler.scale() > 0
    busy = sampler.busy(start, end)
    assert busy == pytest.approx(sum(sampler.durations))
    assert sum(outcome.latencies) <= end - start - busy


def test_an_op_is_scaled_by_the_ticks_nearest_to_it():
    import calibrate

    ref = calibrate.REFERENCE_S
    sampler = calibrate.Sampler()
    for k in range(3 * calibrate.LOCAL_TICKS):
        # a slow third of the run, then a host at the reference speed
        sampler.starts.append(float(k))
        sampler.durations.append(2 * ref if k < calibrate.LOCAL_TICKS else ref)
    assert sampler.scale_between(0.0, float(calibrate.LOCAL_TICKS)) == pytest.approx(0.5)
    # a short op late in the run borrows only fast ticks around it
    assert sampler.scale_between(25.0, 25.5) == pytest.approx(1.0)
    assert sampler.scale() == pytest.approx((0.5 + 1 + 1) / 3)
