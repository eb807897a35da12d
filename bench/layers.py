"""Per-layer metrics for the traced run.

Each ``<module>.<function>_s`` metric is the time spent in calls to that
public ringlab function, summed over the traced round. The benchmark makes
the calls itself, around the layer boundaries, because ringlab has no spans
of its own yet. Stages run in dependency order, so a cache shared by later
stages (principal ideals, the lattice, the element sets) is charged to the
stage that builds it. The five delta routes are not cached, so timing each
route beside ``delta`` runs them twice; that repeat, the second axiom check
beside ``load_ring``, and the timers themselves are the tracing overhead,
which the traced run reports apart from every layer.
"""
from __future__ import annotations

import json
import tracemalloc
from pathlib import Path
from time import perf_counter

import calibrate
from ringlab import (
    PropertyName,
    all_right_ideals,
    build_entry,
    build_preset,
    build_product,
    build_report,
    default_catalog,
    delta,
    element_sets,
    jacobson,
    load_ring,
    maximal_right_ideals,
    qnil_set,
    registry,
    ring_property,
    save_ring,
    socle,
    spectral_candidates,
    theorem_suite,
    two_sided_ideals,
    verify_axioms,
)
from ringlab.claims import PRODUCT_PAIR_CAP, SuiteContext, has_violation
from ringlab.radicals import delta_r1, delta_r2, delta_r3, delta_r4, delta_r5

from workloads import CATALOG_MEMBER, Outcome, ring_file, sha256, summarize_claims

DELTA_ROUTES = (delta_r1, delta_r2, delta_r3, delta_r4, delta_r5)

FIXED_LAYERS = (
    "core.load_ring_s",
    "core.verify_axioms_s",
    "core.save_ring_s",
    "core.saved_mb",
    "core.element_sets_s",
    "core.build_product_s",
    "core.table_cells",
    "core.alloc_mb",
    "catalog.build_preset_s",
    "catalog.build_entry_s",
    "ideals.all_right_ideals_s",
    "ideals.right_ideals",
    "ideals.two_sided_ideals_s",
    "ideals.two_sided",
    "ideals.maximal_right_ideals_s",
    "ideals.socle_s",
    *(f"radicals.delta_r{i}_s" for i in range(1, 6)),
    "radicals.delta_s",
    "radicals.jacobson_s",
    "radicals.qnil_set_s",
    "properties.ring_property_s",
    "properties.spectral_candidates_s",
    "report.build_report_s",
    "cli.main_s",
    "cli.stdout_bytes",
    "claims.theorem_suite_s",
    "claims.witnesses",
)

# Metrics whose calls contain other timed stages; shares leave them out.
ENCLOSING = frozenset(
    {"core.load_ring_s", "radicals.delta_s", "cli.main_s", "claims.theorem_suite_s"}
)


def claim_metric(claim_id: str) -> str:
    """``claims.<id>_s``: the time of one claim's checker (names stay within 64 letters)."""
    return f"claims.{claim_id}_s"


def layer_names() -> tuple[str, ...]:
    checks = tuple(claim_metric(c.id) for c in registry() if c.check is not None)
    return FIXED_LAYERS + checks


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


class Layers:
    """Accumulates the per-layer metrics of one traced run."""

    def __init__(self) -> None:
        self.values = dict.fromkeys(layer_names(), 0)
        self.sampler: calibrate.Sampler | None = None  # its ticks are taken out

    def time(self, name: str, fn, *args):
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        self.values[name] += end - start - (self.sampler.busy(start, end) if self.sampler else 0.0)
        return result

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount


def _probe(ring, layers: Layers) -> None:
    """The stages ``build_report`` needs, one timed call each, in dependency order."""
    layers.add("core.table_cells", 2 * ring.order**2)
    layers.time("core.element_sets_s", element_sets, ring)
    layers.add("ideals.right_ideals", len(layers.time("ideals.all_right_ideals_s", all_right_ideals, ring)))
    layers.time("ideals.maximal_right_ideals_s", maximal_right_ideals, ring)
    layers.time("ideals.socle_s", socle, ring)
    layers.time("radicals.jacobson_s", jacobson, ring)
    layers.time("radicals.qnil_set_s", qnil_set, ring)
    for i, route in enumerate(DELTA_ROUTES, 1):
        layers.time(f"radicals.delta_r{i}_s", route, ring)
    layers.time("radicals.delta_s", delta, ring)
    for prop in PropertyName:
        layers.time("properties.ring_property_s", ring_property, ring, prop)
    for a in range(ring.order):
        layers.time("properties.spectral_candidates_s", spectral_candidates, ring, a, "delta")


def _trace_catalog_verify(members, workdir: Path, expected: dict, outcome: Outcome, layers: Layers) -> None:
    entries = default_catalog()
    for member in members:
        # by claim: every checked claim once, on one shared set of rings
        rings = {e.name: layers.time("catalog.build_entry_s", build_entry, e) for e in entries}
        context = SuiteContext(entries=tuple(entries), rings=rings)
        for claim in registry():
            if claim.check is not None:
                found = layers.time(claim_metric(claim.id), claim.check, context)
                layers.add("claims.witnesses", len(found))
        # the whole suite, on rings it builds itself
        results = layers.time("claims.theorem_suite_s", theorem_suite, entries)
        summary = summarize_claims(
            1 if has_violation(results) else 0,
            [{"claim_id": r.claim_id, "status": r.status, "witnesses": r.witnesses} for r in results],
        )
        outcome.check("catalog-verify", member, summary, expected)
        # by module: the catalog rings and the product pairs the suite builds
        fresh = [layers.time("catalog.build_entry_s", build_entry, e) for e in entries]
        for ring in fresh:
            _probe(ring, layers)
        for i, left in enumerate(fresh):
            for right in fresh[i:]:
                if left.order * right.order <= PRODUCT_PAIR_CAP:
                    _probe(layers.time("core.build_product_s", build_product, [left, right]), layers)


def _trace_report_load(members, workdir: Path, expected: dict, outcome: Outcome, layers: Layers) -> None:
    for member in members:
        ring = layers.time("core.load_ring_s", load_ring, ring_file(workdir, member))
        layers.time("core.verify_axioms_s", verify_axioms, ring)
        _probe(ring, layers)
        report = layers.time("report.build_report_s", build_report, ring)
        text = json.dumps(report, indent=2) + "\n"
        outcome.check("report-load", member, {"exit": 0, "sha256": sha256(text.encode())}, expected)


def _trace_lattice_survey(members, workdir: Path, expected: dict, outcome: Outcome, layers: Layers) -> None:
    for member in members:
        ring = layers.time("catalog.build_preset_s", build_preset, member)
        layers.add("core.table_cells", 2 * ring.order**2)
        lattice = layers.time("ideals.all_right_ideals_s", all_right_ideals, ring)
        layers.add("ideals.right_ideals", len(lattice))
        two_sided = layers.time("ideals.two_sided_ideals_s", two_sided_ideals, ring)
        layers.add("ideals.two_sided", len(two_sided))
        maximal = layers.time("ideals.maximal_right_ideals_s", maximal_right_ideals, ring)
        soc = layers.time("ideals.socle_s", socle, ring)
        jac = layers.time("radicals.jacobson_s", jacobson, ring)
        observed = {
            "right_ideals": len(lattice),
            "two_sided": len(two_sided),
            "maximal": len(maximal),
            "socle": format(soc.bits, "x"),
            "jacobson": format(jac.bits, "x"),
        }
        outcome.check("lattice-survey", member, observed, expected)


def _trace_build_save(members, workdir: Path, expected: dict, outcome: Outcome, layers: Layers) -> None:
    path = workdir / "built.json"
    for member in members:
        ring = layers.time("catalog.build_preset_s", build_preset, member)
        layers.add("core.table_cells", 2 * ring.order**2)
        layers.time("core.save_ring_s", save_ring, ring, path)
        data = path.read_bytes()
        layers.add("core.saved_mb", len(data) / 2**20)
        outcome.check("build-save", member, {"exit": 0, "sha256": sha256(data)}, expected)


TRACES = {
    "catalog-verify": _trace_catalog_verify,
    "report-load": _trace_report_load,
    "lattice-survey": _trace_lattice_survey,
    "build-save": _trace_build_save,
}


def trace_prepare(workload_name: str, members, workdir: Path, layers: Layers) -> None:
    """Traced set-up: build and write the ring files ``report-load`` reads."""
    if workload_name != "report-load":
        return
    for member in members:
        ring = layers.time("catalog.build_preset_s", build_preset, member)
        path = ring_file(workdir, member)
        layers.time("core.save_ring_s", save_ring, ring, path)
        layers.add("core.saved_mb", path.stat().st_size / 2**20)


def table_alloc_mb(members, workdir: Path) -> float:
    """Peak Python allocation, in MiB, while the rings of ``members`` are
    built and written one after another: the memory the tables take.

    It has a pass of its own because tracemalloc slows the ideal and radical
    stages ten- to twentyfold; building and saving slow far less.
    """
    tracemalloc.start()
    try:
        for member in members:
            if member == CATALOG_MEMBER:
                for entry in default_catalog():
                    build_entry(entry)
            else:
                save_ring(build_preset(member), workdir / "alloc.json")
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
