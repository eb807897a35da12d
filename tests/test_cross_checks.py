"""The n^2 cross-checks, run as row operations, against the per-cell loops
they replaced, the companion masks per idempotent against the per-element
walk they replaced, and the report against relabelling.

Each library check below reads whole rows of ``mul`` in C; its reference in
``oracles`` walks the same definition one cell at a time.  They are compared
on the 28-ring differential set (the catalog and ``NON_CATALOG_PRESETS``)
and on more rings beyond it.
"""
from __future__ import annotations

import random

import pytest

import oracles
from ringlab import claims, ideals, properties
from ringlab import report as report_module
from ringlab.catalog import CatalogEntry, build_preset
from ringlab.claims import SuiteContext, registry
from ringlab.core import bit_members, build_corner, build_quotient, element_sets, units_map
from ringlab.ideals import (
    _ideal_core_bits,
    _principal_bits,
    all_right_ideals,
    two_sided_ideals,
)
from ringlab.properties import (
    _COMPANION_SPECS,
    _SPECTRAL_FLAVORS,
    PropertyName,
    double_commutant,
    element_property,
    property_mask,
    ring_property,
    spectral_candidates,
)
from ringlab.radicals import center_bits, commutant_bits, delta_r5, jacobson, qnil_set
from ringlab.report import build_report
from test_properties import NON_CATALOG_PRESETS

# more additive shapes, Dorroh extensions and quotients; none is in the
# default catalog
DIFFERENTIAL_PRESETS = NON_CATALOG_PRESETS + [
    "zmod:1",
    "zmod:5",
    "zmod:12",
    "zmod:25",
    "zmod:27",
    "product:zmod:2,zmod:4",
    "product:zmod:2,zmod:2,zmod:2",
    "product:zmod:4,zmod:4",
    "product:zmod:8,zmod:2",
    "product:zmod:2,zmod:9",
    "tri:2:zmod:4",
    "tri:3:zmod:2",
    "cdtri:3:zmod:3",
    "cdtri:4:zmod:2",
    "product:tri:2:zmod:2,zmod:3",
    "product:mat:2:zmod:2,zmod:2",
    "product:cdtri:2:zmod:2,zmod:3",
    "product:cdtri:3:zmod:2,zmod:2",
    "dorroh:zmod:3",
    "dorroh:tri:2:zmod:2",
    "quot:gen:2:tri:2:zmod:4",
    "quot:delta:zmod:8",
]

# rings whose zero and one move under relabelling in the lattice, delta and
# commutant tests
RELABELLED_PRESETS = [
    "zmod:12",
    "tri:2:zmod:3",
    "mat:2:zmod:2",
    "cdtri:3:zmod:2",
    "product:zmod:2,zmod:4",
    "product:tri:2:zmod:2,zmod:3",
    "dorroh:zmod:3",
    "quot:gen:2:tri:2:zmod:4",
]

# the non-commutative rings of DIFFERENTIAL_PRESETS, and M2(Z2) x Z2 x Z2,
# whose centre of 8 elements leaves 7 non-central cosets
NON_COMMUTATIVE_PRESETS = [
    "mat:2:zmod:2",
    "tri:2:zmod:3",
    "cdtri:3:zmod:2",
    "product:tri:2:zmod:2,zmod:2",
    "tri:2:zmod:4",
    "tri:3:zmod:2",
    "cdtri:3:zmod:3",
    "cdtri:4:zmod:2",
    "product:tri:2:zmod:2,zmod:3",
    "product:mat:2:zmod:2,zmod:2",
    "product:cdtri:3:zmod:2,zmod:2",
    "dorroh:tri:2:zmod:2",
    "quot:gen:2:tri:2:zmod:4",
    "product:mat:2:zmod:2,zmod:2,zmod:2",
]

ELEMENT_PROPERTIES = [p for p in PropertyName if p not in PropertyName.ring_only()]

# The order-256 products of the lattice benchmark, 192-224 right ideals each.
LATTICE_SURVEY_RINGS = [
    "product:zmod:4,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
    "product:tri:2:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
    "product:tri:2:zmod:2,tri:2:zmod:2,zmod:2,zmod:2",
    "product:cdtri:2:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
]
Z2_POWER_NINE = "product:" + ",".join(["zmod:2"] * 9)


def _assert_cross_checks_match_per_cell_loops(ring):
    n = ring.order
    assert units_map(ring) == oracles.percell_units_map(ring), ring.name
    assert ring._neg_table() == oracles.percell_neg_table(ring), ring.name
    assert tuple(set(s.indices()) for s in element_sets(ring)) == (
        oracles.brute_units(ring),
        oracles.brute_idempotents(ring),
        oracles.brute_nilpotents(ring),
    ), ring.name
    assert _principal_bits(ring) == oracles.percell_principal_bits(ring), ring.name
    for a in range(n):
        assert commutant_bits(ring, a) == oracles.percell_commutant_bits(ring, a), (
            ring.name,
            a,
        )
    # jacobson raises unless its two routes agree, so this pins route b
    assert jacobson(ring).bits == oracles.percell_jacobson_route_b(ring), ring.name
    assert qnil_set(ring).bits == oracles.percell_qnil_bits(ring), ring.name
    assert delta_r5(ring).bits == oracles.percell_delta_r5(ring), ring.name
    for ideal in all_right_ideals(ring):
        assert _ideal_core_bits(ring, ideal.bits) == (
            oracles.percell_ideal_core_bits(ring, ideal.bits)
        ), (ring.name, ideal.indices())


def _assert_ring_property_is_the_element_sweep(ring):
    # the expected mask is the oracle's search, since a certificate reads
    # membership off the same mask as ring_property
    for prop in ELEMENT_PROPERTIES:
        expected = oracles.search_mask(ring, prop)
        swept = [element_property(ring, a, prop) is not None for a in range(ring.order)]
        assert swept == [a in expected for a in range(ring.order)], (ring.name, prop)
        least = next((a for a in range(ring.order) if a not in expected), None)
        assert ring_property(ring, prop) == (least is None, least), (ring.name, prop)
        assert property_mask(ring, prop) == expected, (ring.name, prop)
    # The exchange mask is read off principal masks, so it is also held to the
    # per-element oracle sweeps.  Both masks are full on every finite ring: it
    # is semiperfect, hence an exchange ring (Nicholson, "Lifting idempotents
    # and exchange rings", Trans. AMS 229 (1977)), and artinian, hence strongly
    # pi-regular.  A ring on which either fails shows a bug in the masks.  A
    # full mask cannot tell a right computation from a constant one, so the
    # idempotents that make each a exchange are compared as well.
    exchange = properties._exchange_idempotents(ring)
    for a in range(ring.order):
        assert exchange[a] == oracles.exchange_idempotents(ring, a), (ring.name, a)
    full = (1 << ring.order) - 1
    for prop, finder in (
        (PropertyName.EXCHANGE, oracles.find_exchange),
        (PropertyName.STRONGLY_PI_REGULAR, oracles.find_strongly_pi_regular),
    ):
        swept = sum(1 << a for a in range(ring.order) if finder(ring, a) is not None)
        assert property_mask(ring, prop).bits == swept == full, (ring.name, prop)


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_cross_checks_match_per_cell_loops(preset):
    _assert_cross_checks_match_per_cell_loops(build_preset(preset))


def test_cross_checks_match_per_cell_loops_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_cross_checks_match_per_cell_loops(ring)


def _assert_coset_and_class_paths_match_oracles(ring):
    """Commutants read once per coset of the centre, the double commutants
    taken per commutant class, the quasinilpotents compressed by those
    commutants and the Fast Close-by-One lattice, each against its oracle."""
    n = ring.order
    double = [oracles.brute_double_commutant(ring, a) for a in range(n)]
    for a in range(n):
        assert commutant_bits(ring, a) == oracles.percell_commutant_bits(ring, a), (
            ring.name,
            a,
        )
        assert set(double_commutant(ring, a).indices()) == double[a], (ring.name, a)
        holders = sum(1 << b for b in range(n) if a in double[b])
        assert properties._double_commuters(ring, a) == holders, (ring.name, a)
    assert qnil_set(ring).bits == oracles.percell_qnil_bits(ring), ring.name
    brute = oracles.brute_right_ideals if n <= 16 else oracles.brute_join_closure_right_ideals
    assert [frozenset(i.indices()) for i in all_right_ideals(ring)] == brute(ring), ring.name


@pytest.mark.parametrize(
    "preset", list(dict.fromkeys(NON_COMMUTATIVE_PRESETS + RELABELLED_PRESETS))
)
def test_coset_and_class_paths_match_oracles(preset):
    """As built and relabelled so that zero and one move, which changes the
    least member of each coset of the centre."""
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"cosets:{preset}"))
    relabelled = oracles.permuted_ring(ring, perm)
    assert (relabelled.zero, relabelled.one) != (0, 1)
    for each in (ring, relabelled):
        _assert_coset_and_class_paths_match_oracles(each)
    if preset in NON_COMMUTATIVE_PRESETS:
        assert center_bits(ring) != (1 << ring.order) - 1, preset


@pytest.mark.parametrize(
    "preset", ["zmod:27", "zmod:64", "mat:2:zmod:3", "mat:2:zmod:4", "product:zmod:9,zmod:8"]
)
def test_principal_bits_per_unit_orbit_match_per_cell_loop(preset):
    """One mask per orbit aU, on rings with many units and relabelled so that
    neither zero nor one keeps its index."""
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"orbits:{preset}"))
    for each in (ring, oracles.permuted_ring(ring, perm)):
        assert _principal_bits(each) == oracles.percell_principal_bits(each), preset


def test_principal_bits_builds_one_mask_per_unit_orbit(monkeypatch):
    """On Z64 the orbits aU are the classes of gcd(a, 64): seven masks."""
    calls = []
    mask_from_flags = ideals.mask_from_flags

    def counted(flags):
        calls.append(flags)
        return mask_from_flags(flags)

    monkeypatch.setattr(ideals, "mask_from_flags", counted)
    _principal_bits(build_preset("zmod:64"))
    assert len(calls) == 7


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS + LATTICE_SURVEY_RINGS + [Z2_POWER_NINE])
def test_ring_property_is_the_element_sweep(preset):
    _assert_ring_property_is_the_element_sweep(build_preset(preset))


def test_ring_property_is_the_element_sweep_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_ring_property_is_the_element_sweep(ring)


def _assert_companion_masks_match_the_per_element_walk(ring):
    """Masks, ring witnesses, certificates and spectral lists, all read off
    the masks A_p, against the walk over the idempotents of each element."""
    for prop in _COMPANION_SPECS:
        walked = [oracles.search(ring, a, prop) for a in range(ring.order)]
        bits = sum(1 << a for a, witnesses in enumerate(walked) if witnesses is not None)
        assert property_mask(ring, prop).bits == bits, (ring.name, prop)
        least = next((a for a, witnesses in enumerate(walked) if witnesses is None), None)
        assert ring_property(ring, prop) == (least is None, least), (ring.name, prop)
        for a, witnesses in enumerate(walked):
            cert = element_property(ring, a, prop)
            found = None if cert is None else dict(cert.witnesses)
            assert found == witnesses, (ring.name, prop, a)
    for flavor, prop in _SPECTRAL_FLAVORS.items():
        for a in range(ring.order):
            assert spectral_candidates(ring, a, flavor) == tuple(
                oracles.companions(ring, a, prop)
            ), (ring.name, flavor, a)


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_companion_masks_match_the_per_element_walk(preset):
    _assert_companion_masks_match_the_per_element_walk(build_preset(preset))


def test_companion_masks_match_the_per_element_walk_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_companion_masks_match_the_per_element_walk(ring)


@pytest.mark.parametrize("preset", ["mat:2:zmod:2", "tri:2:zmod:3", "cdtri:3:zmod:2"])
def test_companion_masks_match_the_per_element_walk_on_relabelled_rings(
    preset, monkeypatch
):
    """Relabelled non-commutative rings.  M2(Z2) and T2(Z3) have non-central
    idempotents, so they reach the comm2 test; every idempotent of CT3(Z2)
    is central, so it never does."""
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"companions:{preset}"))
    relabelled = oracles.permuted_ring(ring, perm)
    tested = []
    double_commuters = properties._double_commuters

    def recorded(ring, p):
        kept = double_commuters(ring, p)
        tested.append(kept)  # never 0: p double-commutes with itself
        return kept

    monkeypatch.setattr(properties, "_double_commuters", recorded)
    _assert_companion_masks_match_the_per_element_walk(relabelled)
    non_central = element_sets(relabelled)[1].bits & ~center_bits(relabelled)
    assert bool(non_central) == (preset != "cdtri:3:zmod:2"), preset
    assert any(tested) == bool(non_central), preset


def test_neg_table_matches_per_row_scan_on_relabelled_rings():
    for preset in ("zmod:12", "tri:2:zmod:3", "mat:2:zmod:2", "dorroh:zmod:4"):
        ring = build_preset(preset)
        perm = oracles.moving_permutation(ring, random.Random(f"neg:{preset}"))
        relabelled = oracles.permuted_ring(ring, perm)
        assert relabelled._neg_table() == oracles.percell_neg_table(relabelled), preset


def _assert_ring_level_readings_match_old_loops(ring):
    """right-pp read as regularity, and boolean read off the idempotent mask,
    against the loops they replaced."""
    assert ring_property(ring, PropertyName.RIGHT_PP) == oracles.ring_right_pp(ring), (
        ring.name
    )
    assert ring_property(ring, PropertyName.BOOLEAN) == oracles.ring_boolean(ring), (
        ring.name
    )


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_ring_level_readings_match_old_loops(preset):
    _assert_ring_level_readings_match_old_loops(build_preset(preset))


def test_ring_level_readings_match_old_loops_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_ring_level_readings_match_old_loops(ring)


def _assert_quotients_and_corners_match_old_builders(ring):
    """Each quotient by a two-sided ideal and each corner at a central
    idempotent, built through the one induced-ring builder, against the
    builders that made their own tables; ring equality compares the tables,
    zero, one, name and labels."""
    for ideal in two_sided_ideals(ring):
        quotient, proj = build_quotient(ring, ideal)
        assert (quotient, proj) == oracles.reference_quotient(ring, ideal), (
            ring.name,
            ideal.indices(),
        )
    for e in bit_members(element_sets(ring)[1].bits & center_bits(ring)):
        assert build_corner(ring, e) == oracles.reference_corner(ring, e), (ring.name, e)


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_quotients_and_corners_match_old_builders(preset):
    _assert_quotients_and_corners_match_old_builders(build_preset(preset))


def test_quotients_and_corners_match_old_builders_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_quotients_and_corners_match_old_builders(ring)


@pytest.mark.parametrize("preset", RELABELLED_PRESETS)
def test_quotients_and_corners_match_old_builders_relabelled(preset):
    """Relabelled so that zero and one move, as the coset walk sees them."""
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"quotients:{preset}"))
    _assert_quotients_and_corners_match_old_builders(oracles.permuted_ring(ring, perm))


REGULARITY = (PropertyName.VON_NEUMANN_REGULAR, PropertyName.STRONGLY_REGULAR)


@pytest.mark.parametrize(
    "preset", ["zmod:12", "tri:2:zmod:3", "mat:2:zmod:2", "cdtri:3:zmod:2", "dorroh:zmod:4"]
)
def test_regularity_is_decided_without_a_finder(preset, monkeypatch):
    """Von Neumann and strong regularity are read off the principal masks:
    on a fresh ring, neither the ring decision nor the mask calls a finder."""
    expected = {prop: oracles.search_mask(build_preset(preset), prop) for prop in REGULARITY}

    def refuse(ring, a):
        raise AssertionError("a regularity finder was called")

    for prop in REGULARITY:
        monkeypatch.setitem(properties._FINDERS, prop, refuse)
    ring = build_preset(preset)
    for prop in REGULARITY:
        least = next((a for a in range(ring.order) if a not in expected[prop]), None)
        assert ring_property(ring, prop) == (least is None, least), (preset, prop)
        assert property_mask(ring, prop) == expected[prop], (preset, prop)


@pytest.mark.parametrize("preset", ["zmod:4", "tri:2:zmod:3", "mat:2:zmod:2"])
def test_report_and_unit_spectral_claim_read_the_spectral_lists(preset, monkeypatch):
    """Neither the report nor the unit-spectral claim calls the validating
    spectral_candidates, and the report owns its lists: appending to them
    changes neither spectral_candidates nor a second report."""
    reference = build_preset(preset)
    spectral = [list(spectral_candidates(reference, a, "delta")) for a in range(reference.order)]
    entry = CatalogEntry(name=preset, recipe=preset)
    claim = next(c for c in registry() if c.id == "unit-spectral-idempotent-is-identity")
    expected = oracles.check_unit_spectral_identity(
        SuiteContext(entries=(entry,), rings={preset: reference})
    )

    def refuse(*args):
        raise AssertionError("spectral_candidates was called")

    for module in (properties, report_module, claims):
        monkeypatch.setattr(module, "spectral_candidates", refuse, raising=module is properties)
    ring = build_preset(preset)
    built = build_report(ring)
    assert built["delta_spectral"] == spectral, preset
    assert claim.check(SuiteContext(entries=(entry,), rings={preset: ring})) == expected
    for companions in built["delta_spectral"]:
        companions.append(ring.order)
    assert [list(spectral_candidates(ring, a, "delta")) for a in range(ring.order)] == spectral
    assert build_report(ring)["delta_spectral"] == spectral, preset


def _permuted_report(report: dict, perm) -> dict:
    """``report`` with element ``a`` renamed ``perm[a]`` throughout."""

    def members(indices):
        return sorted(perm[x] for x in indices)

    spectral = [None] * len(perm)
    for a, candidates in enumerate(report["delta_spectral"]):
        spectral[perm[a]] = members(candidates)
    return {
        **report,
        "zero": perm[report["zero"]],
        "one": perm[report["one"]],
        "sets": {key: members(value) for key, value in report["sets"].items()},
        "delta": {
            key: members(value) if isinstance(value, list) else value
            for key, value in report["delta"].items()
        },
        "delta_spectral": spectral,
    }


@pytest.mark.parametrize(
    "preset",
    [
        "zmod:4",
        "zmod:12",
        "tri:2:zmod:3",
        "mat:2:zmod:2",
        "cdtri:3:zmod:2",
        "dorroh:zmod:4",
        "product:zmod:3,zmod:4",
        "product:tri:2:zmod:2,zmod:2",
        "quot:gen:2:tri:2:zmod:4",
    ],
)
def test_report_commutes_with_relabelling(preset):
    """A random renaming of the elements that moves zero and one renames the
    report and changes nothing else."""
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"relabel:{preset}"))
    relabelled = oracles.permuted_ring(ring, perm)
    assert build_report(relabelled) == _permuted_report(build_report(ring), perm)
