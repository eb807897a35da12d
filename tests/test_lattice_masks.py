"""The lattice predicates behind the delta routes, as whole-mask operations,
against the member loops and pairwise filters they replaced.

Every translate ``t + S`` is one walk along row ``t`` of ``add``, over the
smaller of ``S`` and its complement.  ``I + K = R`` is one AND with the
coset ``1 + K``, the ideal core is read off the additive generators' rows,
the maximal and minimal right ideals come from one sorted pass, and summand
witnesses from one dict per ring.  Each is compared with its reference in
``oracles`` on the catalog, on the differential presets and on relabelled
rings whose zero and one move.
Routes 3 and 5 and the delta-small test, decided once per distinct
principal right ideal against one union of cosets, are compared with the
per-coset and per-cell loops on relabelled and decomposable rings.
"""
from __future__ import annotations

import random

import pytest

import oracles
from ringlab import ideals, radicals
from ringlab.catalog import build_entry, build_preset, default_catalog
from ringlab.core import ComputationFault
from ringlab.ideals import (
    _ideal_core_bits,
    _is_delta_small_bits,
    _one_plus_bits,
    _principal_bits,
    _principal_classes,
    _summand_witnesses,
    _translate_bits,
    all_right_ideals,
    maximal_right_ideals,
    minimal_right_ideals,
)
from ringlab.radicals import DeltaDisagreement, delta
from test_cross_checks import DIFFERENTIAL_PRESETS, RELABELLED_PRESETS


@pytest.mark.parametrize("preset", ["zmod:12", "tri:2:zmod:2", "mat:2:zmod:2"])
def test_translate_is_row_t_of_add_at_every_member(preset):
    """``t + S`` for every ``t``, all from one call, with ``S`` sparse,
    exactly half of the ring (the tie, where ``S`` itself is walked) and
    dense (where its complement is), on rings whose zero and one move.  The
    walked side is read through its flags on Z12 at sizes 6 and 7 and on
    M2(Z2) at sizes 8 and 9, and bit by bit at the other sizes."""
    ring = build_preset(preset)
    rng = random.Random(f"translate:{preset}")
    relabelled = oracles.permuted_ring(ring, oracles.moving_permutation(ring, rng))
    assert (relabelled.zero, relabelled.one) != (0, 1)
    n = relabelled.order
    for size in (0, 1, n // 4, n // 2, n // 2 + 1, 3 * n // 4, n - 1, n):
        members = rng.sample(range(n), size)
        bits = sum(1 << x for x in members)
        masks = _translate_bits(relabelled, bits, range(n))
        assert len(masks) == n, (preset, sorted(members))
        for t, (row, mask) in enumerate(zip(relabelled.add, masks)):
            assert mask == sum(1 << row[x] for x in members), (preset, sorted(members), t)


def _assert_lattice_predicates_match_oracles(ring):
    lattice = all_right_ideals(ring)
    for ideal in lattice:
        coset = _one_plus_bits(ring, ideal.bits)
        assert coset == oracles.member_one_plus_bits(ring, ideal.bits)
        for other in lattice:
            assert (other.bits & coset != 0) == oracles.member_sum_is_full(
                ring, other.bits, ideal.bits
            ), (ring.name, other.indices(), ideal.indices())
        assert _summand_witnesses(ring).get(ideal.bits) == oracles.scan_summand_witness(
            ring, ideal.bits
        ), (ring.name, ideal.indices())
        assert _ideal_core_bits(ring, ideal.bits) == (
            oracles.column_scan_ideal_core_bits(ring, ideal.bits)
        ), (ring.name, ideal.indices())
    assert maximal_right_ideals(ring) == oracles.pairwise_maximal_right_ideals(ring)
    assert minimal_right_ideals(ring) == oracles.pairwise_minimal_right_ideals(ring)


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_lattice_predicates_match_oracles(preset):
    _assert_lattice_predicates_match_oracles(build_preset(preset))


def test_lattice_predicates_match_oracles_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_lattice_predicates_match_oracles(ring)


@pytest.mark.parametrize("preset", RELABELLED_PRESETS)
def test_lattice_predicates_match_oracles_relabelled(preset):
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"lattice:{preset}"))
    relabelled = oracles.permuted_ring(ring, perm)
    assert (relabelled.zero, relabelled.one) != (0, 1)
    _assert_lattice_predicates_match_oracles(relabelled)


# rings with a nontrivial central idempotent, so that right ideals, summands
# and socle complements split across the factors
DECOMPOSABLE_PRESETS = [
    "tri:2:zmod:6",
    "product:zmod:4,tri:2:zmod:2",
    "product:cdtri:3:zmod:2,zmod:3",
]


def _assert_delta_masks_match_oracles(ring):
    pb = _principal_bits(ring)
    assert pb == oracles.percell_principal_bits(ring), ring.name
    # the classes partition R: each holds exactly the x with that xR
    classes = _principal_classes(ring)
    assert set(classes) == set(pb), ring.name
    for xr, generators in classes.items():
        assert generators == sum(1 << x for x in range(ring.order) if pb[x] == xr)
    r3 = radicals.delta_r3(ring).bits
    assert r3 == oracles.coset_delta_r3(ring), ring.name
    if ring.order <= 16:
        assert r3 == sum(1 << x for x in oracles.brute_delta_r3(ring)), ring.name
    assert radicals.delta_r5(ring).bits == oracles.percell_delta_r5(ring), ring.name
    for ideal in all_right_ideals(ring):
        assert _is_delta_small_bits(ring, ideal.bits) == (
            oracles.coset_is_delta_small_bits(ring, ideal.bits)
        ), (ring.name, ideal.indices())


@pytest.mark.parametrize("preset", RELABELLED_PRESETS + DECOMPOSABLE_PRESETS)
def test_delta_masks_match_oracles_relabelled(preset):
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"delta:{preset}"))
    relabelled = oracles.permuted_ring(ring, perm)
    assert (relabelled.zero, relabelled.one) != (0, 1)
    _assert_delta_masks_match_oracles(relabelled)


@pytest.mark.parametrize("preset", DECOMPOSABLE_PRESETS)
def test_delta_masks_match_oracles_on_decomposable_rings(preset):
    _assert_delta_masks_match_oracles(build_preset(preset))


def _delta_faults(monkeypatch, modules) -> list[ComputationFault]:
    """The faults ``delta`` raises on fresh catalog rings when the coset
    helper, as read by the given modules, returns K instead of 1 + K."""

    def wrong(ring, bits):
        return bits

    for module in modules:
        monkeypatch.setattr(module, "_one_plus_bits", wrong)
    faults = []
    for entry in default_catalog():
        try:
            delta(build_entry(entry))
        except ComputationFault as err:
            faults.append(err)
    return faults


def test_wrong_coset_is_caught(monkeypatch):
    """Routes 2 and 3 share the coset helper.  Wrong for both, route 2's own
    check that the sum of the small ideals is small fails first; wrong for
    route 3 alone, the five routes disagree."""
    assert _delta_faults(monkeypatch, [ideals, radicals])
    monkeypatch.undo()
    faults = _delta_faults(monkeypatch, [radicals])
    assert any(isinstance(err, DeltaDisagreement) for err in faults)
