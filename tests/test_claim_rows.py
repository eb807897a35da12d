"""Claim rows, the per-ring checkers, the counterexample search and the
spec-derived certificate checks against the code they replaced.

The references in ``oracles`` are the old per-claim checkers, each with its
own loop over the catalog, the old per-element search and the old
per-property certificate checks.  They are compared on the catalog and on
``DIFFERENTIAL_PRESETS``.
"""
from __future__ import annotations

import random

import pytest

import oracles
from ringlab.catalog import CatalogEntry, build_entry
from ringlab.claims import (
    SuiteContext,
    _elementwise,
    _transfer,
    registry,
    search_counterexample,
)
from ringlab.core import build_quotient
from ringlab.ideals import two_sided_ideals
from ringlab.properties import (
    PropertyName,
    _certificate_checks,
    _search,
    element_property,
    ring_property,
)
from test_cross_checks import DIFFERENTIAL_PRESETS, ELEMENT_PROPERTIES

REPLACED_CHECKERS = {
    "semisimple-or-boolean-is-delta-quasipolar": oracles.check_semisimple_or_boolean,
    "j-quasipolar-implies-delta-quasipolar": oracles.check_j_implies_delta,
    "delta-quasipolar-with-socle-in-radical-is-j-quasipolar": (
        oracles.check_socle_in_radical_converse
    ),
    "conjugation-preserves-delta-quasipolar": oracles.check_conjugation_invariance,
    "minus-one-shift-preserves-delta-quasipolar": oracles.check_shift_invariance,
    "delta-quasipolar-implies-weakly": oracles.check_delta_implies_weakly,
    "weakly-delta-quasipolar-surjective-images": oracles.check_weakly_surjective_images,
    "weakly-delta-quasipolar-corner-rings": oracles.check_weakly_corners,
    "weakly-equals-strongly-delta-r-clean": oracles.check_weakly_equals_strongly_delta_r,
}

DQP = PropertyName.DELTA_QUASIPOLAR
ABELIAN_DQP = (PropertyName.ABELIAN, DQP)
PRE_CHANGE_CHECKERS = {
    "delta-five-characterizations": oracles.check_five_characterizations,
    "conjugation-preserves-delta-quasipolar": oracles.check_conjugation_masks,
    "unit-spectral-idempotent-is-identity": oracles.check_unit_spectral_identity,
    "delta-quasipolar-ring-has-two-in-delta": oracles.check_two_in_delta,
    "local-quasipolar-implies-delta-quasipolar": oracles.implies(
        PropertyName.LOCAL, PropertyName.QUASIPOLAR, conclusion=DQP
    ),
    "delta-quasipolar-implies-right-pp": oracles.implies(
        DQP, conclusion=PropertyName.RIGHT_PP
    ),
    "abelian-delta-quasipolar-implies-strongly-regular": oracles.implies(
        *ABELIAN_DQP, conclusion=PropertyName.STRONGLY_REGULAR
    ),
    "abelian-delta-quasipolar-implies-quasipolar": oracles.implies(
        *ABELIAN_DQP, conclusion=PropertyName.QUASIPOLAR
    ),
    "abelian-delta-quasipolar-implies-strongly-clean": oracles.implies(
        *ABELIAN_DQP, conclusion=PropertyName.STRONGLY_CLEAN
    ),
    "delta-quasipolar-quotient-is-boolean-with-lifting": (
        oracles.check_quotient_boolean_lifting
    ),
    "delta-quasipolar-iff-delta-r-clean-for-abelian": (
        oracles.check_delta_r_clean_equivalence
    ),
    "delta-quasipolar-implies-exchange": oracles.implies(
        DQP, conclusion=PropertyName.EXCHANGE
    ),
    "boolean-regular-chain": oracles.check_boolean_regular_chain,
    "abelian-j-clean-implies-delta-quasipolar": oracles.implies(
        PropertyName.ABELIAN, PropertyName.J_CLEAN, conclusion=DQP
    ),
    "trivial-idempotents-dichotomy": oracles.check_trivial_idempotents_dichotomy,
    "radical-chain-when-delta-equals-radical": oracles.check_radical_chain,
    "strongly-j-clean-implies-weakly-delta-quasipolar": oracles.implies(
        PropertyName.STRONGLY_J_CLEAN, conclusion=PropertyName.WEAKLY_DELTA_QUASIPOLAR
    ),
    "local-ring-five-equivalences": oracles.check_local_five_equivalences,
}

# read the Dorroh recipes and pairs of catalog rings; not per-ring checkers
SUITE_LEVEL = {"dorroh-delta-quasipolar-transfer", "weakly-delta-quasipolar-finite-products"}


@pytest.fixture(scope="module")
def suites(catalog_entries, catalog_rings):
    """The catalog, and the differential presets as a second catalog."""
    entries = tuple(CatalogEntry(name=p, recipe=p) for p in DIFFERENTIAL_PRESETS)
    rings = {entry.name: build_entry(entry) for entry in entries}
    return (
        SuiteContext(entries=tuple(catalog_entries), rings=catalog_rings),
        SuiteContext(entries=entries, rings=rings),
    )


@pytest.mark.parametrize("claim_id", REPLACED_CHECKERS)
def test_claim_rows_match_the_checkers_they_replaced(suites, claim_id):
    claim = next(c for c in registry() if c.id == claim_id)
    for ctx in suites:
        assert claim.check(ctx) == REPLACED_CHECKERS[claim_id](ctx), claim_id


def test_every_per_ring_claim_has_a_pre_change_checker():
    checked = {claim.id for claim in registry() if claim.check is not None}
    assert SUITE_LEVEL <= checked
    assert set(REPLACED_CHECKERS) | set(PRE_CHANGE_CHECKERS) == checked - SUITE_LEVEL


@pytest.mark.parametrize("claim_id", PRE_CHANGE_CHECKERS)
def test_per_ring_claims_match_their_pre_change_checkers(suites, claim_id):
    claim = next(c for c in registry() if c.id == claim_id)
    witnesses = [claim.check(ctx) for ctx in suites]
    assert witnesses == [PRE_CHANGE_CHECKERS[claim_id](ctx) for ctx in suites], claim_id
    # the disputed claims, and only they, are refuted on the catalog, so the
    # comparison is not between empty lists throughout
    assert bool(witnesses[0]) == bool(claim.disputed), claim_id


def _neg(ring):
    return ring._neg_table()


def _shift(ring):
    return [ring.neg(x) for x in ring.add[ring.one]]


@pytest.mark.parametrize("image", [None, _neg, _shift], ids=["identity", "neg", "shift"])
@pytest.mark.parametrize("iff", [False, True])
def test_elementwise_rows_witness_the_least_disagreement(suites, image, iff):
    """Rows that fail, so that the witnesses are not all empty."""
    pairs = [
        (PropertyName.DELTA_QUASIPOLAR, PropertyName.J_QUASIPOLAR),
        (PropertyName.CLEAN, PropertyName.VON_NEUMANN_REGULAR),
        (PropertyName.STRONGLY_J_CLEAN, PropertyName.NIL_QUASIPOLAR),
    ]
    for hyp, concl in pairs:
        for ctx in suites:
            expected = []
            for name, ring in ctx.items():
                table = image(ring) if image else range(ring.order)
                for a in range(ring.order):
                    h = element_property(ring, a, hyp) is not None
                    c = element_property(ring, table[a], concl) is not None
                    if (h != c) if iff else (h and not c):
                        expected.append({"ring": name, "element": a})
                        break
            assert _elementwise(hyp, concl, image, iff)(ctx) == expected, (hyp, concl)


def _quotients(ring):
    for ideal in two_sided_ideals(ring):
        yield build_quotient(ring, ideal)[0], f"image modulo {list(ideal.indices())}"


@pytest.mark.parametrize(
    "prop", [PropertyName.UNIQUELY_DELTA_R_CLEAN, PropertyName.LOCAL], ids=str
)
def test_transfer_rows_witness_the_first_failing_image(suites, prop):
    """Properties that some quotient loses, so that the witnesses are not
    all empty; the reference is the old quotient checker for any property."""
    for ctx in suites:
        expected = []
        for name, ring in ctx.items():
            if not ring_property(ring, prop)[0]:
                continue
            for ideal in two_sided_ideals(ring):
                holds, witness = ring_property(build_quotient(ring, ideal)[0], prop)
                if not holds:
                    detail = f"image modulo {list(ideal.indices())} fails"
                    expected.append({"ring": name, "element": witness, "detail": detail})
                    break
        assert expected
        assert _transfer(prop, _quotients)(ctx) == expected


def test_search_matches_the_per_element_search(suites):
    entries = [entry for ctx in suites for entry in ctx.entries]
    rings = {name: ring for ctx in suites for name, ring in ctx.items()}
    found = 0
    for hyp in PropertyName:
        for concl in PropertyName:
            expected = oracles.search_counterexample([hyp], concl, entries, rings)
            assert search_counterexample([hyp], concl, entries, rings) == expected
            found += expected is not None
    for hyps in ([PropertyName.ABELIAN, PropertyName.DELTA_QUASIPOLAR],
                 [PropertyName.LOCAL, PropertyName.QUASIPOLAR]):
        for concl in PropertyName:
            expected = oracles.search_counterexample(hyps, concl, entries, rings)
            assert search_counterexample(hyps, concl, entries, rings) == expected
    assert found > 100


WITNESS_KEYS = {
    **dict.fromkeys(
        ["quasipolar", "nil-quasipolar", "j-quasipolar", "delta-quasipolar",
         "weakly-delta-quasipolar"],
        ("p",),
    ),
    **dict.fromkeys(["clean", "strongly-clean", "uniquely-clean"], ("e", "u")),
    **dict.fromkeys(
        ["j-clean", "strongly-j-clean", "delta-r-clean", "strongly-delta-r-clean",
         "uniquely-delta-r-clean"],
        ("e", "w"),
    ),
    "von-neumann-regular": ("b",),
    "strongly-regular": ("b",),
    "strongly-pi-regular": ("n", "x"),
    "exchange": ("e", "r", "s"),
}


def _outcome(checks, ring, prop, a, witnesses):
    try:
        return checks(ring, prop, a, witnesses)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return type(err)


def _assert_certificate_checks_match(ring, rng):
    n = ring.order
    for prop in ELEMENT_PROPERTIES:
        keys = WITNESS_KEYS[prop.value]
        for a in range(n):
            cases = [
                # forged: mistyped, missing a key, out of range or negative
                dict.fromkeys(keys, None),
                dict.fromkeys(keys[1:], 0),
                *({k: rng.randrange(-2, n + 2) for k in keys} for _ in range(2)),
            ]
            real = _search(ring, a, prop)
            if real is not None:
                cases.append(real)
            for witnesses in cases:
                assert _outcome(_certificate_checks, ring, prop, a, witnesses) == _outcome(
                    oracles.certificate_checks, ring, prop, a, witnesses
                ), (ring.name, prop, a, witnesses)


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_certificate_checks_match_the_per_property_checks(suites, preset):
    _assert_certificate_checks_match(suites[1].rings[preset], random.Random(preset))


def test_certificate_checks_match_the_per_property_checks_on_catalog(catalog_rings):
    for name, ring in catalog_rings.items():
        _assert_certificate_checks_match(ring, random.Random(name))
