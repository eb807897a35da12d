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
from ringlab import claims, properties, radicals
from ringlab.catalog import CatalogEntry, build_entry, build_preset
from ringlab.claims import (
    STATUS_VIOLATED,
    SuiteContext,
    _elementwise,
    _transfer,
    registry,
    search_counterexample,
    theorem_suite,
)
from ringlab.core import ElementSet, build_quotient, element_sets
from ringlab.ideals import two_sided_ideals
from ringlab.properties import (
    PropertyName,
    _certificate_checks,
    element_property,
    ring_property,
)
from ringlab.radicals import DeltaComputation, qnil_set
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
            real = oracles.search(ring, a, prop)
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


def test_certificate_checks_are_named_exact_bools(suites):
    """1 == True, so an int check would pass every comparison above; it would
    still change a certificate's repr and print 1 for true in JSON."""
    for ctx in suites:
        for ring in ctx.rings.values():
            for prop in ELEMENT_PROPERTIES:
                for a in range(ring.order):
                    cert = element_property(ring, a, prop)
                    for check in () if cert is None else cert.checks:
                        assert len(check) == 2, (ring.name, prop, a, check)
                        assert type(check[0]) is str, (ring.name, prop, a, check)
                        assert type(check[1]) is bool, (ring.name, prop, a, check)


# --------------------------------------------------------------------------
# witness branches forced open
#
# On the catalog and the differential presets only the disputed claims
# produce witnesses, so the witness branches of the other checkers never run
# there.  Each case below sets one input fact of one freshly built ring (a
# property, a companion mask, delta, qnil, the idempotents, the spectral
# lists or one delta route) so that one branch fires, and compares the
# registry's witnesses with the old checkers'.


def _force(monkeypatch, ring, fact, *args, value):
    """Make the memoised ``fact(ring, *args)`` return ``value`` on this ring."""
    monkeypatch.setitem(ring._cache, (fact.__wrapped__, *args), value)


def _property(prop, holds, witness=None):
    def force(monkeypatch, ring):
        _force(monkeypatch, ring, properties._ring_property, prop, value=(holds, witness))

    return force


def _companions(prop, *members):
    """The least idempotent is the companion of exactly ``members``; no other
    idempotent is a companion of anything."""

    def force(monkeypatch, ring):
        others = (0,) * (len(element_sets(ring)[1]) - 1)
        masks = (sum(1 << a for a in members), *others)
        _force(monkeypatch, ring, properties._companion_masks, prop, value=masks)

    return force


def _zero_delta(monkeypatch, ring):
    """delta is {0}, after delta-quasipolarity is decided."""
    ring_property(ring, DQP)
    zero = ElementSet.from_indices(ring.order, [ring.zero])
    computation = DeltaComputation(*[zero] * 5, agree=True, consensus=zero)
    _force(monkeypatch, ring, radicals.delta, value=computation)


def _split_delta_r5(monkeypatch, ring):
    real = radicals.delta_r5
    monkeypatch.setattr(
        radicals, "delta_r5", lambda r: ElementSet.full(r.order) if r is ring else real(r)
    )


def _delta_and_radical(*members):
    """delta and the Jacobson radical are both ``members``.  The companion
    masks are built from them, and so are the independent oracle's
    companions."""

    def force(monkeypatch, ring):
        forced = ElementSet.from_indices(ring.order, members)
        computation = DeltaComputation(*[forced] * 5, agree=True, consensus=forced)
        _force(monkeypatch, ring, radicals.delta, value=computation)
        _force(monkeypatch, ring, radicals.jacobson, value=forced)

    return force


def _unlifted_idempotent(e):
    """``e`` is dropped from the idempotents, after delta-quasipolarity is decided."""

    def force(monkeypatch, ring):
        ring_property(ring, DQP)
        units, idempotents, nilpotents = element_sets(ring)
        dropped = ElementSet(idempotents.bits & ~(1 << e), ring.order)
        _force(monkeypatch, ring, element_sets, value=(units, dropped, nilpotents))

    return force


def _qnil(*members):
    def force(monkeypatch, ring):
        _force(monkeypatch, ring, qnil_set, value=ElementSet.from_indices(ring.order, members))

    return force


P = PropertyName
FORCED_BRANCHES = [
    ("delta-five-characterizations", "zmod:4", _split_delta_r5),
    ("semisimple-or-boolean-is-delta-quasipolar", "zmod:2", _property(DQP, False, 1)),
    ("j-quasipolar-implies-delta-quasipolar", "zmod:2", _companions(DQP, 0)),
    (
        "delta-quasipolar-with-socle-in-radical-is-j-quasipolar",
        "zmod:4",
        _property(P.J_QUASIPOLAR, False, 3),
    ),
    ("conjugation-preserves-delta-quasipolar", "mat:2:zmod:2", _companions(DQP, 4)),
    ("minus-one-shift-preserves-delta-quasipolar", "zmod:4", _companions(DQP, 1)),
    # the unit 3 of Z4 has companions (0, 1), as 3 + 0 and 3 + 1 = 0 lie in
    # {0, 2, 3}; the unit 1 keeps (1,), as 1 does not and 1 + 1 = 2 does
    ("unit-spectral-idempotent-is-identity", "zmod:4", _delta_and_radical(0, 2, 3)),
    ("delta-quasipolar-ring-has-two-in-delta", "zmod:9", _property(DQP, True)),
    ("local-quasipolar-implies-delta-quasipolar", "zmod:2", _property(DQP, False, 1)),
    ("delta-quasipolar-implies-right-pp", "zmod:2", _property(P.RIGHT_PP, False, 1)),
    (
        "abelian-delta-quasipolar-implies-strongly-regular",
        "zmod:2",
        _property(P.STRONGLY_REGULAR, False, 1),
    ),
    (
        "abelian-delta-quasipolar-implies-quasipolar",
        "zmod:2",
        _property(P.QUASIPOLAR, False, 1),
    ),
    (
        "abelian-delta-quasipolar-implies-strongly-clean",
        "zmod:2",
        _property(P.STRONGLY_CLEAN, False, 1),
    ),
    # the quotient by delta is Z3, not boolean
    ("delta-quasipolar-quotient-is-boolean-with-lifting", "zmod:9", _property(DQP, True)),
    # Z4 x Z4 modulo delta is Z2 x Z2; without the idempotent (1, 0) of
    # Z4 x Z4, its image has no lift
    (
        "delta-quasipolar-quotient-is-boolean-with-lifting",
        "product:zmod:4,zmod:4",
        _unlifted_idempotent(4),
    ),
    (
        "delta-quasipolar-iff-delta-r-clean-for-abelian",
        "zmod:2",
        _property(P.DELTA_R_CLEAN, False, 1),
    ),
    ("delta-quasipolar-iff-delta-r-clean-for-abelian", "zmod:2", _property(DQP, False, 1)),
    ("delta-quasipolar-implies-exchange", "zmod:2", _property(P.EXCHANGE, False, 1)),
    ("boolean-regular-chain", "zmod:4", _zero_delta),
    ("boolean-regular-chain", "zmod:2", _property(P.VON_NEUMANN_REGULAR, False, 1)),
    ("boolean-regular-chain", "zmod:2", _property(DQP, False, 1)),
    ("abelian-j-clean-implies-delta-quasipolar", "zmod:2", _property(DQP, False, 1)),
    ("trivial-idempotents-dichotomy", "zmod:4", _property(DQP, False, 1)),
    ("radical-chain-when-delta-equals-radical", "zmod:4", _qnil(0)),
    ("delta-quasipolar-implies-weakly", "zmod:2", _companions(P.WEAKLY_DELTA_QUASIPOLAR, 0)),
    (
        "strongly-j-clean-implies-weakly-delta-quasipolar",
        "zmod:2",
        _property(P.WEAKLY_DELTA_QUASIPOLAR, False, 1),
    ),
    # Z9 is not weakly delta-quasipolar, so its image modulo {0} and its
    # corner at 1, both fresh copies of it, fail
    (
        "weakly-delta-quasipolar-surjective-images",
        "zmod:9",
        _property(P.WEAKLY_DELTA_QUASIPOLAR, True),
    ),
    (
        "weakly-delta-quasipolar-corner-rings",
        "zmod:9",
        _property(P.WEAKLY_DELTA_QUASIPOLAR, True),
    ),
    (
        "weakly-equals-strongly-delta-r-clean",
        "zmod:4",
        _companions(P.WEAKLY_DELTA_QUASIPOLAR, 0),
    ),
    ("local-ring-five-equivalences", "zmod:4", _property(P.UNIQUELY_CLEAN, False, 1)),
]


def test_every_per_ring_claim_has_a_forced_branch():
    checked = {claim.id for claim in registry() if claim.check is not None}
    assert {claim_id for claim_id, _, _ in FORCED_BRANCHES} == checked - SUITE_LEVEL


@pytest.mark.parametrize(
    "claim_id, preset, force",
    FORCED_BRANCHES,
    ids=[f"{claim_id}-{i}" for i, (claim_id, _, _) in enumerate(FORCED_BRANCHES)],
)
def test_forced_witness_branches_match_the_old_checkers(monkeypatch, claim_id, preset, force):
    ring = build_entry(CatalogEntry(name=preset, recipe=preset))
    force(monkeypatch, ring)
    ctx = SuiteContext(entries=(CatalogEntry(name=preset, recipe=preset),), rings={preset: ring})
    claim = next(c for c in registry() if c.id == claim_id)
    found = claim.check(ctx)
    assert found, claim_id
    for old in (REPLACED_CHECKERS.get(claim_id), PRE_CHANGE_CHECKERS.get(claim_id)):
        if old is not None:
            assert found == old(ctx), claim_id


def _claim(claim_id):
    return next(c for c in registry() if c.id == claim_id)


def test_dorroh_transfer_matches_the_checker_that_read_the_actions(suites):
    """The transfer reads abelian and delta(P) where the old checker built
    the extension data of P acting on itself; the two agree on the catalog,
    the differential presets (three Dorroh entries) and on entries whose
    rings stand in for their extensions.  Z2 for dorroh:zmod:9 leaves the
    base Z9, which is not delta-quasipolar; Z9, which is not one either,
    stands in for dorroh:zmod:2, whose base Z2 meets every hypothesis, and
    for two bases that miss one: M2(Z2) is not abelian, and delta(Z4) is
    not all of Z4."""
    z9 = build_preset("zmod:9")
    recipes = {"a": "dorroh:zmod:9", "b": "dorroh:zmod:2", "c": "dorroh:mat:2:zmod:2",
               "d": "dorroh:zmod:4"}
    forced = SuiteContext(
        entries=tuple(CatalogEntry(name=name, recipe=r) for name, r in recipes.items()),
        rings={"a": build_preset("zmod:2"), "b": z9, "c": z9, "d": z9},
    )
    check = _claim("dorroh-delta-quasipolar-transfer").check
    for ctx in (*suites, forced):
        assert check(ctx) == oracles.check_dorroh_transfer(ctx)
    assert check(forced) == [
        {"ring": "a", "element": None, "detail": "base ring fails to inherit"},
        {"ring": "b", "element": None, "detail": "extension fails despite hypotheses"},
    ]
    results = {r.claim_id: r for r in theorem_suite(forced.entries, forced.rings)}
    assert results["dorroh-delta-quasipolar-transfer"].status == STATUS_VIOLATED


def test_weakly_finite_products_reports_a_product_that_disagrees(monkeypatch):
    """A product of two weakly delta-quasipolar rings that is not one (Z9
    stands in for Z2 x Z2) is a witness named after its factors."""
    monkeypatch.setattr(claims, "build_product", lambda factors: build_preset("zmod:9"))
    ctx = SuiteContext(
        entries=(CatalogEntry(name="Z2", recipe="zmod:2"),), rings={"Z2": build_preset("zmod:2")}
    )
    assert _claim("weakly-delta-quasipolar-finite-products").check(ctx) == [
        {"ring": "Z2xZ2", "element": None,
         "detail": "product weakly False, factors weakly True"},
    ]
