"""Element- and ring-level property deciders against hand-worked expectations.

The frozen booleans below were each decided on paper from the definitions
(witness or exhaustive failure) before implementation.
"""
from __future__ import annotations

import pytest

import oracles
from ringlab.catalog import build_preset
from ringlab.core import (
    ComputationFault,
    ElementSet,
    build_constant_diagonal_triangular,
    build_matrix_ring,
    build_product,
    build_upper_triangular,
    build_zmod,
)
from ringlab.properties import (
    _COMPANION_SPECS,
    _FINDERS,
    _RING_ONLY,
    PropertyName,
    _certificate_checks,
    center,
    commutant,
    double_commutant,
    element_property,
    idempotents_lift,
    property_mask,
    recheck_certificate,
    ring_property,
    spectral_candidates,
)
from ringlab.radicals import delta_mask, jacobson
from ringlab.core import IdealError


@pytest.fixture(scope="module")
def z4():
    return build_zmod(4)


@pytest.fixture(scope="module")
def t2z2():
    return build_upper_triangular(build_zmod(2), 2)


@pytest.fixture(scope="module")
def m2z2():
    return build_matrix_ring(build_zmod(2), 2)


# -------------------------------------------------------------- commutants

def test_commutant_m2z2(m2z2):
    # elements commuting with E12 are exactly x*I + y*E12
    assert commutant(m2z2, 4).indices() == (0, 4, 9, 13)
    assert double_commutant(m2z2, 4).indices() == (0, 4, 9, 13)


def test_commutant_commutative_ring(z4):
    for a in range(4):
        assert len(commutant(z4, a)) == 4
        assert len(double_commutant(z4, a)) == 4


def test_center(t2z2, m2z2):
    assert center(t2z2).indices() == (0, 5)
    assert center(m2z2).indices() == (0, 9)


def test_commutants_match_brute(t2z2, m2z2):
    for ring in (t2z2, m2z2):
        for a in range(ring.order):
            assert set(commutant(ring, a).indices()) == oracles.brute_commutant(ring, a)
            assert set(double_commutant(ring, a).indices()) == (
                oracles.brute_double_commutant(ring, a)
            )


# ------------------------------------------------------ spectral candidates

def test_spectral_candidates_frozen(z4):
    assert spectral_candidates(z4, 1, "delta") == (1,)
    assert spectral_candidates(z4, 0, "delta") == (0,)
    z3 = build_zmod(3)
    assert spectral_candidates(z3, 1, "j") == ()
    assert spectral_candidates(z3, 1, "delta") == (0, 1)
    z6 = build_zmod(6)
    # delta(Z6) is everything, so every idempotent in comm2(0) qualifies
    assert spectral_candidates(z6, 0, "delta") == (0, 1, 3, 4)


def test_spectral_candidates_weak_flavor():
    t2 = build_upper_triangular(build_zmod(2), 2)
    for a in range(8):
        strict = spectral_candidates(t2, a, "delta")
        weak = spectral_candidates(t2, a, "weakly-delta")
        assert set(strict) <= set(weak)


def test_spectral_candidates_rejects_unknown_flavor(z4):
    with pytest.raises(ValueError):
        spectral_candidates(z4, 0, "bogus")


# ------------------------------------------------------------ certificates

def test_delta_quasipolar_certificate_minimal_witness():
    z3 = build_zmod(3)
    cert = element_property(z3, 1, PropertyName.DELTA_QUASIPOLAR)
    assert cert is not None
    assert dict(cert.witnesses)["p"] == 0
    assert recheck_certificate(z3, cert)


def test_strongly_j_clean_certificate_z4(z4):
    cert = element_property(z4, 3, PropertyName.STRONGLY_J_CLEAN)
    assert cert is not None
    w = dict(cert.witnesses)
    assert w == {"e": 1, "w": 2}
    assert all(ok for _, ok in cert.checks)
    assert recheck_certificate(z4, cert)


def test_clean_certificate_z2():
    z2 = build_zmod(2)
    cert = element_property(z2, 0, PropertyName.CLEAN)
    assert dict(cert.witnesses) == {"e": 1, "u": 1}


def test_exchange_certificate_z6():
    z6 = build_zmod(6)
    cert = element_property(z6, 2, PropertyName.EXCHANGE)
    assert dict(cert.witnesses) == {"e": 0, "r": 0, "s": 5}
    assert recheck_certificate(z6, cert)


def test_strongly_pi_regular_certificate_z4(z4):
    cert = element_property(z4, 2, PropertyName.STRONGLY_PI_REGULAR)
    w = dict(cert.witnesses)
    assert w["n"] == 2 and w["x"] == 0
    assert recheck_certificate(z4, cert)


def test_uniquely_clean_counts():
    z4 = build_zmod(4)
    cert = element_property(z4, 3, PropertyName.UNIQUELY_CLEAN)
    assert cert is not None and cert.witness_count == 1
    z9 = build_zmod(9)
    assert element_property(z9, 2, PropertyName.UNIQUELY_CLEAN) is None
    assert len(oracles.brute_clean_decompositions(z9, 2)) == 2


def test_certificate_tampering_is_caught(z4):
    import dataclasses

    cert = element_property(z4, 3, PropertyName.STRONGLY_J_CLEAN)
    forged = dataclasses.replace(cert, witnesses=(("e", 0), ("w", 3)))
    assert not recheck_certificate(z4, forged)


def test_all_certificates_revalidate(catalog_rings):
    element_level = [p for p in PropertyName if p not in PropertyName.ring_only()]
    for name, ring in catalog_rings.items():
        if ring.order > 27:
            continue
        for prop in element_level:
            for a in range(ring.order):
                cert = element_property(ring, a, prop)
                if cert is not None:
                    assert recheck_certificate(ring, cert), (name, prop, a)


# ------------------------------------------------------ companion search

def test_property_dispatch_partitions_property_names():
    groups = [set(_COMPANION_SPECS), set(_FINDERS), set(PropertyName.ring_only())]
    assert sum(map(len, groups)) == len(PropertyName)
    assert set().union(*groups) == set(PropertyName)
    assert set(_RING_ONLY) == PropertyName.ring_only()


def _assert_companions_match_reference(ring):
    for a in range(ring.order):
        for prop in _COMPANION_SPECS:
            witnesses, count = oracles.reference_companion(ring, a, prop.value)
            cert = element_property(ring, a, prop)
            if witnesses is None:
                assert cert is None, (ring.name, a, prop)
                continue
            assert dict(cert.witnesses) == witnesses, (ring.name, a, prop)
            assert cert.witness_count == count, (ring.name, a, prop)
            assert cert.checks == _certificate_checks(ring, prop, a, witnesses)
            assert all(ok for _, ok in cert.checks), (ring.name, a, prop)
            assert recheck_certificate(ring, cert), (ring.name, a, prop)
        for flavor in ("delta", "j", "nil", "quasipolar", "weakly-delta"):
            assert spectral_candidates(ring, a, flavor) == (
                oracles.reference_spectral_candidates(ring, a, flavor)
            ), (ring.name, a, flavor)


# rings beyond the catalog: non-commutative ones where comm(a) is not R,
# and commutative ones of several additive shapes
NON_CATALOG_PRESETS = [
    "mat:2:zmod:2",
    "tri:2:zmod:3",
    "cdtri:3:zmod:2",
    "product:tri:2:zmod:2,zmod:2",
    "product:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
    "zmod:9",
    "zmod:16",
    "product:zmod:3,zmod:4",
    "dorroh:zmod:4",
    "cdtri:2:zmod:4",
]


@pytest.mark.parametrize("preset", NON_CATALOG_PRESETS)
def test_companion_search_matches_reference(preset):
    _assert_companions_match_reference(build_preset(preset))


def test_companion_search_matches_reference_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_companions_match_reference(ring)


REFERENCE_FINDERS = {
    PropertyName.VON_NEUMANN_REGULAR: oracles.find_von_neumann_regular,
    PropertyName.EXCHANGE: oracles.find_exchange,
    PropertyName.STRONGLY_REGULAR: oracles.find_strongly_regular,
    PropertyName.STRONGLY_PI_REGULAR: oracles.find_strongly_pi_regular,
}


def _assert_centralisers_and_finders_match_reference(ring):
    assert set(center(ring).indices()) == oracles.brute_center(ring), ring.name
    outside = oracles.brute_idempotents(ring) - oracles.brute_center(ring)
    witness = min(outside, default=None)
    assert ring_property(ring, PropertyName.ABELIAN) == (witness is None, witness)
    for a in range(ring.order):
        assert set(double_commutant(ring, a).indices()) == (
            oracles.brute_double_commutant(ring, a)
        ), (ring.name, a)
        for prop, reference in REFERENCE_FINDERS.items():
            witnesses = reference(ring, a)
            cert = element_property(ring, a, prop)
            if witnesses is None:
                assert cert is None, (ring.name, a, prop)
                continue
            assert dict(cert.witnesses) == witnesses, (ring.name, a, prop)
            assert recheck_certificate(ring, cert), (ring.name, a, prop)


@pytest.mark.parametrize("preset", NON_CATALOG_PRESETS)
def test_centralisers_and_finders_match_reference(preset):
    _assert_centralisers_and_finders_match_reference(build_preset(preset))


def test_centralisers_and_finders_match_reference_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_centralisers_and_finders_match_reference(ring)


# ------------------------------------------------------- frozen ring flags

FROZEN_FLAGS = {
    "Z2": {
        PropertyName.BOOLEAN: True,
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.J_QUASIPOLAR: True,
        PropertyName.SEMISIMPLE: True,
        PropertyName.LOCAL: True,
    },
    "Z3": {
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.J_QUASIPOLAR: False,
        PropertyName.SEMISIMPLE: True,
        PropertyName.BOOLEAN: False,
        PropertyName.STRONGLY_REGULAR: True,
    },
    "Z4": {
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.J_QUASIPOLAR: True,
        PropertyName.UNIQUELY_CLEAN: True,
        PropertyName.LOCAL: True,
        PropertyName.RIGHT_PP: False,
        PropertyName.VON_NEUMANN_REGULAR: False,
        PropertyName.EXCHANGE: True,
        PropertyName.CLEAN: True,
        PropertyName.STRONGLY_PI_REGULAR: True,
        PropertyName.BOOLEAN: False,
    },
    "Z6": {
        PropertyName.SEMISIMPLE: True,
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.J_QUASIPOLAR: False,
        PropertyName.VON_NEUMANN_REGULAR: True,
        PropertyName.STRONGLY_REGULAR: True,
        PropertyName.LOCAL: False,
    },
    "Z8": {
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.UNIQUELY_CLEAN: True,
        PropertyName.LOCAL: True,
        PropertyName.RIGHT_PP: False,
    },
    "Z9": {
        PropertyName.DELTA_QUASIPOLAR: False,
        PropertyName.QUASIPOLAR: True,
        PropertyName.LOCAL: True,
        PropertyName.UNIQUELY_CLEAN: False,
        PropertyName.STRONGLY_CLEAN: True,
    },
    "T2(Z2)": {
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.J_QUASIPOLAR: True,
        PropertyName.ABELIAN: False,
        PropertyName.LOCAL: False,
        PropertyName.RIGHT_PP: False,
        PropertyName.SEMISIMPLE: False,
        PropertyName.CLEAN: True,
    },
    "T2(Z3)": {
        PropertyName.DELTA_QUASIPOLAR: False,
        PropertyName.WEAKLY_DELTA_QUASIPOLAR: False,
        PropertyName.ABELIAN: False,
    },
    "M2(Z2)": {
        PropertyName.SEMISIMPLE: True,
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.J_QUASIPOLAR: False,
        PropertyName.ABELIAN: False,
        PropertyName.RIGHT_PP: True,
        PropertyName.VON_NEUMANN_REGULAR: True,
        PropertyName.STRONGLY_REGULAR: False,
    },
    "CT2(Z2)": {
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.LOCAL: True,
        PropertyName.UNIQUELY_CLEAN: True,
        PropertyName.STRONGLY_J_CLEAN: True,
    },
    "CT2(Z3)": {
        PropertyName.DELTA_QUASIPOLAR: False,
        PropertyName.QUASIPOLAR: True,
        PropertyName.LOCAL: True,
    },
    "CT3(Z2)": {
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.ABELIAN: True,
        PropertyName.LOCAL: True,
        PropertyName.STRONGLY_REGULAR: False,
    },
    "D(Z2,Z2)": {
        PropertyName.BOOLEAN: True,
        PropertyName.DELTA_QUASIPOLAR: True,
    },
    "Z2xZ2": {
        PropertyName.BOOLEAN: True,
        PropertyName.DELTA_QUASIPOLAR: True,
        PropertyName.J_QUASIPOLAR: True,
    },
}


def test_frozen_ring_flags(catalog_rings):
    for ring_name, flags in FROZEN_FLAGS.items():
        ring = catalog_rings[ring_name]
        for prop, expected in flags.items():
            holds, witness = ring_property(ring, prop)
            assert holds == expected, (ring_name, prop.value, witness)


def test_ring_property_witnesses():
    z9 = build_zmod(9)
    holds, witness = ring_property(z9, PropertyName.DELTA_QUASIPOLAR)
    assert not holds and witness == 1
    holds, witness = ring_property(z9, PropertyName.UNIQUELY_CLEAN)
    assert not holds and witness == 2
    t2z3 = build_upper_triangular(build_zmod(3), 2)
    holds, witness = ring_property(t2z3, PropertyName.DELTA_QUASIPOLAR)
    assert not holds and witness == 9
    ct2z3 = build_constant_diagonal_triangular(build_zmod(3), 2)
    holds, witness = ring_property(ct2z3, PropertyName.DELTA_QUASIPOLAR)
    assert not holds and witness == 3
    t2z2 = build_upper_triangular(build_zmod(2), 2)
    holds, witness = ring_property(t2z2, PropertyName.RIGHT_PP)
    assert not holds and witness == 2
    holds, witness = ring_property(t2z2, PropertyName.ABELIAN)
    assert not holds and witness in (1, 3, 4, 6)


def test_recheck_refuses_ring_level_names_absent_elements_and_missing_keys(z4):
    import dataclasses

    cert = element_property(z4, 3, PropertyName.STRONGLY_J_CLEAN)
    assert recheck_certificate(z4, cert)
    for forged in (
        dataclasses.replace(cert, property=PropertyName.LOCAL),
        dataclasses.replace(cert, element=z4.order),
        dataclasses.replace(cert, element=-1),
        dataclasses.replace(cert, witnesses=(("e", 0),)),
    ):
        assert not recheck_certificate(z4, forged), forged


def test_ring_property_accepts_element_level_names(z4):
    holds, witness = ring_property(z4, "clean")
    assert holds and witness is None


def test_element_property_rejects_ring_level_names(z4):
    with pytest.raises(ValueError):
        element_property(z4, 0, PropertyName.BOOLEAN)
    with pytest.raises(ValueError):
        element_property(z4, 0, "local")


def test_property_mask_rejects_ring_level_names(z4):
    with pytest.raises(ValueError, match="has no element mask"):
        property_mask(z4, PropertyName.BOOLEAN)
    with pytest.raises(ValueError, match="has no element mask"):
        property_mask(z4, "right-pp")


def test_unknown_property_name(z4):
    with pytest.raises(ValueError):
        ring_property(z4, "sparkly")


def test_trivial_ring_properties():
    triv = build_zmod(1)
    for prop in PropertyName:
        holds, _ = ring_property(triv, prop)
        if prop is PropertyName.LOCAL:
            assert not holds  # no maximal right ideals at all
        else:
            assert holds, prop.value


# ------------------------------------------------------------- invariances

def test_conjugation_invariance(catalog_rings):
    from ringlab.core import units_map

    for name, ring in catalog_rings.items():
        if ring.order > 27:
            continue
        mask = property_mask(ring, PropertyName.DELTA_QUASIPOLAR)
        inv = units_map(ring)
        for u, ui in inv.items():
            for a in range(ring.order):
                conj = ring.mul[ring.mul[ui][a]][u]
                assert (a in mask) == (conj in mask), (name, u, a)


def test_shift_duality_certificate_transfer(catalog_rings):
    for name, ring in catalog_rings.items():
        if ring.order > 27:
            continue
        for a in range(ring.order):
            mirror = ring.neg(ring.add[ring.one][a])  # -1 - a
            cands = spectral_candidates(ring, a, "delta")
            mirror_cands = spectral_candidates(ring, mirror, "delta")
            assert bool(cands) == bool(mirror_cands), (name, a)
            for p in cands:
                assert ring.sub(ring.one, p) in mirror_cands, (name, a, p)


def test_weakly_strongly_bridge(catalog_rings):
    """a admits a commuting delta-idempotent iff -a splits as commuting e + w."""
    for name, ring in catalog_rings.items():
        if ring.order > 27:
            continue
        for a in range(ring.order):
            weak = element_property(ring, a, PropertyName.WEAKLY_DELTA_QUASIPOLAR)
            strong = element_property(
                ring, ring.neg(a), PropertyName.STRONGLY_DELTA_R_CLEAN
            )
            assert (weak is None) == (strong is None), (name, a)


def test_element_deciders_match_brute_force(catalog_rings):
    for name, ring in catalog_rings.items():
        if ring.order > 16:
            continue
        d = set(delta_mask(ring).indices())
        for a in range(ring.order):
            got = element_property(ring, a, PropertyName.DELTA_QUASIPOLAR) is not None
            assert got == oracles.brute_delta_quasipolar(ring, a, d), (name, a)
            got_w = (
                element_property(ring, a, PropertyName.WEAKLY_DELTA_QUASIPOLAR)
                is not None
            )
            assert got_w == oracles.brute_weakly_delta_quasipolar(ring, a, d), (name, a)
            got_q = element_property(ring, a, PropertyName.QUASIPOLAR) is not None
            assert got_q == oracles.brute_quasipolar(ring, a), (name, a)


def test_strongly_regular_implies_vnr(catalog_rings):
    for name, ring in catalog_rings.items():
        for a in range(ring.order):
            if element_property(ring, a, PropertyName.STRONGLY_REGULAR):
                assert element_property(ring, a, PropertyName.VON_NEUMANN_REGULAR), (
                    name,
                    a,
                )


# -------------------------------------------------------- idempotent lifts

def test_idempotents_lift(z4, t2z2):
    ok, witness = idempotents_lift(z4, ElementSet.from_indices(4, [0, 2]))
    assert ok and witness is None
    ok, witness = idempotents_lift(t2z2, ElementSet.from_indices(8, [0, 1, 2, 3]))
    assert ok and witness is None


def test_idempotents_lift_requires_two_sided(t2z2):
    with pytest.raises(IdealError):
        idempotents_lift(t2z2, ElementSet.from_indices(8, [0, 1]))


# ------------------------------------------------------------- consistency

def test_local_cross_check_runs_clean(catalog_rings):
    # the dual-route local test must never fault on valid rings
    for name, ring in catalog_rings.items():
        ring_property(ring, PropertyName.LOCAL)


def test_delta_spectral_idempotent_of_units_when_delta_is_radical(catalog_rings):
    from ringlab.core import units_map

    for name, ring in catalog_rings.items():
        if delta_mask(ring).bits != jacobson(ring).bits:
            continue
        if not ring_property(ring, PropertyName.DELTA_QUASIPOLAR)[0]:
            continue
        for u in units_map(ring):
            assert spectral_candidates(ring, u, "delta") == (ring.one,), (name, u)
