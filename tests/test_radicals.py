"""Radical computations against frozen masks and number-theoretic formulas.

For Z_n both radicals have closed forms that were derived independently:
J(Z_n) is generated by the radical of n, and delta(Z_n) by the product of
the primes whose square divides n (only those maximal ideals are
essential).  The matrix-ring masks were enumerated by hand.
"""
from __future__ import annotations

import math

import pytest

import oracles
from ringlab.core import (
    ComputationFault,
    ElementSet,
    build_constant_diagonal_triangular,
    build_matrix_ring,
    build_product,
    build_upper_triangular,
    build_zmod,
)
from ringlab import radicals
from ringlab.ideals import socle, two_sided_ideals
from ringlab.radicals import (
    DeltaDisagreement,
    delta,
    delta_mask,
    delta_r1,
    delta_r2,
    delta_r3,
    delta_r4,
    delta_r5,
    jacobson,
    qnil_set,
)
from ringlab.core import _subgroup_generators, build_quotient, element_sets
from ringlab.catalog import build_preset
from ringlab.report import build_report
from test_cross_checks import DIFFERENTIAL_PRESETS


def _primes(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------- Jacobson

@pytest.mark.parametrize("n", range(1, 25))
def test_jacobson_zn_formula(n):
    ring = build_zmod(n)
    rad = math.prod(_primes(n)) if n > 1 else 1
    expected = {i for i in range(n) if i % rad == 0} if rad <= n else {0}
    assert set(jacobson(ring).indices()) == expected


def test_jacobson_frozen_masks():
    assert jacobson(build_zmod(4)).indices() == (0, 2)
    assert jacobson(build_zmod(6)).indices() == (0,)
    assert jacobson(build_upper_triangular(build_zmod(2), 2)).indices() == (0, 2)
    assert jacobson(build_upper_triangular(build_zmod(3), 2)).indices() == (0, 3, 6)
    assert jacobson(build_matrix_ring(build_zmod(2), 2)).indices() == (0,)
    assert jacobson(
        build_constant_diagonal_triangular(build_zmod(2), 3)
    ).indices() == tuple(range(8))


# ------------------------------------------------------------------- delta

@pytest.mark.parametrize("n", range(1, 25))
def test_delta_zn_formula(n):
    ring = build_zmod(n)
    squared = [p for p in _primes(n) if n % (p * p) == 0]
    gen = math.prod(squared) if squared else None
    if gen is None:
        expected = set(range(n))  # no essential maximal ideals: delta is R
    else:
        expected = {i for i in range(n) if i % gen == 0}
    assert set(delta_mask(ring).indices()) == expected


def test_delta_frozen_masks():
    assert delta_mask(build_zmod(4)).indices() == (0, 2)
    assert delta_mask(build_zmod(8)).indices() == (0, 2, 4, 6)
    assert delta_mask(build_zmod(9)).indices() == (0, 3, 6)
    assert len(delta_mask(build_zmod(6))) == 6
    t2z2 = build_upper_triangular(build_zmod(2), 2)
    assert delta_mask(t2z2).indices() == (0, 1, 2, 3)
    t2z3 = build_upper_triangular(build_zmod(3), 2)
    assert delta_mask(t2z3).indices() == tuple(range(9))
    ct2z3 = build_constant_diagonal_triangular(build_zmod(3), 2)
    assert delta_mask(ct2z3).indices() == (0, 1, 2)
    ct3z2 = build_constant_diagonal_triangular(build_zmod(2), 3)
    assert delta_mask(ct3z2).indices() == tuple(range(8))
    assert len(delta_mask(build_matrix_ring(build_zmod(2), 2))) == 16
    assert len(delta_mask(build_matrix_ring(build_zmod(3), 2))) == 81


def test_delta_consensus_structure(catalog_rings):
    for name, ring in catalog_rings.items():
        comp = delta(ring)
        assert comp.agree, name
        masks = {comp.r1.bits, comp.r2.bits, comp.r3.bits, comp.r4.bits, comp.r5.bits}
        assert len(masks) == 1, name
        assert comp.consensus.bits == comp.r1.bits


def test_delta_individual_routes_t2z2():
    t2 = build_upper_triangular(build_zmod(2), 2)
    expected = (0, 1, 2, 3)
    assert delta_r1(t2).indices() == expected
    assert delta_r2(t2).indices() == expected
    assert delta_r3(t2).indices() == expected
    assert delta_r4(t2).indices() == expected
    assert delta_r5(t2).indices() == expected


def test_r5_complements_must_be_semisimple():
    """Restricting the complement search to the socle is load-bearing.

    In T2(Z2), z = 1 + E11*1 = [[0,0],[0,1]] has zR = {0, E22} and the
    top-row ideal is a complement of it, but that complement is not inside
    the socle.  An unrestricted search would therefore admit E11 into the
    fifth computation and break the consensus.
    """
    t2 = build_upper_triangular(build_zmod(2), 2)
    from ringlab.ideals import all_right_ideals, principal_right_ideal

    z = t2.add[t2.one][t2.mul[4][t2.one]]  # 1 + E11*1
    zr = principal_right_ideal(t2, z)
    zero_bit = 1 << t2.zero
    unrestricted = []
    for y in all_right_ideals(t2):
        if (zr.bits & y.bits) == zero_bit and any(
            t2.sub(t2.one, u) in y for u in zr.indices()
        ):
            unrestricted.append(y)
    assert unrestricted  # a complement exists among all right ideals...
    soc = socle(t2)
    assert not any(y.is_subset(soc) for y in unrestricted)  # ...but not in the socle
    assert 4 not in delta_r5(t2)


def test_delta_trivial_ring():
    comp = delta(build_zmod(1))
    assert comp.consensus.indices() == (0,)
    assert comp.agree


def test_delta_disagreement_is_reported(monkeypatch):
    ring = build_zmod(4)
    monkeypatch.setattr(
        radicals, "delta_r3", lambda r: ElementSet.full(r.order)
    )
    with pytest.raises(DeltaDisagreement) as err:
        delta(ring)
    comp = err.value.computation
    assert not comp.agree
    assert comp.consensus is None
    assert comp.r3.bits != comp.r1.bits
    assert "Z4" in str(err.value)
    # nothing was cached on disagreement: the real routes now agree
    monkeypatch.undo()
    comp = delta(ring)
    assert comp.agree
    assert comp.consensus.indices() == (0, 2)


# ---------------------------------------------------------- qnil and order

def test_qnil_frozen():
    assert qnil_set(build_zmod(4)).indices() == (0, 2)
    assert qnil_set(build_zmod(6)).indices() == (0,)
    assert qnil_set(build_zmod(9)).indices() == (0, 3, 6)
    t2 = build_upper_triangular(build_zmod(2), 2)
    assert qnil_set(t2).indices() == (0, 2)


def test_structural_containments(catalog_rings):
    for name, ring in catalog_rings.items():
        j = jacobson(ring)
        d = delta_mask(ring)
        q = qnil_set(ring)
        _, _, nil = element_sets(ring)
        assert j.is_subset(d), name
        assert j.is_subset(q), name
        assert nil.is_subset(q), name


def test_quasinilpotents_are_the_nilpotents(catalog_rings):
    """In a finite ring qnil = nil.  Fitting gives an idempotent e in
    comm^2(a) with ae a unit of eRe and a(1 - e) nilpotent.  The inverse of
    ae in eRe is a power of ae, so x = -(ae)^-1 commutes with a, and
    1 + ax = 1 - e is a unit only when e = 0.  So a quasinilpotent a is
    nilpotent."""
    rings = [*catalog_rings.values(), *map(build_preset, DIFFERENTIAL_PRESETS)]
    for ring in rings:
        assert qnil_set(ring) == element_sets(ring)[2], ring.name


def test_delta_is_two_sided(catalog_rings):
    from ringlab.ideals import is_two_sided_ideal

    for name, ring in catalog_rings.items():
        assert is_two_sided_ideal(ring, delta_mask(ring)), name


def test_socle_inside_radical_forces_equality(catalog_rings):
    for name, ring in catalog_rings.items():
        if socle(ring).is_subset(jacobson(ring)):
            assert delta_mask(ring).bits == jacobson(ring).bits, name


def test_delta_image_in_quotient_delta(catalog_rings):
    for name, ring in catalog_rings.items():
        d = delta_mask(ring)
        for ideal in two_sided_ideals(ring):
            quotient, proj = build_quotient(ring, ideal)
            image = {proj[a] for a in d.indices()}
            assert image <= set(delta_mask(quotient).indices()), (name, ideal.indices())


def test_delta_matches_brute_force_on_products():
    # independent spot check on a ring built two different ways
    a = build_product([build_zmod(2), build_zmod(4)])
    assert set(delta_mask(a).indices()) == {
        i for i in range(8) if i % 4 in (0, 2)
    }  # Z2 x {0,2}


def test_delta_matches_brute_delta(catalog_rings):
    for name, ring in catalog_rings.items():
        if ring.order > 12:
            continue
        assert set(delta_mask(ring).indices()) == oracles.brute_delta(ring), name


def test_delta_r3_matches_brute_delta_r3(catalog_rings):
    rings = [ring for ring in catalog_rings.values() if ring.order <= 16]
    rings += [
        build_product([catalog_rings[a], catalog_rings[b]])
        for a, b in [
            ("Z2", "Z4"), ("Z4", "Z4"), ("Z2", "T2(Z2)"), ("CT2(Z2)", "CT2(Z2)")
        ]
    ]
    for ring in rings:
        assert set(delta_r3(ring).indices()) == oracles.brute_delta_r3(ring), ring.name


@pytest.mark.parametrize("preset", ["zmod:64", "product:zmod:4,zmod:8"])
def test_report_on_commutative_ring_compares_one_row_per_generator(preset, monkeypatch):
    """Commutants of central elements are read off the centre, so a report on
    a commutative ring compares rows with columns only for the additive
    generators that build the centre."""
    calls = []
    row_commutant = radicals._row_commutant

    def counted(ring, a):
        calls.append(a)
        return row_commutant(ring, a)

    monkeypatch.setattr(radicals, "_row_commutant", counted)
    ring = build_preset(preset)
    build_report(ring)
    generators = _subgroup_generators(ring, (1 << ring.order) - 1)
    assert 0 < len(calls) <= len(generators)
