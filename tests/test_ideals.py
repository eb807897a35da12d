"""Right-ideal machinery against subset-scan oracles and frozen lattices.

Lattice contents for the small rings below were enumerated by hand first;
the subset-scan oracle re-derives them independently at test time.
"""
from __future__ import annotations

import pytest

import oracles
from ringlab.core import (
    ElementSet,
    IdealError,
    LatticeLimitError,
    build_constant_diagonal_triangular,
    build_dorroh,
    build_matrix_ring,
    build_product,
    build_upper_triangular,
    build_zmod,
)
from ringlab.ideals import (
    all_right_ideals,
    ideal_core,
    ideal_sum,
    is_delta_small,
    is_direct_summand,
    is_essential,
    is_right_ideal,
    is_two_sided_ideal,
    maximal_right_ideals,
    minimal_right_ideals,
    principal_right_ideal,
    right_ideal_closure,
    socle,
    two_sided_closure,
    two_sided_ideals,
)


def _sets(ideals):
    return [set(i.indices()) for i in ideals]


@pytest.fixture(scope="module")
def z4():
    return build_zmod(4)


@pytest.fixture(scope="module")
def z6():
    return build_zmod(6)


@pytest.fixture(scope="module")
def t2z2():
    return build_upper_triangular(build_zmod(2), 2)


@pytest.fixture(scope="module")
def m2z2():
    return build_matrix_ring(build_zmod(2), 2)


SMALL_RINGS = [
    ("Z2", lambda: build_zmod(2)),
    ("Z4", lambda: build_zmod(4)),
    ("Z6", lambda: build_zmod(6)),
    ("Z8", lambda: build_zmod(8)),
    ("Z9", lambda: build_zmod(9)),
    ("Z2xZ2", lambda: build_product([build_zmod(2), build_zmod(2)])),
    ("T2(Z2)", lambda: build_upper_triangular(build_zmod(2), 2)),
    ("CT2(Z3)", lambda: build_constant_diagonal_triangular(build_zmod(3), 2)),
]


# -------------------------------------------------------------- principals

def test_principal_right_ideals_z4(z4):
    assert principal_right_ideal(z4, 0).indices() == (0,)
    assert principal_right_ideal(z4, 2).indices() == (0, 2)
    assert principal_right_ideal(z4, 3).indices() == (0, 1, 2, 3)


def test_principal_right_ideal_t2z2(t2z2):
    # E12 generates {0, E12}
    assert principal_right_ideal(t2z2, 2).indices() == (0, 2)
    # E11 generates the full top row
    assert principal_right_ideal(t2z2, 4).indices() == (0, 2, 4, 6)


def test_principal_ideals_are_right_ideals(t2z2, m2z2):
    for r in (t2z2, m2z2):
        for a in range(r.order):
            assert is_right_ideal(r, principal_right_ideal(r, a))


# ----------------------------------------------------------------- closure

def test_right_ideal_closure_z6(z6):
    assert right_ideal_closure(z6, []).indices() == (0,)
    assert right_ideal_closure(z6, [2]).indices() == (0, 2, 4)
    # 2 + 3 = 5 is a unit, so together they generate everything
    assert len(right_ideal_closure(z6, [2, 3])) == 6


def test_two_sided_closure_t2z2(t2z2):
    # E22 generates {0, E22} on the right but the whole lower column two-sidedly
    assert right_ideal_closure(t2z2, [1]).indices() == (0, 1)
    assert two_sided_closure(t2z2, [1]).indices() == (0, 1, 2, 3)


# ----------------------------------------------------------------- lattice

def test_all_right_ideals_z4(z4):
    assert _sets(all_right_ideals(z4)) == [{0}, {0, 2}, {0, 1, 2, 3}]


def test_all_right_ideals_t2z2(t2z2):
    assert _sets(all_right_ideals(t2z2)) == [
        {0},
        {0, 1},
        {0, 2},
        {0, 3},
        {0, 1, 2, 3},
        {0, 2, 4, 6},
        {0, 1, 2, 3, 4, 5, 6, 7},
    ]


def test_all_right_ideals_m2z2(m2z2):
    ideals = all_right_ideals(m2z2)
    assert [len(i) for i in ideals] == [1, 4, 4, 4, 16]


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_right_ideal_lattice_matches_subset_scan(name, make):
    ring = make()
    expected = oracles.brute_right_ideals(ring)
    got = [frozenset(i.indices()) for i in all_right_ideals(ring)]
    assert got == expected


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_two_sided_ideals_match_subset_scan(name, make):
    ring = make()
    expected = oracles.brute_two_sided_ideals(ring)
    got = [frozenset(i.indices()) for i in two_sided_ideals(ring)]
    assert got == expected


def test_two_sided_ideals_t2z2(t2z2):
    assert _sets(two_sided_ideals(t2z2)) == [
        {0},
        {0, 2},
        {0, 1, 2, 3},
        {0, 2, 4, 6},
        {0, 1, 2, 3, 4, 5, 6, 7},
    ]


def test_two_sided_ideals_m2z2(m2z2):
    assert [len(i) for i in two_sided_ideals(m2z2)] == [1, 16]


def test_lattice_limit(z6):
    with pytest.raises(LatticeLimitError):
        all_right_ideals(z6, limit=3)


# --------------------------------------------------------------- essential

def test_essential_z4(z4):
    assert is_essential(z4, ElementSet.from_indices(4, [0, 2]))
    assert is_essential(z4, ElementSet.full(4))
    assert not is_essential(z4, ElementSet.from_indices(4, [0]))


def test_essential_z6(z6):
    assert not is_essential(z6, ElementSet.from_indices(6, [0, 3]))
    assert not is_essential(z6, ElementSet.from_indices(6, [0, 2, 4]))
    assert is_essential(z6, ElementSet.full(6))


def test_essential_t2z2(t2z2):
    assert is_essential(t2z2, ElementSet.from_indices(8, [0, 1, 2, 3]))
    assert not is_essential(t2z2, ElementSet.from_indices(8, [0, 2, 4, 6]))


def test_essential_requires_right_ideal(z4):
    with pytest.raises(IdealError):
        is_essential(z4, ElementSet.from_indices(4, [0, 1]))


@pytest.mark.parametrize("predicate", [is_direct_summand, is_delta_small, ideal_core])
def test_ideal_predicates_require_right_ideal(z4, predicate):
    with pytest.raises(IdealError):
        predicate(z4, ElementSet.from_indices(4, [0, 1]))


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_essential_matches_brute_force(name, make):
    ring = make()
    brute = oracles.brute_right_ideals(ring)
    for ideal in all_right_ideals(ring):
        expected = oracles.brute_is_essential(ring, set(ideal.indices()), brute)
        assert is_essential(ring, ideal) == expected


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_intersection_of_essentials_is_essential(name, make):
    ring = make()
    ess = [i for i in all_right_ideals(ring) if is_essential(ring, i)]
    for a in ess:
        for b in ess:
            assert is_essential(ring, a & b)


# ------------------------------------------------------- maximal / minimal

def test_maximal_right_ideals(z4, z6, t2z2):
    assert _sets(maximal_right_ideals(z4)) == [{0, 2}]
    assert _sets(maximal_right_ideals(z6)) == [{0, 3}, {0, 2, 4}]
    assert _sets(maximal_right_ideals(t2z2)) == [{0, 1, 2, 3}, {0, 2, 4, 6}]


def test_maximal_right_ideals_trivial_ring():
    assert maximal_right_ideals(build_zmod(1)) == ()


def test_socle_values(z4, z6, t2z2):
    assert socle(z4).indices() == (0, 2)
    assert socle(z6).indices() == (0, 1, 2, 3, 4, 5)
    assert socle(build_zmod(8)).indices() == (0, 4)
    assert socle(build_zmod(9)).indices() == (0, 3, 6)
    assert socle(t2z2).indices() == (0, 1, 2, 3)
    assert socle(build_zmod(1)).indices() == (0,)


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_socle_matches_brute_force(name, make):
    ring = make()
    brute = oracles.brute_right_ideals(ring)
    assert set(socle(ring).indices()) == oracles.brute_socle(ring, brute)


def test_socle_is_sum_of_minimal_ideals(t2z2):
    parts = minimal_right_ideals(t2z2)
    total = ElementSet.from_indices(t2z2.order, [t2z2.zero])
    for part in parts:
        total = ideal_sum(t2z2, total, part)
    assert total.bits == socle(t2z2).bits


# ---------------------------------------------------------------- summands

def test_direct_summand_witnesses(z4, t2z2):
    full = ElementSet.full(4)
    assert is_direct_summand(z4, full) == 1
    assert is_direct_summand(z4, ElementSet.from_indices(4, [0])) == 0
    assert is_direct_summand(z4, ElementSet.from_indices(4, [0, 2])) is None
    assert is_direct_summand(t2z2, ElementSet.from_indices(8, [0, 1])) == 1
    assert is_direct_summand(t2z2, ElementSet.from_indices(8, [0, 2])) is None
    # both 4 and 6 generate the top row; the least one wins
    assert is_direct_summand(t2z2, ElementSet.from_indices(8, [0, 2, 4, 6])) == 4


def test_summand_witness_is_idempotent_generator(m2z2):
    for ideal in all_right_ideals(m2z2):
        e = is_direct_summand(m2z2, ideal)
        assert e is not None  # semisimple: everything is a summand
        assert m2z2.mul[e][e] == e
        assert principal_right_ideal(m2z2, e).bits == ideal.bits


# --------------------------------------------------------------- delta-small

def test_delta_small_z6(z6):
    # no proper essential right ideals, so every right ideal is delta-small,
    # including the whole ring
    assert is_delta_small(z6, ElementSet.from_indices(6, [0, 3]))
    assert is_delta_small(z6, ElementSet.from_indices(6, [0, 2, 4]))
    assert is_delta_small(z6, ElementSet.full(6))


def test_delta_small_z4(z4):
    assert is_delta_small(z4, ElementSet.from_indices(4, [0, 2]))
    assert not is_delta_small(z4, ElementSet.full(4))


def test_delta_small_t2z2(t2z2):
    assert is_delta_small(t2z2, ElementSet.from_indices(8, [0, 1]))
    assert is_delta_small(t2z2, ElementSet.from_indices(8, [0, 1, 2, 3]))
    assert not is_delta_small(t2z2, ElementSet.from_indices(8, [0, 2, 4, 6]))


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_sum_of_delta_small_ideals_is_delta_small(name, make):
    ring = make()
    total = ElementSet.from_indices(ring.order, [ring.zero])
    for ideal in all_right_ideals(ring):
        if is_delta_small(ring, ideal):
            total = ideal_sum(ring, total, ideal)
    assert is_delta_small(ring, total)


# -------------------------------------------------------------------- core

def test_ideal_core_commutative(z6):
    m = ElementSet.from_indices(6, [0, 3])
    assert ideal_core(z6, m).bits == m.bits


def test_ideal_core_t2z2(t2z2):
    # both maximal right ideals of T2(Z2) happen to be two-sided already
    for m in maximal_right_ideals(t2z2):
        assert ideal_core(t2z2, m).bits == m.bits


def test_ideal_core_m2z2_is_strictly_smaller(m2z2):
    # in Mat2(Z2) the maximal right ideals are not two-sided; their core is 0
    for m in maximal_right_ideals(m2z2):
        assert not is_two_sided_ideal(m2z2, m)
        assert ideal_core(m2z2, m).indices() == (0,)


def test_ideal_core_output_is_two_sided_and_contained(t2z2, m2z2):
    for ring in (t2z2, m2z2):
        for m in all_right_ideals(ring):
            c = ideal_core(ring, m)
            assert is_two_sided_ideal(ring, c)
            assert c.is_subset(m)


# ------------------------------------------------------------------ dorroh

def test_dorroh_lattice_is_sane():
    z2 = build_zmod(2)
    la = tuple(tuple(z2.mul[a][v] for v in range(2)) for a in range(2))
    ra = la
    from ringlab.core import DorrohData

    d = build_dorroh(DorrohData(base=z2, bimodule=z2, left_action=la, right_action=ra))
    got = [frozenset(i.indices()) for i in all_right_ideals(d)]
    assert got == oracles.brute_right_ideals(d)
