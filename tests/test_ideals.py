"""Right-ideal machinery against subset-scan oracles and frozen lattices.

Lattice contents for the small rings below were enumerated by hand first;
the subset-scan oracle re-derives them independently at test time.
"""
from __future__ import annotations

import random
import time

import pytest

import oracles
from ringlab import ideals
from ringlab.catalog import build_preset
from ringlab.core import (
    ElementSet,
    FiniteRing,
    IdealError,
    LatticeLimitError,
    bit_members,
    build_constant_diagonal_triangular,
    build_dorroh,
    build_matrix_ring,
    build_product,
    build_upper_triangular,
    build_zmod,
    verify_axioms,
)
from ringlab.ideals import (
    _join_irreducible_principals,
    _principal_bits,
    _span_bits,
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
from test_cross_checks import (
    DIFFERENTIAL_PRESETS,
    LATTICE_SURVEY_RINGS,
    RELABELLED_PRESETS,
    Z2_POWER_NINE,
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
    # in all of these but CT3(Z2) some principal right ideals are joins of
    # smaller ones, so the lattice is generated by fewer seeds
    ("Z2^3", lambda: build_product([build_zmod(2)] * 3)),
    ("Z2^4", lambda: build_product([build_zmod(2)] * 4)),
    ("Z2xZ4", lambda: build_product([build_zmod(2), build_zmod(4)])),
    ("Z4xZ4", lambda: build_product([build_zmod(4), build_zmod(4)])),
    ("T2(Z2)xZ2", lambda: build_product([build_upper_triangular(build_zmod(2), 2), build_zmod(2)])),
    ("M2(Z2)", lambda: build_matrix_ring(build_zmod(2), 2)),
    ("CT3(Z2)", lambda: build_constant_diagonal_triangular(build_zmod(2), 3)),
]

# Orders 17-128: too large for the subset scan, checked by the join closure.
LARGER_RINGS = [
    ("T3(Z2)", "tri:3:zmod:2"),
    ("T2(Z2)xZ2^3", "product:tri:2:zmod:2,zmod:2,zmod:2,zmod:2"),
    ("Z4xZ2^4", "product:zmod:4,zmod:2,zmod:2,zmod:2,zmod:2"),
    ("CT4(Z2)", "cdtri:4:zmod:2"),
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


CLOSURE_EXTRA = ("tri:3:zmod:2", "mat:2:zmod:4", "cdtri:4:zmod:2", "dorroh:tri:2:zmod:2")


def _closure_cases(ring, seed):
    """Every single generator (a seeded 16 above order 64) and 12 seeded
    lists of 0-3 generators."""
    rng = random.Random(f"closure:{seed}")
    n = ring.order
    singles = range(n) if n <= 64 else sorted(rng.sample(range(n), 16))
    lists = [rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(12)]
    return [[g] for g in singles] + lists


def _assert_closure_matches_oracle(ring, seed):
    for generators in _closure_cases(ring, seed):
        got = two_sided_closure(ring, generators)
        assert got == oracles.brute_two_sided_closure(ring, generators), generators
        assert is_two_sided_ideal(ring, got)


def test_two_sided_closure_matches_oracle_on_catalog(catalog_rings):
    for name, ring in catalog_rings.items():
        _assert_closure_matches_oracle(ring, name)


@pytest.mark.parametrize("preset", CLOSURE_EXTRA)
def test_two_sided_closure_matches_oracle(preset):
    _assert_closure_matches_oracle(build_preset(preset), preset)


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
def test_right_ideal_test_matches_subset_scan(name, make):
    """Random masks with zero and without it, and each right ideal with one
    element toggled, on the ring and relabelled so that zero and one move."""
    ring = make()
    perm = oracles.moving_permutation(ring, random.Random(f"relabel:{name}"))
    rng = random.Random(f"is-right-ideal:{name}")
    for each in (ring, oracles.permuted_ring(ring, perm)):
        n, zero_bit = each.order, 1 << each.zero
        ideals = {sum(1 << i for i in ideal) for ideal in oracles.brute_right_ideals(each)}
        masks = {rng.getrandbits(n) | zero_bit for _ in range(200)}
        masks |= {rng.getrandbits(n) & ~zero_bit for _ in range(200)}
        masks |= {bits ^ 1 << i for bits in ideals for i in range(n)} | ideals
        for bits in masks:
            assert is_right_ideal(each, ElementSet(bits, n)) == (bits in ideals), (
                each.zero,
                bits,
            )


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_two_sided_ideals_match_subset_scan(name, make):
    ring = make()
    expected = oracles.brute_two_sided_ideals(ring)
    got = [frozenset(i.indices()) for i in two_sided_ideals(ring)]
    assert got == expected


@pytest.mark.parametrize("name,make", SMALL_RINGS)
def test_seeds_are_the_join_irreducible_right_ideals(name, make):
    # a nonzero right ideal is join-irreducible iff it has one lower cover
    ring = make()
    brute = oracles.brute_right_ideals(ring)
    irreducible = []
    for ideal in brute[1:]:
        below = [k for k in brute if k < ideal]
        covers = [k for k in below if not any(k < j for j in below)]
        if len(covers) == 1:
            irreducible.append(sum(1 << i for i in ideal))
    seeds = _join_irreducible_principals(ring)
    assert sorted(seeds) == sorted(irreducible)
    assert set(seeds) <= set(_principal_bits(ring))


@pytest.mark.parametrize("name,preset", LARGER_RINGS)
def test_lattice_matches_join_closure_oracle(name, preset):
    ring = build_preset(preset)
    expected = oracles.brute_join_closure_right_ideals(ring)
    assert [frozenset(i.indices()) for i in all_right_ideals(ring)] == expected
    got = [frozenset(i.indices()) for i in two_sided_ideals(ring)]
    assert got == oracles.brute_two_sided_ideals(ring, expected)


@pytest.mark.parametrize("name,preset", LARGER_RINGS)
def test_span_matches_pairwise_sums(name, preset):
    ring = build_preset(preset)
    lattice = [i.bits for i in all_right_ideals(ring)]
    rng = random.Random(f"span:{preset}")
    for _ in range(100):
        left, right = rng.choice(lattice), rng.choice(lattice)
        assert _span_bits(ring, left, right) == oracles.brute_pairwise_span(ring, left, right)


def _assert_lattice_matches_seed_closure(ring):
    """Close-by-One against the search that joined every ideal found with
    every seed, on seeds found by joining principal ideals."""
    lattice = all_right_ideals(ring)
    assert lattice == oracles.bfs_seed_closure_right_ideals(ring), ring.name
    assert len({ideal.bits for ideal in lattice}) == len(lattice), ring.name
    assert _join_irreducible_principals(ring) == oracles.span_join_irreducible_principals(ring)


def test_lattice_matches_seed_closure_oracle_on_catalog(catalog_rings):
    for ring in catalog_rings.values():
        _assert_lattice_matches_seed_closure(ring)


@pytest.mark.parametrize(
    "preset",
    DIFFERENTIAL_PRESETS + [preset for _, preset in LARGER_RINGS] + LATTICE_SURVEY_RINGS,
)
def test_lattice_matches_seed_closure_oracle(preset):
    _assert_lattice_matches_seed_closure(build_preset(preset))


@pytest.mark.parametrize("preset", RELABELLED_PRESETS)
def test_lattice_matches_seed_closure_oracle_relabelled(preset):
    """Relabelled so that zero and one move, as the seed test sees them."""
    ring = build_preset(preset)
    perm = oracles.moving_permutation(ring, random.Random(f"seeds:{preset}"))
    _assert_lattice_matches_seed_closure(oracles.permuted_ring(ring, perm))


def test_lattice_order_is_sort_key_order(catalog_rings):
    """The lattice is sorted on masks in the order of ElementSet.sort_key."""
    rings = [*catalog_rings.values()]
    rings += [build_preset(p) for p in LATTICE_SURVEY_RINGS + [Z2_POWER_NINE]]
    for ring in rings:
        lattice = all_right_ideals(ring)
        assert list(lattice) == sorted(lattice, key=ElementSet.sort_key), ring.name


def _brute_is_two_sided(ring, bits):
    members = frozenset(bit_members(bits))
    return oracles.brute_two_sided_ideals(ring, [members]) == [members]


@pytest.mark.parametrize(
    "preset",
    LATTICE_SURVEY_RINGS
    + [Z2_POWER_NINE, "product:zmod:1,tri:2:zmod:2,zmod:2", "product:tri:2:zmod:2,zmod:1"]
    + ["quot:gen:2:tri:2:zmod:4", "tri:2:zmod:4", "cdtri:3:zmod:2", "mat:2:zmod:2"],
)
def test_two_sided_ideals_match_oracle_on_seeds(preset):
    ring = build_preset(preset)
    # first with no lattice built, as when build_quotient checks its ideal:
    # the right ideals generated by one or two elements
    rng = random.Random(f"two-sided:{preset}")
    for a in range(min(ring.order, 64)):
        gens = (a, rng.randrange(ring.order))
        bits = right_ideal_closure(ring, gens).bits
        assert is_two_sided_ideal(ring, ElementSet(bits, ring.order)) == _brute_is_two_sided(
            ring, bits
        ), gens
    assert all_right_ideals.__wrapped__ not in {key[0] for key in ring._cache}
    lattice = [frozenset(i.indices()) for i in all_right_ideals(ring)]
    want = oracles.brute_two_sided_ideals(ring, lattice)
    assert [frozenset(i.indices()) for i in two_sided_ideals(ring)] == want
    for ideal in all_right_ideals(ring):
        assert is_two_sided_ideal(ring, ideal) == (frozenset(ideal.indices()) in want)


def _lattice_joins(monkeypatch, ring) -> tuple[int, int]:
    """The size of the lattice and the joins taken to list it, not counting
    those made while finding the seeds."""
    seeds = _join_irreducible_principals(ring)
    joins = []
    coset_union = ideals._coset_union

    def counted(*args):
        joins.append(args)
        return coset_union(*args)

    monkeypatch.setattr(ideals, "_join_irreducible_principals", lambda _: seeds)
    monkeypatch.setattr(ideals, "_coset_union", counted)
    return len(all_right_ideals(ring)), len(joins)


def test_lattice_of_z2_power_nine_takes_one_join_per_ideal(monkeypatch):
    """Close-by-One joins 511 times for the 512 right ideals of Z2^9; joining
    every ideal found with every seed took 2,295 joins."""
    size, joins = _lattice_joins(monkeypatch, build_product([build_zmod(2)] * 9))
    assert size == 512
    assert joins < 2 * size


@pytest.mark.parametrize(
    "preset,size,joins",
    [("cdtri:4:zmod:2", 74, 228), ("cdtri:5:zmod:2", 1542, 9376)],
)
def test_fast_close_by_one_skips_joins_bound_to_fail(monkeypatch, preset, size, joins):
    """Handing failed joins down to the children leaves 228 joins for the 74
    right ideals of CT4(Z2) and 9,376 for the 1,542 of CT5(Z2), where
    Close-by-One took 858 and 115,154."""
    assert _lattice_joins(monkeypatch, build_preset(preset)) == (size, joins)


def _m3z2():
    """M3(Z2) with a matrix packed as 9 bits, row r in bits 3r..3r+2 (built
    directly: the general matrix builder takes seconds at order 512)."""
    rows = [(a >> 6, (a >> 3) & 7, a & 7) for a in range(512)]
    # times[b][v]: the row vector v times the matrix b
    times = [
        [(v >> 2 & 1) * b0 ^ (v >> 1 & 1) * b1 ^ (v & 1) * b2 for v in range(8)]
        for b0, b1, b2 in rows
    ]
    mul = tuple(
        tuple(t[r0] << 6 | t[r1] << 3 | t[r2] for t in times) for r0, r1, r2 in rows
    )
    add = tuple(tuple(a ^ b for b in range(512)) for a in range(512))
    return FiniteRing(order=512, add=add, mul=mul, zero=0, one=0b100010001, name="M3(Z2)")


def test_lattice_of_z2_power_nine():
    # a span-by-span pairwise enumerator takes about 40 s here
    ring = build_product([build_zmod(2)] * 9)
    start = time.perf_counter()
    assert len(all_right_ideals(ring)) == 512
    assert len(two_sided_ideals(ring)) == 512
    assert time.perf_counter() - start < 5.0


def test_lattice_of_m3z2():
    # right ideals of M3(Z2) are the matrices with columns in a fixed
    # subspace of Z2^3: 1 + 7 + 7 + 1 of them; only 0 and R are two-sided
    ring = _m3z2()
    assert verify_axioms(ring) == []
    start = time.perf_counter()
    assert [len(i) for i in all_right_ideals(ring)] == [1] + [8] * 7 + [64] * 7 + [512]
    assert [len(i) for i in two_sided_ideals(ring)] == [1, 512]
    assert time.perf_counter() - start < 5.0


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


def test_lattice_limit(monkeypatch):
    # a fresh Z6: the lattice of a shared ring may be cached already
    monkeypatch.setattr(ideals, "DEFAULT_LATTICE_LIMIT", 3)
    with pytest.raises(LatticeLimitError):
        all_right_ideals(build_zmod(6))


def test_lattice_limit_boundary(monkeypatch):
    # 16 right ideals, generated by the 4 join-irreducible ones; a failed
    # enumeration caches nothing, so the same ring is enumerated again
    ring = build_product([build_zmod(2)] * 4)
    assert len(_join_irreducible_principals(ring)) == 4
    monkeypatch.setattr(ideals, "DEFAULT_LATTICE_LIMIT", 15)
    with pytest.raises(LatticeLimitError):
        all_right_ideals(ring)
    monkeypatch.setattr(ideals, "DEFAULT_LATTICE_LIMIT", 16)
    assert len(all_right_ideals(ring)) == 16


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


def test_ideal_sum_requires_a_subset_of_the_ring(z4):
    whole = ElementSet.full(4)
    with pytest.raises(IdealError, match="does not match ring order 4"):
        ideal_sum(z4, whole, ElementSet.full(8))
    with pytest.raises(IdealError, match="does not match ring order 4"):
        ideal_sum(z4, ElementSet.from_indices(2, [0]), whole)


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
