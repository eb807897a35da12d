"""Construction and validation checks against hand-computed tables.

The frozen constants in this file were worked out by direct enumeration of
the rings involved before the library existed, so they act as an
independent reference for the constructors.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import mixed_radix_decode, mixed_radix_encode
from ringlab.catalog import build_preset
from ringlab.claims import PRODUCT_PAIR_CAP
from ringlab.ideals import all_right_ideals
from ringlab.radicals import _row_commutant
from ringlab.core import (
    AxiomError,
    BimoduleError,
    DorrohData,
    ElementSet,
    FiniteRing,
    IdealError,
    SizeCapError,
    _is_subgroup,
    _normal_form,
    _subgroup_generators,
    bit_members,
    build_constant_diagonal_triangular,
    build_corner,
    build_dorroh,
    build_matrix_ring,
    build_product,
    build_quotient,
    build_upper_triangular,
    build_zmod,
    element_sets,
    is_zmod2,
    load_ring,
    ring_from_json,
    ring_to_json,
    save_ring,
    verify_axioms,
)
from test_cross_checks import DIFFERENTIAL_PRESETS


# ---------------------------------------------------------------- ElementSet

def test_element_set_basics():
    s = ElementSet.from_indices(6, [4, 0, 2])
    assert s.indices() == (0, 2, 4)
    assert len(s) == 3
    assert 2 in s and 3 not in s
    assert s.to_json() == [0, 2, 4]


def test_element_set_algebra():
    a = ElementSet.from_indices(5, [0, 1])
    b = ElementSet.from_indices(5, [1, 3])
    assert (a | b).indices() == (0, 1, 3)
    assert (a & b).indices() == (1,)
    assert a.is_subset(a | b)
    assert not a.is_subset(b)
    assert a.complement().indices() == (2, 3, 4)


def test_element_set_sort_key_orders_by_size_then_members():
    small = ElementSet.from_indices(6, [0, 3])
    big = ElementSet.from_indices(6, [0, 2, 4])
    assert sorted([big, small], key=lambda s: s.sort_key()) == [small, big]


def test_element_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        ElementSet.from_indices(3, [3])


@given(st.sets(st.integers(min_value=0, max_value=15)),
       st.sets(st.integers(min_value=0, max_value=15)))
def test_element_set_ops_match_python_sets(xs, ys):
    a = ElementSet.from_indices(16, xs)
    b = ElementSet.from_indices(16, ys)
    assert set((a | b).indices()) == xs | ys
    assert set((a & b).indices()) == xs & ys
    assert a.is_subset(b) == (xs <= ys)


def _members_by_scan(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


@given(st.integers(min_value=1, max_value=4096), st.booleans(),
       st.randoms(use_true_random=False))
def test_bit_members_matches_scan(length, dense, rng):
    # a few set bits take the bit-by-bit loop; about half of at least 64
    # bits take the flags read in C
    if dense:
        length = max(length, 64)
        count = length // 2
    else:
        count = rng.randint(1, 1 + length // 64)
    bits = 1 << (length - 1)
    for i in rng.sample(range(length), count):
        bits |= 1 << i
    assert bit_members(bits) == _members_by_scan(bits)


@pytest.mark.parametrize("bits", [0, *(1 << i for i in (0, 1, 5, 63, 64, 4095))])
def test_bit_members_of_empty_and_single_bit_masks(bits):
    assert bit_members(bits) == _members_by_scan(bits)


# ------------------------------------------------------------- mixed radix

@given(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=5),
       st.data())
def test_mixed_radix_roundtrip(radices, data):
    digits = tuple(
        data.draw(st.integers(min_value=0, max_value=r - 1)) for r in radices
    )
    index = mixed_radix_encode(digits, radices)
    assert mixed_radix_decode(index, radices) == digits
    # the last digit is the fastest-moving one
    if digits[-1] + 1 < radices[-1]:
        bumped = digits[:-1] + (digits[-1] + 1,)
        assert mixed_radix_encode(bumped, radices) == index + 1


# ------------------------------------------------------------------- zmod

def test_zmod_tables():
    r = build_zmod(4)
    assert r.order == 4 and r.zero == 0 and r.one == 1
    assert r.add[1][3] == 0
    assert r.mul[2][2] == 0
    assert r.mul[3][3] == 1
    assert r.labels == ("0", "1", "2", "3")
    assert verify_axioms(r) == []


@pytest.mark.parametrize("n", [*range(1, 65), 961, 1021, 1024])
def test_zmod_matches_oracle(n):
    ring = build_zmod(n)
    assert ring == oracles.brute_zmod(n)
    # all 2n^2 cells point at the same n int objects
    assert len({id(x) for row in ring.add + ring.mul for x in row}) == n


def test_zmod_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_zmod(0)


def test_trivial_ring():
    r = build_zmod(1)
    assert r.order == 1 and r.zero == r.one == 0
    assert verify_axioms(r) == []
    assert r.is_trivial
    units, idem, nil = element_sets(r)
    assert units.indices() == (0,)
    assert idem.indices() == (0,)
    assert nil.indices() == (0,)


def test_element_sets_z4():
    units, idem, nil = element_sets(build_zmod(4))
    assert units.indices() == (1, 3)
    assert idem.indices() == (0, 1)
    assert nil.indices() == (0, 2)


def test_element_sets_z6():
    units, idem, nil = element_sets(build_zmod(6))
    assert units.indices() == (1, 5)
    assert idem.indices() == (0, 1, 3, 4)
    assert nil.indices() == (0,)


# ---------------------------------------------------------------- products

def test_product_z2_z3():
    r = build_product([build_zmod(2), build_zmod(3)])
    assert r.order == 6
    # index = 3*first + second; identity is (1,1)
    assert r.one == 4
    units, idem, _ = element_sets(r)
    assert units.indices() == (4, 5)
    assert idem.indices() == (0, 1, 3, 4)
    assert r.labels[5] == "(1,2)"
    assert verify_axioms(r) == []


def test_product_single_factor_is_identity():
    z5 = build_zmod(5)
    p = build_product([z5])
    assert p.add == z5.add and p.mul == z5.mul


def test_product_needs_a_factor():
    with pytest.raises(ValueError):
        build_product([])


def test_build_product_matches_brute_force(catalog_rings):
    rings = list(catalog_rings.values())
    cases = [
        [a, b]
        for i, a in enumerate(rings)
        for b in rings[i:]
        if a.order * b.order <= PRODUCT_PAIR_CAP
    ]
    cases.append([catalog_rings["Z3"], catalog_rings["T2(Z2)"], catalog_rings["Z2xZ2"]])
    for factors in cases:
        got, want = build_product(factors), oracles.brute_build_product(factors)
        for field in ("add", "mul", "zero", "one", "labels", "name"):
            assert getattr(got, field) == getattr(want, field), (want.name, field)


def _assert_cells_shared(ring):
    """Each value in a table is one int object, wherever it stands."""
    for table in (ring.add, ring.mul):
        cells = [x for row in table for x in row]
        assert len({id(x) for x in cells}) == len(set(cells))


@pytest.mark.parametrize(
    "preset",
    [
        # the order-256 products of the lattice benchmark, and Z2^9
        "product:zmod:4,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
        "product:tri:2:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
        "product:tri:2:zmod:2,tri:2:zmod:2,zmod:2,zmod:2",
        "product:cdtri:2:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2",
        "product:" + ",".join(["zmod:2"] * 9),
        # a trivial factor first, in the middle and last
        "product:zmod:1,zmod:4,zmod:3",
        "product:zmod:4,zmod:1,zmod:3",
        "product:zmod:4,zmod:3,zmod:1",
        "product:zmod:1,zmod:1",
        # splits where the left order, squared, is nearest the whole order:
        # Z2 | Z64xZ2 and then Z64 | Z2, a wide left operand on a narrow one
        "product:zmod:2,zmod:64,zmod:2",
        "product:zmod:3,zmod:2,zmod:2,zmod:2,zmod:5",  # Z3xZ2xZ2 | Z2xZ5
        "product:zmod:1,zmod:2,zmod:1,zmod:3",  # Z1xZ2 | Z1xZ3
        "product:zmod:5,zmod:7",
    ],
)
def test_right_folded_product_matches_brute_force(preset):
    """The tables of any split of the factor list are the oracle's, since
    mixed-radix packing is associative."""
    factors = [build_preset(token) for token in preset.partition(":")[2].split(",")]
    got, want = build_product(factors), oracles.brute_build_product(factors)
    for field in ("add", "mul", "zero", "one", "labels", "name"):
        assert getattr(got, field) == getattr(want, field), field
    _assert_cells_shared(got)


@pytest.mark.parametrize(
    "preset", ["mat:2:zmod:4", "tri:2:zmod:8", "cdtri:3:zmod:4", "mat:1:zmod:300"]
)
def test_pattern_addition_is_base_power_addition(preset):
    ring = build_preset(preset)
    base = build_preset(preset.split(":", 2)[2])
    radices = [base.order] * round(math.log(ring.order, base.order))
    digits = [mixed_radix_decode(x, radices) for x in range(ring.order)]
    for x, row in zip(digits, ring.add):
        want = [
            mixed_radix_encode([base.add[a][b] for a, b in zip(x, y)], radices)
            for y in digits
        ]
        assert list(row) == want
    _assert_cells_shared(ring)


# ------------------------------------------------------------------ matrix

def test_matrix_ring_m2_z2():
    r = build_matrix_ring(build_zmod(2), 2)
    assert r.order == 16
    # row-major digits (a00,a01,a10,a11); identity = 1001 base 2 = 9
    assert r.one == 9
    units, idem, nil = element_sets(r)
    assert units.indices() == (6, 7, 9, 11, 13, 14)
    assert idem.indices() == (0, 1, 3, 5, 8, 9, 10, 12)
    assert nil.indices() == (0, 2, 4, 15)
    assert r.labels[9] == "[[1,0],[0,1]]"
    assert verify_axioms(r) == []


def test_matrix_ring_k1_is_base():
    z3 = build_zmod(3)
    m = build_matrix_ring(z3, 1)
    assert m.add == z3.add and m.mul == z3.mul


def _z3_with_zero_at_2():
    """Z3 with index i standing for i + 1 mod 3, so zero is 2 and one is 0."""
    value, index = (lambda i: (i + 1) % 3), (lambda x: (x - 1) % 3)
    return FiniteRing(
        order=3,
        add=tuple(tuple(index(value(i) + value(j)) for j in range(3)) for i in range(3)),
        mul=tuple(tuple(index(value(i) * value(j)) for j in range(3)) for i in range(3)),
        zero=2,
        one=0,
        name="Z3'",
        labels=("1", "2", "0"),
    )


PATTERN_BUILDERS = {
    # name: (library builder, oracle builder, stored digits for k)
    "M": (build_matrix_ring, oracles.brute_matrix_ring, lambda k: k * k),
    "T": (build_upper_triangular, oracles.brute_upper_triangular, lambda k: k * (k + 1) // 2),
    "CT": (
        build_constant_diagonal_triangular,
        oracles.brute_constant_diagonal_triangular,
        lambda k: 1 + k * (k - 1) // 2,
    ),
}
PATTERN_BASES = {
    base.name: base
    for base in [build_zmod(n) for n in (1, 2, 3, 4, 6)]
    + [build_upper_triangular(build_zmod(2), 2), _z3_with_zero_at_2()]
}


@pytest.mark.parametrize(
    "kind,base_name,k",
    [
        (kind, base_name, k)
        for kind, (_, _, digits) in PATTERN_BUILDERS.items()
        for base_name, base in PATTERN_BASES.items()
        for k in (1, 2, 3)
        # the per-cell oracles take seconds above order 256
        if base.order ** digits(k) <= 256
    ],
)
def test_pattern_builders_match_brute_force(kind, base_name, k):
    build, brute, _ = PATTERN_BUILDERS[kind]
    base = PATTERN_BASES[base_name]
    got, want = build(base, k), brute(base, k)
    for field in ("order", "add", "mul", "zero", "one", "labels", "name"):
        assert getattr(got, field) == getattr(want, field), field
    with pytest.raises(ValueError, match="matrix size must be positive"):
        build(base, 0)


# sha256 of _table_sha256 on rings above the pattern oracles' reach (order
# 256); frozen, so any change to these tables, indices or labels fails here
PINNED_TABLE_SHA256 = {
    "tri:2:zmod:8": "47eb1d090794e0b7f032484783a620fc1a1e791e0d2436245c603ec09852a4ac",
    "mat:2:zmod:5": "694da0a747134ae06dcab1e1975fa7f754db58e686deaec094162809b8fe0cff",
    "cdtri:5:zmod:2": "cb1a889fa0608a5440e68ea0c678fa037f7c19eaf62e1aeecd06e8fffdee42fa",
    "dorroh:zmod:32": "b49f068f6013872662d71ded54ec7695ed08a5d759e69fb3222c88a6badcb7c2",
}


def _table_sha256(ring):
    """sha256 of ``add`` then ``mul`` as little-endian 16-bit cells, then
    ``zero``, ``one`` and the labels."""
    digest = hashlib.sha256()
    for table in (ring.add, ring.mul):
        for row in table:  # a row at a time, half the time of one array
            cells = array("H", row)
            if sys.byteorder == "big":
                cells.byteswap()
            digest.update(cells)
    digest.update(f"{ring.zero},{ring.one}\0".encode())
    digest.update("\0".join(ring.labels).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("preset", sorted(PINNED_TABLE_SHA256))
def test_pattern_and_dorroh_tables_above_the_oracles_are_pinned(preset):
    assert _table_sha256(build_preset(preset)) == PINNED_TABLE_SHA256[preset]


# _table_sha256 at the cap and just below it, recorded before products were
# split at the middle order and zmod rows built by doubling
PINNED_CAP_TABLE_SHA256 = {
    "product:" + ",".join(["zmod:2"] * 12):
        "0e1b85e3f49b00fbc79a359287475fe88e1f097cabb44049b4f8a1026e7f530a",
    "product:zmod:2,zmod:2048": "1ae219f60a45e070c07ece93be3126039956a9b723e03b225c20a555bc030519",
    "zmod:1024": "50c18a6dc1da3c420f7929f25ed412bc0f2c2a24273fbbf56761611979355db2",
}


@pytest.mark.parametrize("preset", sorted(PINNED_CAP_TABLE_SHA256))
def test_product_and_zmod_tables_at_the_cap_are_pinned(preset):
    assert _table_sha256(build_preset(preset)) == PINNED_CAP_TABLE_SHA256[preset]


# -------------------------------------------------------------- triangular

def test_upper_triangular_t2_z2():
    r = build_upper_triangular(build_zmod(2), 2)
    assert r.order == 8
    # digits (a00, a01, a11); identity = 101 base 2 = 5
    assert r.one == 5
    units, idem, nil = element_sets(r)
    assert units.indices() == (5, 7)
    assert idem.indices() == (0, 1, 3, 4, 5, 6)
    assert nil.indices() == (0, 2)
    assert verify_axioms(r) == []


def test_upper_triangular_t2_z3_identity_index():
    r = build_upper_triangular(build_zmod(3), 2)
    assert r.order == 27
    # digits (a00, a01, a11) base 3; identity (1,0,1) -> 10
    assert r.one == 10
    # 1 + 1 = the scalar matrix with 2s on the diagonal -> (2,0,2) -> 20
    assert r.add[r.one][r.one] == 20


def test_constant_diagonal_ct2_z3():
    r = build_constant_diagonal_triangular(build_zmod(3), 2)
    assert r.order == 9
    # digits (d, u01); identity = (1,0) -> 3
    assert r.one == 3
    units, idem, _ = element_sets(r)
    assert idem.indices() == (0, 3)
    assert units.indices() == (3, 4, 5, 6, 7, 8)
    assert verify_axioms(r) == []


def test_constant_diagonal_ct3_z2():
    r = build_constant_diagonal_triangular(build_zmod(2), 3)
    assert r.order == 16
    # digits (d, u01, u02, u12); identity = (1,0,0,0) -> 8
    assert r.one == 8
    units, idem, nil = element_sets(r)
    assert idem.indices() == (0, 8)
    assert units.indices() == tuple(range(8, 16))
    assert nil.indices() == tuple(range(8))
    # multiplication spot check: N01 * N12 = N02, i.e. 4 * 1 = 2
    assert r.mul[4][1] == 2
    assert r.mul[1][4] == 0


# ------------------------------------------------------------------ dorroh

def _dorroh_of_ring(r):
    la = tuple(tuple(r.mul[a][v] for v in range(r.order)) for a in range(r.order))
    ra = tuple(tuple(r.mul[v][a] for a in range(r.order)) for v in range(r.order))
    return DorrohData(base=r, bimodule=r, left_action=la, right_action=ra)


def test_dorroh_d_z2_z2():
    z2 = build_zmod(2)
    d = build_dorroh(_dorroh_of_ring(z2))
    assert d.order == 4
    # index = 2*r + v; identity is (1, 0) -> 2
    assert d.one == 2 and d.zero == 0
    # every element is idempotent in D(Z2, Z2)
    assert all(d.mul[a][a] == a for a in range(4))
    units, _, _ = element_sets(d)
    assert units.indices() == (2,)
    assert verify_axioms(d) == []


def test_dorroh_zero_bimodule_is_base():
    z4 = build_zmod(4)
    z1 = build_zmod(1)
    la = tuple((0,) for _ in range(4))
    ra = ((0, 0, 0, 0),)
    d = build_dorroh(DorrohData(base=z4, bimodule=z1, left_action=la, right_action=ra))
    assert d.add == z4.add and d.mul == z4.mul


def test_dorroh_addition_is_the_product_addition():
    for preset in ("zmod:2", "zmod:4", "tri:2:zmod:2", "cdtri:2:zmod:3"):
        data = _dorroh_of_ring(build_preset(preset))
        want = oracles.brute_build_product([data.base, data.bimodule])
        assert build_dorroh(data).add == want.add, preset


def test_dorroh_rejects_bad_action():
    z2 = build_zmod(2)
    data = _dorroh_of_ring(z2)
    broken = DorrohData(
        base=z2,
        bimodule=z2,
        left_action=((0, 0), (0, 0)),  # 1*v = v fails at v = 1
        right_action=data.right_action,
    )
    with pytest.raises(BimoduleError) as err:
        build_dorroh(broken)
    assert "unital" in str(err.value)


# bases of the dorroh: presets checked against build_dorroh; the planned
# order of the last is None, so only the build checks its size
DORROH_PRESET_BASES = ("zmod:1", "zmod:2", "zmod:6", "product:zmod:2,zmod:3", "tri:2:zmod:2",
                       "cdtri:3:zmod:2", "mat:2:zmod:2", "quot:jac:tri:2:zmod:4")


@pytest.mark.parametrize("base", DORROH_PRESET_BASES)
def test_dorroh_preset_matches_the_checked_builder(base):
    """The preset builds, unchecked, the ring that build_dorroh checks."""
    p = build_preset(base)
    want = build_dorroh(DorrohData(p, p, p.mul, p.mul))
    got = build_preset(f"dorroh:{base}")
    for field in ("add", "mul", "zero", "one", "labels", "name"):
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("preset", ["dorroh:zmod:4", "dorroh:tri:2:zmod:2", "dorroh:dorroh:zmod:2"])
def test_dorroh_preset_checks_no_tables(preset, monkeypatch):
    """P acting on itself obeys the bimodule laws by P's ring laws, so the
    preset neither validates the actions nor verifies the extension."""
    from ringlab import core

    def refuse(*args):
        raise AssertionError(f"{preset} checked a table it built")

    for name in ("verify_axioms", "_validate_dorroh"):
        monkeypatch.setattr(core, name, refuse)
    assert build_preset(preset).order == build_preset(preset.partition(":")[2]).order ** 2


DORROH_BASES = ("zmod:2", "zmod:3", "zmod:4", "zmod:6", "product:zmod:2,zmod:2",
                "tri:2:zmod:2", "cdtri:2:zmod:2")
DORROH_BIMODULES = ("zmod:1", "zmod:2", "zmod:3", "zmod:4", "product:zmod:2,zmod:2",
                    "cdtri:2:zmod:2")


def _dorroh_cells(data):
    """The extension's product cell by cell: (r,v)(s,w) = (rs, rw + vs + vw)."""
    base, bim, la, ra = data.base, data.bimodule, data.left_action, data.right_action
    nr, nv = base.order, bim.order
    return tuple(
        tuple(
            nv * base.mul[r][s] + bim.add[la[r][w]][bim.add[ra[v][s]][bim.mul[v][w]]]
            for s in range(nr)
            for w in range(nv)
        )
        for r in range(nr)
        for v in range(nv)
    )


def _random_unital_action(rng, base, bim):
    nr, nv = base.order, bim.order
    la = tuple(
        tuple(v if r == base.one else rng.randrange(nv) for v in range(nv))
        for r in range(nr)
    )
    ra = tuple(
        tuple(v if r == base.one else rng.randrange(nv) for r in range(nr))
        for v in range(nv)
    )
    return DorrohData(base=base, bimodule=bim, left_action=la, right_action=ra)


def _perturbed_action(rng, data):
    tables = [list(map(list, data.left_action)), list(map(list, data.right_action))]
    for _ in range(rng.randint(1, 3)):
        table = rng.choice(tables)
        row = rng.choice(table)
        col = rng.randrange(len(row))
        row[col] = rng.choice([x for x in range(data.bimodule.order) if x != row[col]])
    la, ra = (tuple(map(tuple, table)) for table in tables)
    return dataclasses.replace(data, left_action=la, right_action=ra)


def _dorroh_cases():
    rng = random.Random("dorroh:actions")
    rings = {p: build_preset(p) for p in DORROH_BASES + DORROH_BIMODULES}
    for b in DORROH_BASES:
        for m in DORROH_BIMODULES:
            for _ in range(4):
                yield _random_unital_action(rng, rings[b], rings[m])
    # Z1 has no other value to perturb a cell to
    for preset in sorted(set(DORROH_BASES + DORROH_BIMODULES) - {"zmod:1"}):
        exact = _dorroh_of_ring(rings[preset])
        yield exact
        for _ in range(30):
            yield _perturbed_action(rng, exact)


def test_dorroh_matches_oracle_validator():
    """Tables the old law loops reject still fail to build, and tables they
    accept build the extension cell by cell."""
    verdicts = {"accepted": 0, "not unital": 0, "law fails": 0}
    for data in _dorroh_cases():
        try:
            oracles.brute_validate_dorroh(data)
        except BimoduleError as err:
            with pytest.raises(BimoduleError):
                build_dorroh(data)
            verdicts["not unital" if "unital" in str(err) else "law fails"] += 1
            continue
        ring = build_dorroh(data)
        assert ring.mul == _dorroh_cells(data)
        verdicts["accepted"] += 1
    assert min(verdicts.values()) >= 20, verdicts


def _relabelled_dorroh_cases(preset):
    """R acting on itself, with zero and one moved: the base and the
    bimodule both renamed by one permutation, then each by its own."""
    ring = build_preset(preset)
    rng = random.Random(f"dorroh:relabelled:{preset}")
    p, q = (oracles.moving_permutation(ring, rng) for _ in range(2))
    base, bim = oracles.permuted_ring(ring, p), oracles.permuted_ring(ring, q)
    assert (base.zero, base.one) != (ring.zero, ring.one) != (bim.zero, bim.one)
    back_p, back_q = ([0] * ring.order for _ in range(2))
    for a in range(ring.order):
        back_p[p[a]], back_q[q[a]] = a, a
    elements = range(ring.order)
    # base element r and bimodule element v stand for back_p[r] and back_q[v]
    la = tuple(tuple(q[ring.mul[back_p[r]][back_q[v]]] for v in elements) for r in elements)
    ra = tuple(tuple(q[ring.mul[back_q[v]][back_p[r]]] for r in elements) for v in elements)
    exact = DorrohData(base=base, bimodule=bim, left_action=la, right_action=ra)
    yield _dorroh_of_ring(base)
    yield exact
    for _ in range(10):
        yield _perturbed_action(rng, exact)


@pytest.mark.parametrize(
    "preset", ["zmod:4", "zmod:6", "tri:2:zmod:2", "cdtri:2:zmod:2", "product:zmod:2,zmod:3"]
)
def test_dorroh_on_relabelled_rings(preset):
    """The row fold reads the base's zero where it is, not at index 0: the
    table is the cell-by-cell one, and zero and one are packed pairs."""
    built = 0
    for data in _relabelled_dorroh_cases(preset):
        try:
            oracles.brute_validate_dorroh(data)
        except BimoduleError:
            with pytest.raises(BimoduleError):
                build_dorroh(data)
            continue
        ring = build_dorroh(data)
        nv = data.bimodule.order
        assert ring.mul == _dorroh_cells(data)
        assert ring.zero == nv * data.base.zero + data.bimodule.zero
        assert ring.one == nv * data.base.one + data.bimodule.zero
        built += 1
    assert built >= 2


@pytest.mark.parametrize("preset", ["dorroh:zmod:17", "dorroh:tri:2:zmod:3"])
def test_dorroh_cells_are_shared(preset):
    # above order 256, where CPython no longer shares small ints by itself
    ring = build_preset(preset)
    assert ring.order > 256
    _assert_cells_shared(ring)


# ---------------------------------------------------------------- quotient

def test_quotient_z4_by_two():
    z4 = build_zmod(4)
    q, proj = build_quotient(z4, ElementSet.from_indices(4, [0, 2]))
    assert q.order == 2
    assert proj == (0, 1, 0, 1)
    assert is_zmod2(q)
    # projection is a homomorphism
    for a in range(4):
        for b in range(4):
            assert proj[z4.add[a][b]] == q.add[proj[a]][proj[b]]
            assert proj[z4.mul[a][b]] == q.mul[proj[a]][proj[b]]


def test_quotient_by_zero_ideal_is_identity():
    z6 = build_zmod(6)
    q, proj = build_quotient(z6, ElementSet.from_indices(6, [0]))
    assert q.add == z6.add and q.mul == z6.mul
    assert proj == (0, 1, 2, 3, 4, 5)


def test_quotient_rejects_non_ideal():
    z4 = build_zmod(4)
    with pytest.raises(IdealError):
        build_quotient(z4, ElementSet.from_indices(4, [0, 1]))


def test_quotient_rejects_subset_of_another_size():
    z4 = build_zmod(4)
    for members in ([0, 4], [0, 2]):
        with pytest.raises(IdealError):
            build_quotient(z4, ElementSet.from_indices(8, members))


def test_quotient_rejects_one_sided_ideal():
    t2 = build_upper_triangular(build_zmod(2), 2)
    # {0, E22} is a right ideal but not a left ideal
    with pytest.raises(IdealError):
        build_quotient(t2, ElementSet.from_indices(8, [0, 1]))


# ------------------------------------------------------------------ corner

def test_corner_of_z6():
    z6 = build_zmod(6)
    c3 = build_corner(z6, 3)
    assert c3.order == 2 and is_zmod2(c3)
    c4 = build_corner(z6, 4)
    assert c4.order == 3
    assert verify_axioms(c4) == []


def test_corner_requires_central_idempotent():
    t2 = build_upper_triangular(build_zmod(2), 2)
    with pytest.raises(ValueError):
        build_corner(t2, 4)  # E11 is idempotent but not central
    with pytest.raises(ValueError):
        build_corner(build_zmod(6), 2)  # 2 is not idempotent


# ------------------------------------------------------------------ axioms

def test_verify_axioms_accepts_all_small_zmods():
    for n in range(1, 13):
        assert verify_axioms(build_zmod(n)) == []


def test_verify_axioms_reports_corruption():
    z4 = build_zmod(4)
    mul = [list(row) for row in z4.mul]
    mul[2][2] = 1
    bad = FiniteRing(
        order=4,
        add=z4.add,
        mul=tuple(tuple(row) for row in mul),
        zero=0,
        one=1,
        name="bad",
    )
    violations = verify_axioms(bad)
    assert violations
    assert any("distribut" in v or "associat" in v for v in violations)


def test_verify_axioms_reports_bad_identity():
    z4 = build_zmod(4)
    bad = FiniteRing(order=4, add=z4.add, mul=z4.mul, zero=0, one=2, name="bad")
    violations = verify_axioms(bad)
    assert any("identity" in v for v in violations)


# Z2..Z8 have one additive generator each; the products and matrix rings
# have two to four, so a check that works on additive generators must still
# see a corrupted cell that lies off every generator's row and column.
CORRUPTION_RECIPES = tuple(f"zmod:{n}" for n in range(2, 9)) + (
    "product:zmod:2,zmod:2",
    "product:zmod:2,zmod:4",
    "cdtri:3:zmod:2",
    "tri:2:zmod:2",
    "mat:2:zmod:2",
)


@functools.cache
def _corruption_base(recipe):
    return build_preset(recipe)


@settings(max_examples=200)
@given(st.sampled_from(CORRUPTION_RECIPES), st.data())
def test_single_cell_corruption_is_always_detected(recipe, data):
    base = _corruption_base(recipe)
    n = base.order
    which = data.draw(st.sampled_from(["add", "mul"]))
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    rows = [list(row) for row in getattr(base, which)]
    wrong = data.draw(
        st.integers(min_value=0, max_value=n - 1).filter(lambda v: v != rows[i][j])
    )
    rows[i][j] = wrong
    assert verify_axioms(_with_rows(base, which, rows)) != []


def _with_rows(ring, which, rows):
    tables = {"add": ring.add, "mul": ring.mul}
    tables[which] = tuple(tuple(row) for row in rows)
    return FiniteRing(
        order=ring.order,
        add=tables["add"],
        mul=tables["mul"],
        zero=ring.zero,
        one=ring.one,
        name="bad",
    )


def _cell_corruption(ring, which, count, rng):
    """``count`` random cells of one table set to wrong values."""
    n = ring.order
    rows = [list(row) for row in getattr(ring, which)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in rng.sample(cells, count):
        rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
    return _with_rows(ring, which, rows)


def _coset_shift(ring, which, rng):
    """Shift one table by d on a block S x C, mirrored for ``add``.

    C is a coset of a cyclic <h> and S is another coset or one element; both
    miss 0 (and 1 for ``mul``).  Each shifted row or column along C stays
    additive along <h>, so a check that looked only at the generator h must
    rely on the other side to see the fault.
    """
    n, add = ring.order, ring.add
    h = rng.choice([1, rng.randrange(1, n)])
    cyclic, y = {ring.zero}, h
    while y not in cyclic:
        cyclic.add(y)
        y = add[y][h]
    avoid = {ring.zero} if which == "add" else {ring.zero, ring.one}
    cosets = {frozenset(add[c][y] for y in cyclic) for c in range(n)}
    cosets = sorted(sorted(c) for c in cosets if not c & avoid)
    if not cosets:
        return None
    first = rng.choice(cosets + [[a] for a in range(n) if a not in avoid])
    cells = {(y, x) for y in first for x in rng.choice(cosets)}
    mirrored = {(x, y) for y, x in cells}
    if which == "add":
        cells |= mirrored
    elif rng.random() < 0.5:
        cells = mirrored
    d = rng.choice([x for x in range(n) if x != ring.zero])
    table = getattr(ring, which)
    rows = [list(row) for row in table]
    for y, x in cells:
        rows[y][x] = add[table[y][x]][d]
    return _with_rows(ring, which, rows)


def _assert_agrees_with_brute_force(bad, context):
    fast = verify_axioms(bad)
    brute = oracles.brute_verify_axioms(bad, math.inf)
    assert bool(fast) == bool(brute), context
    assert set(fast) <= set(brute), context
    assert bool(oracles.generator_verify_axioms(bad)) == bool(brute), context


def test_verify_axioms_matches_brute_force(catalog_rings):
    """Same verdict as the n^3 oracle, and every message one the oracle also gives."""
    for name, ring in catalog_rings.items():
        assert verify_axioms(ring) == [], name
        assert oracles.brute_verify_axioms(ring) == [], name
        if ring.order > 16:
            continue
        rng = random.Random(f"axioms:{name}")
        for which in ("add", "mul"):
            for count in (1, 2):
                for _ in range(25):
                    bad = _cell_corruption(ring, which, count, rng)
                    _assert_agrees_with_brute_force(bad, (name, which, count))
            for _ in range(25):
                bad = _coset_shift(ring, which, rng)
                if bad is not None:
                    _assert_agrees_with_brute_force(bad, (name, which, "coset"))


# Greedy generator counts 1 to 6 and mixed radix: each tree of the axiom
# check has every shape of coset walk and wrap edge.
TREE_RINGS = (
    ("zmod:8", 1),
    ("product:zmod:4,zmod:2", 2),
    ("product:zmod:8,zmod:2", 2),
    ("tri:2:zmod:2", 3),
    ("tri:2:zmod:4", 3),
    ("mat:2:zmod:2", 4),
    ("product:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2", 5),
    ("product:zmod:2,zmod:2,zmod:2,zmod:2,zmod:2,zmod:2", 6),
)


@pytest.mark.parametrize(
    "recipe,gens,relabel",
    [(recipe, gens, False) for recipe, gens in TREE_RINGS]
    + [("product:tri:2:zmod:2,zmod:2", None, True), ("tri:2:zmod:4", None, True)],
)
def test_tree_axiom_check_matches_oracles_on_corruptions(recipe, gens, relabel):
    """1-3 wrong cells of either table, or a shifted coset block: the verdict
    is the brute oracle's and the per-generator checker's, and every message
    is one the brute oracle also gives."""
    rng = random.Random(f"tree:{recipe}:{relabel}")
    ring = build_preset(recipe)
    if relabel:
        ring = oracles.permuted_ring(ring, oracles.moving_permutation(ring, rng))
        assert ring.zero != 0 and ring.one != 1
    if gens is not None:
        assert len(_subgroup_generators(ring, (1 << ring.order) - 1)) == gens
    _assert_agrees_with_brute_force(ring, recipe)
    assert verify_axioms(ring) == []
    trials = 8 if ring.order < 64 else 3
    for which in ("add", "mul"):
        for count in (1, 2, 3):
            for _ in range(trials):
                bad = _cell_corruption(ring, which, count, rng)
                _assert_agrees_with_brute_force(bad, (recipe, which, count))
        for _ in range(trials):
            bad = _coset_shift(ring, which, rng)
            if bad is not None:
                _assert_agrees_with_brute_force(bad, (recipe, which, "coset"))


def test_tree_axiom_check_needs_the_wrap_edges():
    """(R,+) = Z4 x Z2 has the greedy generators g1 = (0,1) of order 2 and
    g2 = (1,0) of order 4.  Writing x = c1 g1 + c2 g2 in normal form, the
    product of c2 + c1 t and d2 + d1 t with t^2 = 1 is additive along every
    tree edge and associative on the generators, with unit g2.  Yet 2 g1 = 0
    while 2 (g1 g1) = 2 g2 is not, and only the wrap edge g1 -> 2 g1 sees it."""
    base = build_preset("product:zmod:4,zmod:2")  # index 2 c2 + c1

    def product(x, y):
        (c2, c1), (d2, d1) = divmod(x, 2), divmod(y, 2)
        return 2 * ((c2 * d2 + c1 * d1) % 4) + (c1 * d2 + c2 * d1) % 2

    mul = tuple(tuple(product(x, y) for y in range(8)) for x in range(8))
    bad = FiniteRing(order=8, add=base.add, mul=mul, zero=0, one=2, name="bad")
    assert "right distributivity fails at (1,1,1)" in verify_axioms(bad)
    _assert_agrees_with_brute_force(bad, "wrap")


def test_tree_axiom_check_needs_the_cell_check():
    """(R,+) is Z3 x| Z2, index 2u + v and (u, v) + (u', v') = (u + (-1)^v u',
    v + v'), with the multiplication of Z3 x Z2.  The group is associative,
    so every translation row agrees, and the products pass their checks
    along the walk.  Only a + g = g + a sees that + is not commutative."""
    base = build_preset("product:zmod:3,zmod:2")

    def plus(x, y):
        (u, v), (w, z) = divmod(x, 2), divmod(y, 2)
        return 2 * ((u + (-1) ** v * w) % 3) + (v + z) % 2

    add = tuple(tuple(plus(x, y) for y in range(6)) for x in range(6))
    bad = dataclasses.replace(base, add=add, name="bad")
    violations = verify_axioms(bad)
    assert violations and all("not commutative" in v for v in violations)
    _assert_agrees_with_brute_force(bad, "cell")


def test_tree_axiom_check_needs_the_later_generator_pairs():
    """x + y = x xor y but in eight cells, with the multiplication of Z2^3.
    The generators are 1, 2 and 4.  Of the pairs (a, g) the check visits,
    only (2, 1) and (4, 2) fail, and they are no tree edges: 2 is reached
    after 1, and 4 after 2.  So only the pairs (h, g) with h chosen after g
    see the fault."""
    base = build_preset("product:zmod:2,zmod:2,zmod:2")
    rows = [[a ^ b for b in range(8)] for a in range(8)]
    cells = [(2, 5, 5), (2, 7, 7), (3, 5, 4), (3, 7, 6), (6, 1, 5), (6, 3, 7), (7, 1, 4), (7, 3, 6)]
    for a, b, v in cells:
        rows[a][b] = v
    bad = _with_rows(base, "add", rows)
    assert verify_axioms(bad)[0] == "addition is not associative at (2,1,4)"
    _assert_agrees_with_brute_force(bad, "later pair")


def _assert_walk_matches_bfs(ring, rng):
    """The walk's generators are the BFS closure's on the full mask, every
    right ideal, every row commutant and random masks holding zero, and its
    subgroup count agrees with a closure check on each; on the full mask
    its tree reaches each element once."""
    n, full = ring.order, (1 << ring.order) - 1
    masks = {full}
    masks.update(ideal.bits for ideal in all_right_ideals(ring))
    masks.update(_row_commutant(ring, a) for a in range(n))
    masks.update((rng.getrandbits(n) | 1 << ring.zero) for _ in range(20))
    for bits in masks:
        gens, edges = _normal_form(ring, bits)
        assert edges is not None, (ring.name, bits)
        assert gens == oracles.bfs_subgroup_generators(ring, bits), (ring.name, bits)
        # zero is in S, and a + b is in S for all a, b in S
        closed = bool(bits >> ring.zero & 1) and not (
            oracles.brute_pairwise_span(ring, bits, bits) & ~bits
        )
        assert _is_subgroup(ring, bits) == closed, (ring.name, bits)
    gens, edges = _normal_form(ring, full)
    # the last edge of each generator is its wrap edge, back into the
    # subgroup of the generators before it
    tree_children = [x for _, _, children in edges for x in children[:-1]]
    assert sorted([ring.zero, *tree_children]) == list(range(n)), ring.name
    assert len(edges) == len(gens)
    reached = {ring.zero}
    for g, parents, children in edges:
        assert all(ring.add[p][g] == x for p, x in zip(parents, children))
        assert children[-1] in reached
        reached.update(children[:-1])


def test_normal_form_generators_match_bfs_oracle_on_catalog(catalog_rings):
    for name, ring in catalog_rings.items():
        _assert_walk_matches_bfs(ring, random.Random(f"walk:{name}"))


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_normal_form_generators_match_bfs_oracle(preset):
    _assert_walk_matches_bfs(build_preset(preset), random.Random(f"walk:{preset}"))


# Rings of order at most 12 whose corrupted addition tables drive the walk
# onto an element it has already reached
WALK_FAILURE_RINGS = (
    "zmod:8",
    "zmod:9",
    "zmod:12",
    "product:zmod:4,zmod:2",
    "product:zmod:2,zmod:2,zmod:2",
    "product:zmod:2,zmod:6",
    "tri:2:zmod:2",
)


def _generator_row_corruption(ring, rng):
    """1-3 wrong cells in the addition row of a greedy generator, mirrored
    into its column half the time."""
    n = ring.order
    rows = [list(row) for row in ring.add]
    g = rng.choice(_subgroup_generators(ring, (1 << n) - 1))
    for _ in range(rng.randint(1, 3)):
        rows[g][rng.randrange(n)] = rng.randrange(n)
    if rng.random() < 0.5:
        for x in range(n):
            rows[x][g] = rows[g][x]
    return _with_rows(ring, "add", rows)


@pytest.mark.parametrize("recipe", WALK_FAILURE_RINGS)
def test_verify_axioms_when_the_walk_fails(recipe):
    """A walk that steps onto a reached element ends there, and the check
    over every (a, g) still returns the brute oracle's verdict with messages
    the oracle also gives."""
    ring = build_preset(recipe)
    rng = random.Random(f"walk-failure:{recipe}")
    failures = 0
    for trial in range(300):
        if trial % 2:
            bad = _generator_row_corruption(ring, rng)
        else:
            bad = _cell_corruption(ring, "add", rng.randint(1, 3), rng)
        if _normal_form(bad, (1 << bad.order) - 1)[1] is None:
            failures += 1
            _assert_agrees_with_brute_force(bad, (recipe, trial))
    assert failures >= 50, failures


def _bilinear_algebra(p, k, rng):
    """(Z_p)^k with basis e_0..e_{k-1}, unit e_0 and random e_i e_j for i, j >= 1.

    Addition is a group and both distributive laws hold, so only
    multiplicative associativity can fail.
    """
    n = p**k

    def vec(x):
        return [(x // p**i) % p for i in range(k)]

    def index(v):
        return sum((c % p) * p**i for i, c in enumerate(v))

    basis = [[int(i == j) for j in range(k)] for i in range(k)]
    prod = {}
    for i in range(k):
        for j in range(k):
            if i == 0 or j == 0:
                prod[i, j] = basis[i + j]
            else:
                prod[i, j] = [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(k)]
    add, mul = [], []
    for x in range(n):
        u = vec(x)
        add.append(tuple(index([a + b for a, b in zip(u, vec(y))]) for y in range(n)))
        row = []
        for y in range(n):
            v, w = vec(y), [0] * k
            for i in range(k):
                for j in range(k):
                    if u[i] and v[j]:
                        w = [acc + u[i] * v[j] * c for acc, c in zip(w, prod[i, j])]
            row.append(index(w))
        mul.append(tuple(row))
    return FiniteRing(order=n, add=tuple(add), mul=tuple(mul), zero=0, one=1, name="alg")


def test_verify_axioms_on_nonassociative_algebras():
    rng = random.Random("axioms:algebras")
    verdicts = []
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2)] * 15:
        alg = _bilinear_algebra(p, k, rng)
        _assert_agrees_with_brute_force(alg, (p, k))
        verdicts.append(bool(verify_axioms(alg)))
    assert True in verdicts and False in verdicts


def _map_near_ring(group, compose):
    """The maps G -> G fixing 0 under pointwise + and composition.

    With ``compose="right"`` the product is f.g = f o g, which is right
    distributive but not left; ``"left"`` takes g o f and swaps the two.
    """
    gadd, m = group.add, group.order
    maps = [(0, *rest) for rest in itertools.product(range(m), repeat=m - 1)]
    index = {f: i for i, f in enumerate(maps)}
    add = tuple(
        tuple(index[tuple(gadd[f[x]][g[x]] for x in range(m))] for g in maps) for f in maps
    )

    def product(f, g):
        inner, outer = (g, f) if compose == "right" else (f, g)
        return index[tuple(outer[inner[x]] for x in range(m))]

    mul = tuple(tuple(product(f, g) for g in maps) for f in maps)
    return FiniteRing(
        order=len(maps),
        add=add,
        mul=mul,
        zero=index[(0,) * m],
        one=index[tuple(range(m))],
        name="near-ring",
    )


@pytest.mark.parametrize("recipe", ["zmod:3", "zmod:4", "product:zmod:2,zmod:2"])
@pytest.mark.parametrize("compose", ["left", "right"])
def test_verify_axioms_on_one_sided_near_rings(recipe, compose):
    near = _map_near_ring(build_preset(recipe), compose)
    brute = oracles.brute_verify_axioms(near, math.inf)
    failing = "left" if compose == "right" else "right"
    assert brute and {v.split()[0] for v in brute} == {failing}
    _assert_agrees_with_brute_force(near, (recipe, compose))


def _outcome(check, ring):
    """What ``check(ring)`` returns, or the type of what it raises."""
    try:
        return check(ring)
    except Exception as err:  # noqa: BLE001 - the type is the outcome
        return type(err)


# In Z5: -1 reads 4 from the end of the shared ints, -8, 5, 10 and 10**9 fall
# outside them, and True and 1.0 compare equal to the 1 they replace.
_ODD_ENTRIES = [-1, -8, 5, 10, 10**9, True, 1.0]


@pytest.mark.parametrize("rows", [tuple, list])
@pytest.mark.parametrize("which", ["add", "mul"])
@pytest.mark.parametrize("entry", _ODD_ENTRIES, ids=repr)
def test_range_check_matches_the_per_cell_loop(entry, which, rows):
    """The range check through the shared ints gives the per-cell loop's
    verdict on tuple rows and list rows alike."""
    z5 = build_zmod(5)
    tables = {"add": z5.add, "mul": z5.mul}
    cells = [list(row) for row in tables[which]]
    cells[2][cells[2].index(1)] = entry
    tables[which] = cells
    bad = dataclasses.replace(
        z5, **{key: rows(map(rows, table)) for key, table in tables.items()}
    )
    fast = _outcome(verify_axioms, bad)
    table_name = "addition" if which == "add" else "multiplication"
    column = z5.add[2].index(1) if which == "add" else z5.mul[2].index(1)
    if isinstance(entry, int):
        # the per-row min/max range loop, verbatim, ahead of another axiom check
        assert fast == _outcome(oracles.generator_verify_axioms, bad)
    if type(entry) is int:
        expected = [f"{table_name} entry at (2,{column}) is out of range"]
        # the n^3 oracle stops at its first violation, the range one
        assert fast == oracles.brute_verify_axioms(bad, 1) == expected
    elif entry is True:
        assert fast == oracles.brute_verify_axioms(bad, math.inf) == []
    else:
        # 1.0 lies in range and equals the 1 it replaces, so the per-row loop
        # passes it; an entry that is not an int is a violation of its own
        assert fast == [f"{table_name} entry at (2,{column}) is not an int"]
        # the n^3 oracle indexes with it
        assert _outcome(oracles.brute_verify_axioms, bad) is TypeError


@pytest.mark.parametrize("which", ["add", "mul"])
@pytest.mark.parametrize("cell", [(2, 2), (0, 1)])
def test_verify_axioms_reports_non_int_entries(cell, which):
    """A float in a hand-built table is a violation, not a silent pass nor a
    TypeError from the additive walk; in Z3, add[2][2] and add[0][1] are 1."""
    z3 = build_zmod(3)
    tables = {"add": z3.add, "mul": z3.mul}
    cells = [list(row) for row in tables[which]]
    i, j = cell
    cells[i][j] = float(cells[i][j])
    bad = dataclasses.replace(z3, **{which: tuple(map(tuple, cells))})
    table_name = "addition" if which == "add" else "multiplication"
    assert verify_axioms(bad) == [f"{table_name} entry at ({i},{j}) is not an int"]


def test_range_check_lists_every_out_of_range_entry():
    """Many rows fall to the per-cell loop, in both tables and in one row."""
    z5 = build_zmod(5)
    add = [list(row) for row in z5.add]
    mul = [list(row) for row in z5.mul]
    add[0][1], add[0][3], add[4][4] = -1, 5, 10**9
    mul[1][0], mul[3][2] = -8, 10
    bad = dataclasses.replace(z5, add=tuple(map(tuple, add)), mul=tuple(map(tuple, mul)))
    assert verify_axioms(bad) == oracles.brute_verify_axioms(bad, 5) == [
        "addition entry at (0,1) is out of range",
        "addition entry at (0,3) is out of range",
        "addition entry at (4,4) is out of range",
        "multiplication entry at (1,0) is out of range",
        "multiplication entry at (3,2) is out of range",
    ]


# ---------------------------------------------------------------- size cap

def test_size_cap_blocks_large_builds(monkeypatch):
    monkeypatch.setenv("RINGLAB_SIZE_CAP", "10")
    with pytest.raises(SizeCapError):
        build_matrix_ring(build_zmod(2), 2)  # 16 elements
    with pytest.raises(SizeCapError):
        build_matrix_ring(build_zmod(1), 4)  # one element, but 16 digits
    with pytest.raises(SizeCapError):
        build_zmod(11)
    assert build_zmod(10).order == 10


def test_size_cap_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv("RINGLAB_SIZE_CAP", "many")
    with pytest.raises(SizeCapError):
        build_zmod(2)


# -------------------------------------------------------------------- JSON

def test_ring_json_roundtrip(tmp_path):
    t2 = build_upper_triangular(build_zmod(2), 2)
    path = tmp_path / "t2.json"
    save_ring(t2, path)
    back = load_ring(path)
    assert back.add == t2.add and back.mul == t2.mul
    assert back.zero == t2.zero and back.one == t2.one
    assert back.name == t2.name


def test_ring_json_structure():
    z2 = build_zmod(2)
    obj = ring_to_json(z2)
    assert obj["order"] == 2
    assert obj["add"] == [[0, 1], [1, 0]]
    assert obj["mul"] == [[0, 0], [0, 1]]
    assert ring_from_json(obj).one == 1


def _unlabelled_z5():
    obj = ring_to_json(build_zmod(5))
    del obj["labels"]
    return ring_from_json(obj)


def _unlabelled_z300():
    """Cells above 256, past CPython's cache of small ints."""
    return dataclasses.replace(build_zmod(300), labels=None)


def _quoted_t2():
    t2 = build_upper_triangular(build_zmod(2), 2)
    labels = ('q"0', "b\\1", "é2", "€3", "n\n4", "t\t5", "\U0001d4b56", "7")
    return dataclasses.replace(t2, name='T2 "Z2" \\ ü', labels=labels)


def _check_save_bytes(ring, path):
    save_ring(ring, path)
    assert path.read_bytes() == oracles.brute_save_bytes(ring)
    assert load_ring(path) == ring


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_preset("tri:2:zmod:8"),
        lambda: build_preset("zmod:1024"),
        lambda: build_zmod(1),
        lambda: build_preset("zmod:2"),
        _unlabelled_z5,
        _unlabelled_z300,
        lambda: build_preset("product:mat:2:zmod:2,zmod:64"),
        _quoted_t2,
    ],
    ids=[
        "tri:2:zmod:8",
        "zmod:1024",
        "Z1",
        "zmod:2",
        "no-labels",
        "no-labels-z300",
        "product:mat:2:zmod:2,zmod:64",
        "quoted",
    ],
)
def test_save_ring_matches_oracle_bytes(make, tmp_path):
    _check_save_bytes(make(), tmp_path / "ring.json")


def test_save_ring_matches_oracle_bytes_on_catalog(catalog_rings, tmp_path):
    assert len(catalog_rings) == 18
    for i, ring in enumerate(catalog_rings.values()):
        _check_save_bytes(ring, tmp_path / f"{i}.json")


@pytest.mark.parametrize("entry", [-1, 4, 8, "x"], ids=["-1", "order", "2*order", "x"])
@pytest.mark.parametrize("key", ["add", "mul"])
def test_save_ring_refuses_non_index_entries(key, entry, tmp_path):
    ring = build_zmod(4)
    table = [list(row) for row in getattr(ring, key)]
    table[2][3] = entry
    bad = dataclasses.replace(ring, **{key: tuple(map(tuple, table))})
    with pytest.raises((LookupError, TypeError)):
        save_ring(bad, tmp_path / "bad.json")


def test_load_rejects_axiom_violations(tmp_path):
    obj = ring_to_json(build_zmod(4))
    obj["mul"][2][2] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(AxiomError) as err:
        load_ring(path)
    assert err.value.violations


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2}))
    with pytest.raises(ValueError):
        load_ring(path)


def test_is_zmod2():
    assert is_zmod2(build_zmod(2))
    assert not is_zmod2(build_zmod(3))
    assert not is_zmod2(build_zmod(1))


# ------------------------------------------------- cross-check with oracles

def test_units_and_idempotents_match_brute_force():
    rings = [
        build_zmod(6),
        build_zmod(8),
        build_upper_triangular(build_zmod(2), 2),
        build_constant_diagonal_triangular(build_zmod(3), 2),
    ]
    for r in rings:
        units, idem, _ = element_sets(r)
        assert set(units.indices()) == oracles.brute_units(r)
        assert set(idem.indices()) == oracles.brute_idempotents(r)
