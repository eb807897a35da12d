"""Radical-style invariants: Jacobson radical, quasinilpotents, and the
delta ideal computed by five independent characterizations that must agree."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq, itemgetter

from ringlab.core import (
    ComputationFault,
    ElementSet,
    FiniteRing,
    _coset_leaders,
    _subgroup_generators,
    flags_from_mask,
    mask_from_flags,
    memo,
    units_map,
)
from ringlab.ideals import (
    _essential_maximals,
    _ideal_core_bits,
    _is_delta_small_bits,
    _one_plus_bits,
    _principal_classes,
    _span_bits,
    _summand_witnesses,
    all_right_ideals,
    is_delta_small,
    is_two_sided_ideal,
    maximal_right_ideals,
    socle,
)


@dataclass(frozen=True)
class DeltaComputation:
    """The five independently computed candidate sets and their consensus."""

    r1: ElementSet
    r2: ElementSet
    r3: ElementSet
    r4: ElementSet
    r5: ElementSet
    agree: bool
    consensus: ElementSet | None

    def to_json(self) -> dict:
        """The five routes, whether they agree, and the consensus (or None)."""
        routes = (self.r1, self.r2, self.r3, self.r4, self.r5)
        return {
            **{f"r{i}": route.to_json() for i, route in enumerate(routes, 1)},
            "agree": self.agree,
            "consensus": None if self.consensus is None else self.consensus.to_json(),
        }


class DeltaDisagreement(ComputationFault):
    """Raised when the five delta characterizations do not coincide."""

    def __init__(self, ring: FiniteRing, computation: DeltaComputation):
        parts = ", ".join(
            f"r{i}={list(getattr(computation, f'r{i}').indices())}" for i in range(1, 6)
        )
        super().__init__(
            f"delta characterizations disagree on {ring.name}: {parts}"
        )
        self.computation = computation


# --------------------------------------------------------------------------
# Jacobson radical and quasinilpotents


@memo
def _one_plus_non_units(ring: FiniteRing) -> frozenset[int]:
    """The ``z`` with ``1 + z`` not a unit; cached."""
    units = units_map(ring)
    return frozenset(z for z, w in enumerate(ring.add[ring.one]) if w not in units)


@memo
def jacobson(ring: FiniteRing) -> ElementSet:
    """Jacobson radical, computed two ways that must coincide:
    the intersection of the maximal right ideals, and the set of ``x`` such
    that ``1 - x y`` is a unit for every ``y``."""
    route_a = (1 << ring.order) - 1
    for m in maximal_right_ideals(ring):
        route_a &= m.bits
    # row x of mul is the set xR = -xR, so it misses this set iff every 1 - xy is a unit
    route_b = mask_from_flags(bytes(map(_one_plus_non_units(ring).isdisjoint, ring.mul)))
    if route_a != route_b:
        raise ComputationFault(f"Jacobson radical mismatch on {ring.name}")
    return ElementSet(route_a, ring.order)


@memo
def _row_commutant(ring: FiniteRing, a: int) -> int:
    """The ``x`` with ``a x = x a``: row ``a`` of ``mul`` against column ``a``."""
    mul = ring.mul
    return mask_from_flags(bytes(map(eq, mul[a], map(itemgetter(a), mul))))


@memo
def center_bits(ring: FiniteRing) -> int:
    """The centre as a mask; cached.  An element commuting with g and h
    commutes with g + h, so this is the intersection of the commutants of
    the ring's additive generators."""
    bits = (1 << ring.order) - 1
    for g in _subgroup_generators(ring, bits):
        bits &= _row_commutant(ring, g)
    return bits


def commutant_bits(ring: FiniteRing, a: int) -> int:
    """The commutant of ``a``, read at the leader of ``a + Z(R)``.

    For central ``z``, ``(a + z)x = ax + zx`` and ``x(a + z) = xa + xz``, so
    ``a`` shares its commutant with every member of its coset.  A central
    ``a`` lies in Z(R) itself, whose least member commutes with everything.
    """
    return _row_commutant(ring, _coset_leaders(ring, center_bits(ring))[a])


@memo
def qnil_set(ring: FiniteRing) -> ElementSet:
    """Quasinilpotents: ``a`` with ``1 + a x`` a unit for every ``x``
    commuting with ``a``.

    Each row of ``mul`` is compressed by the flags of its commutant, which
    is cached once per coset of the centre; a central row is read whole.
    """
    n, blocked = ring.order, _one_plus_non_units(ring)
    central = flags_from_mask(center_bits(ring)).ljust(n, b"\0")

    def quasinilpotent(a: int, row) -> bool:
        # the ax over the x commuting with a
        if not central[a]:
            row = compress(row, flags_from_mask(commutant_bits(ring, a)))
        return blocked.isdisjoint(row)

    flags = bytes(map(quasinilpotent, range(n), ring.mul))
    return ElementSet(mask_from_flags(flags), n)


# --------------------------------------------------------------------------
# the five delta characterizations


def delta_r1(ring: FiniteRing) -> ElementSet:
    """Intersection of the essential maximal right ideals (all of the ring
    when there are none)."""
    full = (1 << ring.order) - 1
    bits = full
    for m in _essential_maximals(ring):
        bits &= m.bits
    return ElementSet(bits, ring.order)


def delta_r2(ring: FiniteRing) -> ElementSet:
    """Sum of all small-relative-to-essential right ideals; the sum itself
    must remain small, otherwise the computation is faulted."""
    total = 1 << ring.zero
    for ideal in all_right_ideals(ring):
        if _is_delta_small_bits(ring, ideal.bits):
            total = _span_bits(ring, total, ideal.bits)
    # the public check also confirms that the computed sum is a right ideal
    total_set = ElementSet(total, ring.order)
    if not is_delta_small(ring, total_set):
        raise ComputationFault(
            f"sum of small right ideals of {ring.name} is not itself small"
        )
    return total_set


def delta_r3(ring: FiniteRing) -> ElementSet:
    """Elements ``x`` such that whenever ``x R + K`` is everything, ``K`` is
    already a direct summand.

    ``x R + K = R`` exactly when ``x R`` meets the coset ``1 + K``, so ``x``
    qualifies when ``x R`` misses the union of the cosets of the
    non-summands, one mask.  The condition depends on ``x`` only through
    ``x R``, so it is decided once per distinct principal ideal.
    """
    non_summands, summands = 0, _summand_witnesses(ring)
    for ideal in all_right_ideals(ring):
        if ideal.bits not in summands:
            non_summands |= ideal.bits
    cosets = _one_plus_bits(ring, non_summands)
    bits = 0
    for xr, generators in _principal_classes(ring).items():
        if not xr & cosets:
            bits |= generators
    return ElementSet(bits, ring.order)


def delta_r4(ring: FiniteRing) -> ElementSet:
    """Intersection of the two-sided cores of the essential maximal right
    ideals (all of the ring when there are none)."""
    full = (1 << ring.order) - 1
    bits = full
    for m in _essential_maximals(ring):
        bits &= _ideal_core_bits(ring, m.bits)
    return ElementSet(bits, ring.order)


def delta_r5(ring: FiniteRing) -> ElementSet:
    """Elements ``x`` such that for every ``y`` the principal right ideal of
    ``1 + x y`` is complemented by a right ideal inside the socle.

    Whether ``z R`` is complemented depends on ``z`` only through ``z R``,
    so the search runs once per distinct principal ideal, and the ``z``
    that pass form one mask C.  Then ``x`` qualifies when every ``x y`` lies
    in C - 1, that is when ``x R``, which is the set of the ``x y``, does.
    """
    soc = socle(ring).bits
    # a complement Y of Z has |Z| |Y| = |R|, so parts are grouped by size
    parts_of_size: dict[int, list[int]] = {}
    for ideal in all_right_ideals(ring):
        if ideal.bits & ~soc == 0:
            parts_of_size.setdefault(len(ideal), []).append(ideal.bits)
    zero_bit = 1 << ring.zero
    order = ring.order
    classes = _principal_classes(ring)
    complemented = 0
    for zbits, generators in classes.items():
        size, rest = divmod(order, zbits.bit_count())
        if not rest and any(
            zbits & ybits == zero_bit for ybits in parts_of_size.get(size, ())
        ):
            complemented |= generators
    # xR must lie in C - 1, the w with 1 + w in C.  zR = (-z)R gives C = -C,
    # so C - 1 = -(1 + C), and xR = -xR lies in that exactly when in 1 + C
    allowed = _one_plus_bits(ring, complemented)
    bits = 0
    for xr, generators in classes.items():
        if not xr & ~allowed:
            bits |= generators
    return ElementSet(bits, order)


@memo
def delta(ring: FiniteRing) -> DeltaComputation:
    """Run all five characterizations and require consensus.

    On disagreement a :class:`DeltaDisagreement` is raised carrying the
    partial computation; nothing is cached in that case.
    """
    r1 = delta_r1(ring)
    r2 = delta_r2(ring)
    r3 = delta_r3(ring)
    r4 = delta_r4(ring)
    r5 = delta_r5(ring)
    agree = r1.bits == r2.bits == r3.bits == r4.bits == r5.bits
    if not agree:
        raise DeltaDisagreement(
            ring, DeltaComputation(r1, r2, r3, r4, r5, False, None)
        )
    consensus = r1
    if not is_two_sided_ideal(ring, consensus):
        raise ComputationFault(
            f"delta consensus on {ring.name} is not a two-sided ideal"
        )
    if jacobson(ring).bits & ~consensus.bits:
        raise ComputationFault(
            f"delta consensus on {ring.name} does not contain the Jacobson radical"
        )
    return DeltaComputation(r1, r2, r3, r4, r5, True, consensus)


def delta_mask(ring: FiniteRing) -> ElementSet:
    """The agreed delta ideal (shortcut for ``delta(ring).consensus``)."""
    return delta(ring).consensus
