"""Right ideal lattices of finite rings and the predicates built on them.

Ideals are handled as bitmasks throughout; the public functions accept and
return :class:`~ringlab.core.ElementSet` values.  Enumeration of the full
right ideal lattice is capped (see :data:`DEFAULT_LATTICE_LIMIT`) so that a
pathological input fails fast instead of filling memory.
"""
from __future__ import annotations

from ringlab.core import (
    ElementSet,
    FiniteRing,
    IdealError,
    LatticeLimitError,
    _subgroup_generators,
    bit_members,
    cached_on,
    element_sets,
)

DEFAULT_LATTICE_LIMIT = 100000


# --------------------------------------------------------------------------
# bitmask plumbing


def _principal_bits(ring: FiniteRing) -> tuple[int, ...]:
    """``aR`` as a bitmask for every ``a``; cached."""

    def compute():
        out = []
        for a in range(ring.order):
            bits = 0
            for ab in ring.mul[a]:
                bits |= 1 << ab
            out.append(bits)
        return tuple(out)

    return cached_on(ring, "principal_bits", compute)


def _span_bits(ring: FiniteRing, b1: int, b2: int) -> int:
    """Additive span of the union of two additive subgroups.

    ``I + K`` is the union of the cosets ``I + b`` for ``b`` in ``K``, where
    ``I`` is the larger subgroup.  A ``b`` already reached lies in a coset
    taken before, so each coset is taken once: ``|I + K|`` lookups in all.
    """
    if b2 & ~b1 == 0:
        return b1
    if b1 & ~b2 == 0:
        return b2
    if b1.bit_count() < b2.bit_count():
        b1, b2 = b2, b1
    add = ring.add
    base = bit_members(b1)
    out = b1
    rest = b2 & ~b1
    while rest:
        row = add[(rest & -rest).bit_length() - 1]
        for a in base:
            out |= 1 << row[a]
        rest &= ~out
    return out


def _additive_closure_bits(ring: FiniteRing, bits: int) -> int:
    """Additive span of an arbitrary subset (worklist closure)."""
    add = ring.add
    bits |= 1 << ring.zero
    members = bit_members(bits)
    queue = list(members)
    while queue:
        a = queue.pop()
        row = add[a]
        for b in list(members):
            c = row[b]
            if not (bits >> c) & 1:
                bits |= 1 << c
                members.append(c)
                queue.append(c)
    return bits


def _is_right_ideal_bits(ring: FiniteRing, bits: int) -> bool:
    if not (bits >> ring.zero) & 1:
        return False
    pb = _principal_bits(ring)
    members = bit_members(bits)
    for a in members:
        row_add = ring.add[a]
        for b in members:
            if not (bits >> row_add[b]) & 1:
                return False
        if pb[a] & ~bits:
            return False
    return True


def _require_right_ideal(ring: FiniteRing, subset: ElementSet) -> int:
    if subset.size != ring.order:
        raise IdealError(
            f"subset of size universe {subset.size} does not match ring order {ring.order}"
        )
    if not _is_right_ideal_bits(ring, subset.bits):
        raise IdealError(
            f"subset {list(subset.indices())} is not a right ideal of {ring.name}"
        )
    return subset.bits


# --------------------------------------------------------------------------
# membership predicates


def is_right_ideal(ring: FiniteRing, subset: ElementSet) -> bool:
    return subset.size == ring.order and _is_right_ideal_bits(ring, subset.bits)


def is_two_sided_ideal(ring: FiniteRing, subset: ElementSet) -> bool:
    return is_right_ideal(ring, subset) and _is_left_closed_bits(ring, subset.bits)


def _is_left_closed_bits(ring: FiniteRing, bits: int) -> bool:
    """Whether a right ideal is closed under left multiplication.

    ``(g + h) x = g x + h x`` and the ideal is additively closed, so it is
    enough to multiply by the additive generators of the ring.
    """
    gens = _subgroup_generators(ring, (1 << ring.order) - 1)
    members = bit_members(bits)
    for g in gens:
        row = ring.mul[g]
        for x in members:
            if not (bits >> row[x]) & 1:
                return False
    return True


# --------------------------------------------------------------------------
# generation


def principal_right_ideal(ring: FiniteRing, a: int) -> ElementSet:
    if not 0 <= a < ring.order:
        raise ValueError(f"element {a} out of range")
    return ElementSet(_principal_bits(ring)[a], ring.order)


def right_ideal_closure(ring: FiniteRing, generators) -> ElementSet:
    bits = 1 << ring.zero
    pb = _principal_bits(ring)
    for g in generators:
        if not 0 <= g < ring.order:
            raise ValueError(f"generator {g} out of range")
        bits = _span_bits(ring, bits, pb[g])
    return ElementSet(bits, ring.order)


def two_sided_closure(ring: FiniteRing, generators) -> ElementSet:
    bits = 1 << ring.zero
    for g in generators:
        if not 0 <= g < ring.order:
            raise ValueError(f"generator {g} out of range")
        for r in range(ring.order):
            rg = ring.mul[r][g]
            for s in ring.mul[rg]:
                bits |= 1 << s
    return ElementSet(_additive_closure_bits(ring, bits), ring.order)


def ideal_sum(ring: FiniteRing, left: ElementSet, right: ElementSet) -> ElementSet:
    b1 = _require_right_ideal(ring, left)
    b2 = _require_right_ideal(ring, right)
    return ElementSet(_span_bits(ring, b1, b2), ring.order)


# --------------------------------------------------------------------------
# lattice enumeration


def _join_irreducible_principals(ring: FiniteRing) -> list[int]:
    """The principal right ideals ``aR`` that are not the join of the
    principal right ideals strictly inside them.

    Those are the ``xR`` with ``x`` in ``aR`` and ``xR != aR``.  Every
    principal right ideal is a join of these, so they generate the lattice.
    """
    pb = _principal_bits(ring)
    zero_bit = 1 << ring.zero
    seeds = []
    for p in sorted(set(pb)):
        join = zero_bit
        for x in bit_members(p):
            q = pb[x]
            if q != p and q & ~join:
                join = _span_bits(ring, join, q)
                if join == p:
                    break
        if join != p:
            seeds.append(p)
    return seeds


def _enumerate_right_ideals(ring: FiniteRing, limit: int) -> tuple[ElementSet, ...]:
    """Close ``{0}`` and the join-irreducible principal right ideals under
    joins with the latter."""
    seeds = _join_irreducible_principals(ring)
    found = {1 << ring.zero, *seeds}
    if len(found) > limit:
        raise LatticeLimitError(
            f"{ring.name} has more than {limit} right ideals"
        )
    queue = list(seeds)
    while queue:
        current = queue.pop()
        for seed in seeds:
            if seed & ~current == 0:
                continue
            span = _span_bits(ring, current, seed)
            if span not in found:
                found.add(span)
                if len(found) > limit:
                    raise LatticeLimitError(
                        f"{ring.name} has more than {limit} right ideals"
                    )
                queue.append(span)
    ideals = [ElementSet(bits, ring.order) for bits in found]
    return tuple(sorted(ideals, key=ElementSet.sort_key))


def all_right_ideals(ring: FiniteRing, limit: int | None = None) -> tuple[ElementSet, ...]:
    """Every right ideal, sorted by size then membership.

    With ``limit=None`` the default cap applies and the result is cached on
    the ring; an explicit limit always recomputes.
    """
    if limit is None:
        return cached_on(
            ring,
            "right_ideal_lattice",
            lambda: _enumerate_right_ideals(ring, DEFAULT_LATTICE_LIMIT),
        )
    return _enumerate_right_ideals(ring, limit)


def two_sided_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    def compute():
        return tuple(
            ideal
            for ideal in all_right_ideals(ring)
            if _is_left_closed_bits(ring, ideal.bits)
        )

    return cached_on(ring, "two_sided_ideals", compute)


def maximal_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    def compute():
        full = (1 << ring.order) - 1
        proper = [i for i in all_right_ideals(ring) if i.bits != full]
        out = [
            i
            for i in proper
            if not any(
                other.bits != i.bits and i.bits & ~other.bits == 0 for other in proper
            )
        ]
        return tuple(sorted(out, key=ElementSet.sort_key))

    return cached_on(ring, "maximal_right_ideals", compute)


def minimal_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    def compute():
        zero_bit = 1 << ring.zero
        nonzero = [i for i in all_right_ideals(ring) if i.bits != zero_bit]
        out = [
            i
            for i in nonzero
            if not any(
                other.bits != i.bits and other.bits & ~i.bits == 0 for other in nonzero
            )
        ]
        return tuple(sorted(out, key=ElementSet.sort_key))

    return cached_on(ring, "minimal_right_ideals", compute)


def socle(ring: FiniteRing) -> ElementSet:
    """Sum of the minimal right ideals (zero when there are none)."""

    def compute():
        bits = 1 << ring.zero
        for ideal in minimal_right_ideals(ring):
            bits = _span_bits(ring, bits, ideal.bits)
        return ElementSet(bits, ring.order)

    return cached_on(ring, "socle", compute)


# --------------------------------------------------------------------------
# structural predicates


def is_essential(ring: FiniteRing, subset: ElementSet) -> bool:
    """True iff the right ideal meets every nonzero right ideal nontrivially."""
    return _is_essential_bits(ring, _require_right_ideal(ring, subset))


def _is_essential_bits(ring: FiniteRing, bits: int) -> bool:
    """:func:`is_essential` on a mask already known to be a right ideal."""
    zero_bit = 1 << ring.zero
    pb = _principal_bits(ring)
    for a in range(ring.order):
        if a == ring.zero:
            continue
        if pb[a] & bits == zero_bit:
            return False
    return True


def _essential_maximals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    def compute():
        return tuple(
            m for m in maximal_right_ideals(ring) if _is_essential_bits(ring, m.bits)
        )

    return cached_on(ring, "essential_maximals", compute)


def _sum_is_full(ring: FiniteRing, ideal_bits: int, other_bits: int) -> bool:
    """Whether ``I + K = R``, via: 1 = u + k for some u in I, k in K."""
    one = ring.one
    sub_row = ring.add[one]
    neg = ring._neg_table()
    for u in bit_members(ideal_bits):
        if (other_bits >> sub_row[neg[u]]) & 1:
            return True
    return False


def is_delta_small(ring: FiniteRing, subset: ElementSet) -> bool:
    """Smallness relative to essential ideals: ``I`` is small iff ``I + K = R``
    forces ``K = R`` whenever ``K`` is an essential right ideal.

    It suffices to test the essential maximal right ideals: any proper
    essential ``K`` with ``I + K = R`` sits inside an essential maximal one
    with the same property.
    """
    return _is_delta_small_bits(ring, _require_right_ideal(ring, subset))


def _is_delta_small_bits(ring: FiniteRing, bits: int) -> bool:
    """:func:`is_delta_small` on a mask already known to be a right ideal."""
    return not any(_sum_is_full(ring, bits, m.bits) for m in _essential_maximals(ring))


def is_direct_summand(ring: FiniteRing, subset: ElementSet) -> int | None:
    """Least idempotent ``e`` with ``e R`` equal to the ideal, else ``None``."""
    return _summand_witness(ring, _require_right_ideal(ring, subset))


def _summand_witness(ring: FiniteRing, bits: int) -> int | None:
    """:func:`is_direct_summand` on a mask already known to be a right ideal."""
    memo = cached_on(ring, "summand_witness", dict)
    if bits not in memo:
        pb = _principal_bits(ring)
        _, idempotents, _ = element_sets(ring)
        memo[bits] = next((e for e in idempotents.indices() if pb[e] == bits), None)
    return memo[bits]


def ideal_core(ring: FiniteRing, subset: ElementSet) -> ElementSet:
    """The largest two-sided ideal contained in the given right ideal."""
    bits = _require_right_ideal(ring, subset)
    return ElementSet(_ideal_core_bits(ring, bits), ring.order)


def _ideal_core_bits(ring: FiniteRing, bits: int) -> int:
    """:func:`ideal_core` on a mask already known to be a right ideal."""
    pb = _principal_bits(ring)
    out = 0
    for x in bit_members(bits):
        if all(pb[ring.mul[r][x]] & ~bits == 0 for r in range(ring.order)):
            out |= 1 << x
    return out
