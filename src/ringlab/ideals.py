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
    flags_from_mask,
    mask_from_flags,
)

DEFAULT_LATTICE_LIMIT = 100000


# --------------------------------------------------------------------------
# bitmask plumbing


def _principal_bits(ring: FiniteRing) -> tuple[int, ...]:
    """``aR`` as a bitmask for every ``a``; cached."""

    def compute():
        everything = range(ring.order)
        return tuple(
            mask_from_flags(bytes(map(set(row).__contains__, everything)))
            for row in ring.mul
        )

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


def _maps_into(bits: int, rows) -> bool:
    """Whether each table row maps every member of the mask into the mask."""
    members = bit_members(bits)
    inside = set(members)
    return all(inside.issuperset(map(row.__getitem__, members)) for row in rows)


def _is_right_ideal_bits(ring: FiniteRing, bits: int) -> bool:
    """Whether the mask is a right ideal, tested on its greedy generators.

    The generators lie in the mask and generate a subgroup that contains it.
    A mask holding zero that each generator translates into itself contains
    that subgroup too, so it is the subgroup.  Then ``x r`` is a sum of the
    ``g r``, and right closure needs testing on the generators only.
    """
    if not (bits >> ring.zero) & 1:
        return False
    pb = _principal_bits(ring)
    gens = _subgroup_generators(ring, bits)
    return not any(pb[g] & ~bits for g in gens) and _maps_into(
        bits, (ring.add[g] for g in gens)
    )


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
    return _maps_into(bits, (ring.mul[g] for g in gens))


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
    """The two-sided ideal generated by ``generators``.

    It is the sum of the right ideals ``h g R`` over the generators g and
    the additive generators h of R: RgR is spanned by the products r g s,
    each r is a sum of h's, and (h + h')gR lies in hgR + h'gR.
    """
    bits = 1 << ring.zero
    pb = _principal_bits(ring)
    gens = _subgroup_generators(ring, (1 << ring.order) - 1)
    for g in generators:
        if not 0 <= g < ring.order:
            raise ValueError(f"generator {g} out of range")
        for h in gens:
            bits = _span_bits(ring, bits, pb[ring.mul[h][g]])
    return ElementSet(bits, ring.order)


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
    """The proper right ideals lying in no larger proper one.

    Walking the lattice from the largest size down, an ideal inside a larger
    proper one lies inside a maximal one, which was met and kept before it.
    """

    def compute():
        full = (1 << ring.order) - 1
        kept: list[ElementSet] = []
        for ideal in reversed(all_right_ideals(ring)):
            bits = ideal.bits
            if bits != full and not any(bits & ~m.bits == 0 for m in kept):
                kept.append(ideal)
        return tuple(reversed(kept))

    return cached_on(ring, "maximal_right_ideals", compute)


def minimal_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    """The nonzero right ideals containing no smaller nonzero one, found as
    in :func:`maximal_right_ideals` from the smallest size up."""

    def compute():
        zero_bit = 1 << ring.zero
        kept: list[ElementSet] = []
        for ideal in all_right_ideals(ring):
            bits = ideal.bits
            if bits != zero_bit and not any(m.bits & ~bits == 0 for m in kept):
                kept.append(ideal)
        return tuple(kept)

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


def _preimage_bits(ring: FiniteRing, bits: int, rows) -> int:
    """The ``x`` with ``row[x]`` in the mask for every given row, read in C."""
    inside = flags_from_mask(bits).ljust(ring.order, b"\0")
    out = (1 << ring.order) - 1
    for row in rows:
        out &= mask_from_flags(bytes(map(inside.__getitem__, row)))
    return out


def _one_plus_bits(ring: FiniteRing, bits: int) -> int:
    """The coset ``1 + K`` of an additive subgroup ``K``: the ``y`` with
    ``y - 1`` in ``K``.

    It decides sums: ``I + K = R`` exactly when 1 = u + k for some u in I
    and k in K, that is when I meets ``1 - K``, which is ``1 + K`` since
    ``K = -K``.  So ``I + K = R`` is ``I & _one_plus_bits(ring, K) != 0``.
    """
    return _preimage_bits(ring, bits, (ring.add[ring._neg_table()[ring.one]],))


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
    cosets = cached_on(
        ring,
        "essential_maximal_cosets",
        lambda: [_one_plus_bits(ring, m.bits) for m in _essential_maximals(ring)],
    )
    return not any(bits & coset for coset in cosets)


def is_direct_summand(ring: FiniteRing, subset: ElementSet) -> int | None:
    """Least idempotent ``e`` with ``e R`` equal to the ideal, else ``None``."""
    return _summand_witness(ring, _require_right_ideal(ring, subset))


def _summand_witness(ring: FiniteRing, bits: int) -> int | None:
    """:func:`is_direct_summand` on a mask already known to be a right ideal."""

    def compute():
        pb = _principal_bits(ring)
        # idempotents descending, so the least e with eR = I is written last
        return {pb[e]: e for e in reversed(element_sets(ring)[1].indices())}

    return cached_on(ring, "summand_witnesses", compute).get(bits)


def ideal_core(ring: FiniteRing, subset: ElementSet) -> ElementSet:
    """The largest two-sided ideal contained in the given right ideal."""
    bits = _require_right_ideal(ring, subset)
    return ElementSet(_ideal_core_bits(ring, bits), ring.order)


def _ideal_core_bits(ring: FiniteRing, bits: int) -> int:
    """:func:`ideal_core` on a mask already known to be a right ideal.

    The core is the set of ``x`` in the ideal with ``r x`` in it for every
    ``r``.  Each ``r`` is a sum of the additive generators ``g`` of R, so
    ``r x`` is a sum of the ``g x``, and the ideal is additively closed:
    it is enough that every ``g x`` lies in the ideal.
    """
    gens = _subgroup_generators(ring, (1 << ring.order) - 1)
    return bits & _preimage_bits(ring, bits, (ring.mul[g] for g in gens))
