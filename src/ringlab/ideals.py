"""Right ideal lattices of finite rings and the predicates built on them.

Ideals are handled as bitmasks throughout; the public functions accept and
return :class:`~ringlab.core.ElementSet` values.  Enumeration of the full
right ideal lattice is capped (see :data:`DEFAULT_LATTICE_LIMIT`) so that a
pathological input fails fast instead of filling memory.
"""
from __future__ import annotations

from itertools import compress

from ringlab.core import (
    ElementSet,
    FiniteRing,
    IdealError,
    LatticeLimitError,
    _check_element,
    _is_subgroup,
    _picker,
    _subgroup_generators,
    bit_members,
    element_sets,
    flags_from_mask,
    mask_from_flags,
    memo,
    units_map,
)

DEFAULT_LATTICE_LIMIT = 100000
_SWAP_DIGITS = str.maketrans("01", "10")


# --------------------------------------------------------------------------
# bitmask plumbing


@memo
def _principal_bits(ring: FiniteRing) -> tuple[int, ...]:
    """``aR`` as a bitmask for every ``a``; cached.

    ``(au)R = aR`` for a unit ``u``, so one mask serves the orbit ``aU``,
    which is row ``a`` of ``mul`` read at the units.
    """
    orbit = _picker(units_map(ring))
    out = [None] * ring.order
    for a, row in enumerate(ring.mul):
        if out[a] is None:
            flags = bytearray(ring.order)
            for x in set(row):
                flags[x] = 1
            bits = mask_from_flags(flags)
            for b in orbit(row):
                out[b] = bits
    return tuple(out)


@memo
def _principal_classes(ring: FiniteRing) -> dict[int, int]:
    """Each distinct principal right ideal ``xR`` mapped to the mask of the
    ``x`` that generate it; cached.  The masks partition R.

    A property of ``x`` that depends on ``x`` only through ``xR`` is decided
    once per key, and the value of the key holds every ``x`` it settles.
    """
    classes: dict[int, int] = {}
    for x, p in enumerate(_principal_bits(ring)):
        classes[p] = classes.get(p, 0) | 1 << x
    return classes


def _coset_union(add, bits: int, members, other: int) -> int:
    """The span of the subgroups ``bits``, whose members are ``members``,
    and ``other``.

    ``I + K`` is the union of the cosets ``I + b`` for ``b`` in ``K``.  A
    ``b`` already reached lies in a coset taken before, so each coset is
    taken once: ``|I + K|`` lookups in all.
    """
    out = bits
    rest = other & ~bits
    while rest:
        row = add[(rest & -rest).bit_length() - 1]
        for a in members:
            out |= 1 << row[a]
        rest &= ~out
    return out


def _span_bits(ring: FiniteRing, b1: int, b2: int) -> int:
    """Additive span of the union of two additive subgroups, walked by the
    cosets of the larger one."""
    if b2 & ~b1 == 0:
        return b1
    if b1 & ~b2 == 0:
        return b2
    if b1.bit_count() < b2.bit_count():
        b1, b2 = b2, b1
    return _coset_union(ring.add, b1, bit_members(b1), b2)


def _is_right_ideal_bits(ring: FiniteRing, bits: int) -> bool:
    """Whether the mask is a right ideal: an additive subgroup whose greedy
    generators ``g`` each have ``g R`` inside it.  Then ``x r`` is a sum of
    the ``g r``, so right closure needs testing on the generators only.
    """
    if not _is_subgroup(ring, bits):
        return False
    pb = _principal_bits(ring)
    return not any(pb[g] & ~bits for g in _subgroup_generators(ring, bits))


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

    A right ideal ``I`` is the join of the seeds ``x_j R`` inside it, those
    with ``x_j`` in ``I``, so ``RI`` is the sum of the ``(R x_j) R``.  That
    lies in ``I`` when each ``R x_j`` does, and a two-sided ``I`` holds each
    ``R x_j``: one bit test per seed.
    """
    for mark, column in _seed_columns(ring):
        if bits & mark and column & ~bits:
            return False
    return True


@memo
def _seed_columns(ring: FiniteRing) -> tuple[tuple[int, int], ...]:
    """``(1 << x_j, G x_j)`` for the least generator ``x_j`` of each seed
    ``x_j R``, where ``G x_j`` holds the ``g x_j`` over the additive
    generators ``g`` of R; cached.

    ``r -> r x_j`` is additive, so the ``g x_j`` generate the column
    ``R x_j`` as a group, and an additive subgroup holds ``R x_j`` exactly
    when it holds ``G x_j``.
    """
    classes = _principal_classes(ring)
    rows = [ring.mul[g] for g in _subgroup_generators(ring, (1 << ring.order) - 1)]
    out = []
    for seed in _join_irreducible_principals(ring):
        x = (classes[seed] & -classes[seed]).bit_length() - 1
        column = 0
        for row in rows:
            column |= 1 << row[x]
        out.append((1 << x, column))
    return tuple(out)


# --------------------------------------------------------------------------
# generation


def principal_right_ideal(ring: FiniteRing, a: int) -> ElementSet:
    _check_element(ring, a)
    return ElementSet(_principal_bits(ring)[a], ring.order)


def right_ideal_closure(ring: FiniteRing, generators) -> ElementSet:
    bits = 1 << ring.zero
    pb = _principal_bits(ring)
    for g in generators:
        _check_element(ring, g, "generator")
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
        _check_element(ring, g, "generator")
        for h in gens:
            bits = _span_bits(ring, bits, pb[ring.mul[h][g]])
    return ElementSet(bits, ring.order)


def ideal_sum(ring: FiniteRing, left: ElementSet, right: ElementSet) -> ElementSet:
    b1 = _require_right_ideal(ring, left)
    b2 = _require_right_ideal(ring, right)
    return ElementSet(_span_bits(ring, b1, b2), ring.order)


# --------------------------------------------------------------------------
# lattice enumeration


@memo
def _join_irreducible_principals(ring: FiniteRing) -> list[int]:
    """The principal right ideals ``aR`` that are not the join of the
    principal right ideals strictly inside them.

    Let ``N`` be the members of ``aR`` that do not generate it.  ``xR``
    lies in ``N`` for each ``x`` in ``N``, so the join of the principal
    right ideals strictly inside ``aR`` is the additive span of ``N``, and
    every proper right ideal inside ``aR`` lies in ``N``.  So ``aR`` is a
    seed exactly when ``N`` is closed under addition, and then ``N`` is a
    proper subgroup, at most half of ``aR``.  Every principal right ideal
    is a join of seeds, so they generate the lattice.  Cached.
    """
    classes = _principal_classes(ring)
    zero_bit = 1 << ring.zero
    seeds = []
    for p in sorted(classes):
        below = p & ~classes[p]
        if p == zero_bit or below.bit_count() * 2 > p.bit_count():
            continue
        if _is_subgroup(ring, below):
            seeds.append(p)
    return seeds


@memo
def all_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    """Every right ideal, sorted by size then membership; cached.

    Every right ideal is the join of the join-irreducible principal right
    ideals ``s_j`` inside it, and the lattice is listed by Close-by-One.
    ``s_j`` is ``x_j R`` for its least generator ``x_j``, so a right ideal
    holds ``s_j`` exactly when it holds ``x_j``.  An ideal ``I`` reached
    with first index ``k`` is joined with each ``s_j`` (``j >= k``, ``x_j``
    not in ``I``), and the join ``J`` is kept only when it gains no ``x_i``
    with ``i < j``.  So a nonzero ``J`` is kept once, as ``I`` joined with
    ``s_j`` for the least ``j`` such that the ``s_i`` in ``J`` with
    ``i <= j`` span ``J``, and ``I`` the span of those with ``i < j``.

    Joins that fail are handed down, as in Fast Close-by-One (Outrata &
    Vychodil, 2012): a join ``I' + s_j`` that failed at an ancestor lies
    inside ``I + s_j``, since ``I'`` lies in ``I``, so when it holds an
    ``x_i`` (``i < j``) that ``I`` lacks, ``I + s_j`` fails too and is not
    taken.  A node's failed joins, over those it inherited, go to all of its
    children in one dict, filled before the first child is popped.  More than :data:`DEFAULT_LATTICE_LIMIT` members,
    counting ``{0}``, raise :class:`LatticeLimitError`.
    """
    limit = DEFAULT_LATTICE_LIMIT
    seeds = _join_irreducible_principals(ring)
    add = ring.add
    # the bit of x_j, and the bits of x_0 .. x_(j-1)
    marks = [mark for mark, _ in _seed_columns(ring)]
    earlier = [sum(marks[:j]) for j in range(len(seeds))]
    seed_members = [bit_members(seed) for seed in seeds]
    zero_bit = 1 << ring.zero
    found = [zero_bit]
    stack = [(zero_bit, 0, {})]
    while stack:
        current, start, inherited = stack.pop()
        size = current.bit_count()
        members = None
        failed = dict(inherited)
        for j in range(start, len(seeds)):
            if current & marks[j] or inherited.get(j, 0) & earlier[j] & ~current:
                continue
            seed = seeds[j]
            if size >= len(seed_members[j]):
                if members is None:
                    members = bit_members(current)
                join = _coset_union(add, current, members, seed)
            else:
                join = _coset_union(add, seed, seed_members[j], current)
            if join & earlier[j] & ~current == 0:
                found.append(join)
                stack.append((join, j + 1, failed))
            else:
                failed[j] = join
        if len(found) > limit:
            raise LatticeLimitError(f"{ring.name} has more than {limit} right ideals")
    # as by ElementSet.sort_key, with no member lists: of two masks of one
    # size, the one holding the least member of their difference comes first.
    # Their digits from bit 0 up, with 0 and 1 swapped, first differ at that
    # member; neither digit string is a prefix of the other, since the longer
    # one would hold more members.
    found.sort(key=lambda b: (b.bit_count(), bin(b)[:1:-1].translate(_SWAP_DIGITS)))
    return tuple(ElementSet(bits, ring.order) for bits in found)


@memo
def two_sided_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    return tuple(
        ideal
        for ideal in all_right_ideals(ring)
        if _is_left_closed_bits(ring, ideal.bits)
    )


@memo
def maximal_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    """The proper right ideals lying in no larger proper one.

    Walking the lattice from the largest size down, an ideal inside a larger
    proper one lies inside a maximal one, which was met and kept before it.
    """
    full = (1 << ring.order) - 1
    kept: list[ElementSet] = []
    for ideal in reversed(all_right_ideals(ring)):
        bits = ideal.bits
        if bits != full and not any(bits & ~m.bits == 0 for m in kept):
            kept.append(ideal)
    return tuple(reversed(kept))


@memo
def minimal_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    """The nonzero right ideals containing no smaller nonzero one, found as
    in :func:`maximal_right_ideals` from the smallest size up."""
    zero_bit = 1 << ring.zero
    kept: list[ElementSet] = []
    for ideal in all_right_ideals(ring):
        bits = ideal.bits
        if bits != zero_bit and not any(m.bits & ~bits == 0 for m in kept):
            kept.append(ideal)
    return tuple(kept)


@memo
def socle(ring: FiniteRing) -> ElementSet:
    """Sum of the minimal right ideals (zero when there are none)."""
    bits = 1 << ring.zero
    for ideal in minimal_right_ideals(ring):
        bits = _span_bits(ring, bits, ideal.bits)
    return ElementSet(bits, ring.order)


# --------------------------------------------------------------------------
# structural predicates


def is_essential(ring: FiniteRing, subset: ElementSet) -> bool:
    """True iff the right ideal meets every nonzero right ideal nontrivially."""
    return _is_essential_bits(ring, _require_right_ideal(ring, subset))


def _is_essential_bits(ring: FiniteRing, bits: int) -> bool:
    """:func:`is_essential` on a mask already known to be a right ideal: it
    meets every ``aR`` with ``a != 0``, asked once per principal class."""
    zero_bit = 1 << ring.zero
    return all(
        xr & bits != zero_bit for xr in _principal_classes(ring) if xr != zero_bit
    )


@memo
def _essential_maximals(ring: FiniteRing) -> tuple[ElementSet, ...]:
    return tuple(
        m for m in maximal_right_ideals(ring) if _is_essential_bits(ring, m.bits)
    )


def _preimage_bits(ring: FiniteRing, bits: int, rows) -> int:
    """The ``x`` with ``row[x]`` in the mask for every given row, read in C."""
    inside = flags_from_mask(bits).ljust(ring.order, b"\0")
    out = (1 << ring.order) - 1
    for row in rows:
        out &= mask_from_flags(bytes(map(inside.__getitem__, row)))
    return out


def _translate_bits(ring: FiniteRing, bits: int, shifts) -> tuple[int, ...]:
    """The translates ``t + S`` of a mask ``S``, one per shift ``t``: row
    ``t`` of ``add`` read at the members.  Translation is a bijection, so
    ``t + ~S = ~(t + S)``, and the smaller of ``S`` and its complement is
    walked; its members or flags are read once for all the shifts."""
    flip = (1 << ring.order) - 1 if 2 * bits.bit_count() > ring.order else 0
    walked, add = bits ^ flip, ring.add
    # as in bit_members, a dense side is read through its flags in C
    if walked.bit_count() << 4 > walked.bit_length() + 64:
        inside, out = flags_from_mask(walked), []
        for t in shifts:
            flags = bytearray(ring.order)
            for y in compress(add[t], inside):
                flags[y] = 1
            out.append(mask_from_flags(flags) ^ flip)
        return tuple(out)
    members = bit_members(walked)
    return tuple(sum(1 << add[t][x] for x in members) ^ flip for t in shifts)


def _one_plus_bits(ring: FiniteRing, bits: int) -> int:
    """The translate ``1 + S`` of a mask ``S``.

    It decides sums: for an additive subgroup ``K``, ``I + K = R`` exactly
    when 1 = u + k for some u in I and k in K, that is when I meets
    ``1 - K``, which is the coset ``1 + K`` since ``K = -K``.  So ``I + K =
    R`` is ``I & _one_plus_bits(ring, K) != 0``.  Translation is a
    bijection, so ``1 + (K_1 | K_2 | ...)`` is the union of the cosets, and
    one AND with it asks whether ``I + K_j = R`` for some j.
    """
    return _translate_bits(ring, bits, (ring.one,))[0]


def is_delta_small(ring: FiniteRing, subset: ElementSet) -> bool:
    """Smallness relative to essential ideals: ``I`` is small iff ``I + K = R``
    forces ``K = R`` whenever ``K`` is an essential right ideal.

    It suffices to test the essential maximal right ideals: any proper
    essential ``K`` with ``I + K = R`` sits inside an essential maximal one
    with the same property.
    """
    return _is_delta_small_bits(ring, _require_right_ideal(ring, subset))


@memo
def _essential_maximal_cosets(ring: FiniteRing) -> int:
    """The union of the cosets ``1 + M`` of the essential maximal right
    ideals ``M``, as one mask; cached."""
    union = 0
    for m in _essential_maximals(ring):
        union |= m.bits
    return _one_plus_bits(ring, union)


def _is_delta_small_bits(ring: FiniteRing, bits: int) -> bool:
    """:func:`is_delta_small` on a mask already known to be a right ideal:
    one AND, since ``I + M = R`` for some ``M`` exactly when ``I`` meets
    the union of the cosets ``1 + M``."""
    return not bits & _essential_maximal_cosets(ring)


def is_direct_summand(ring: FiniteRing, subset: ElementSet) -> int | None:
    """Least idempotent ``e`` with ``e R`` equal to the ideal, else ``None``."""
    return _summand_witnesses(ring).get(_require_right_ideal(ring, subset))


@memo
def _summand_witnesses(ring: FiniteRing) -> dict[int, int]:
    """Each direct summand ``eR`` mapped to the least idempotent ``e``."""
    pb = _principal_bits(ring)
    # idempotents descending, so the least e with eR = I is written last
    return {pb[e]: e for e in reversed(element_sets(ring)[1].indices())}


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
