"""Element and ring properties with re-checkable certificates.

Every element-level decision returns either ``None`` (the element fails the
property) or a :class:`Certificate` whose witnesses can be re-verified from
scratch by :func:`recheck_certificate`.  Ring-level decisions return a
``(holds, witness)`` pair where the witness, when present, is the least
element (or idempotent) exhibiting the failure.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat

from ringlab.core import (
    ComputationFault,
    ElementSet,
    FiniteRing,
    _check_element,
    bit_members,
    build_quotient,
    element_sets,
    flags_from_mask,
    mask_from_flags,
    memo,
)
from ringlab.ideals import (
    _one_plus_bits,
    _principal_bits,
    _principal_classes,
    _summand_witnesses,
    _translate_bits,
    maximal_right_ideals,
    socle,
)
from ringlab.radicals import (
    center_bits,
    commutant_bits,
    delta_mask,
    jacobson,
    qnil_set,
)


class PropertyName(str, Enum):
    """All decidable properties; enumeration order is the reporting order."""

    QUASIPOLAR = "quasipolar"
    NIL_QUASIPOLAR = "nil-quasipolar"
    J_QUASIPOLAR = "j-quasipolar"
    DELTA_QUASIPOLAR = "delta-quasipolar"
    WEAKLY_DELTA_QUASIPOLAR = "weakly-delta-quasipolar"
    CLEAN = "clean"
    STRONGLY_CLEAN = "strongly-clean"
    J_CLEAN = "j-clean"
    STRONGLY_J_CLEAN = "strongly-j-clean"
    UNIQUELY_CLEAN = "uniquely-clean"
    DELTA_R_CLEAN = "delta-r-clean"
    STRONGLY_DELTA_R_CLEAN = "strongly-delta-r-clean"
    UNIQUELY_DELTA_R_CLEAN = "uniquely-delta-r-clean"
    BOOLEAN = "boolean"
    ABELIAN = "abelian"
    LOCAL = "local"
    SEMISIMPLE = "semisimple"
    VON_NEUMANN_REGULAR = "von-neumann-regular"
    STRONGLY_REGULAR = "strongly-regular"
    STRONGLY_PI_REGULAR = "strongly-pi-regular"
    EXCHANGE = "exchange"
    RIGHT_PP = "right-pp"

    @classmethod
    def ring_only(cls) -> frozenset["PropertyName"]:
        return frozenset(_RING_ONLY)


def _coerce(prop) -> PropertyName:
    if isinstance(prop, PropertyName):
        return prop
    try:
        return PropertyName(prop)
    except ValueError:
        raise ValueError(f"unknown property name: {prop!r}") from None


@dataclass(frozen=True)
class Certificate:
    """A positive decision together with the data that justifies it."""

    property: PropertyName
    element: int
    witnesses: tuple[tuple[str, int], ...]
    checks: tuple[tuple[str, bool], ...]
    witness_count: int | None = None


# --------------------------------------------------------------------------
# commutants


def commutant(ring: FiniteRing, a: int) -> ElementSet:
    _check_element(ring, a)
    return ElementSet(commutant_bits(ring, a), ring.order)


def double_commutant(ring: FiniteRing, a: int) -> ElementSet:
    """comm2(a), the x with comm(a) inside comm(x): the union of the
    commutant classes whose commutant holds comm(a)."""
    _check_element(ring, a)
    comm, bits = commutant_bits(ring, a), 0
    for above, members in _commutant_classes(ring).items():
        if not comm & ~above:
            bits |= members
    return ElementSet(bits, ring.order)


def center(ring: FiniteRing) -> ElementSet:
    return ElementSet(center_bits(ring), ring.order)


# --------------------------------------------------------------------------
# idempotent companions
#
# Every quasipolar and clean property asks for an idempotent p in a
# centraliser of a (all of R, comm(a) or comm2(a)) with a + p (sign +1) or
# a - p (sign -1) in a target set.  p lies in comm2(a) exactly when comm(a)
# lies inside comm(p), the one relation every comm2 test reads.  "Strongly"
# needs no commutation test of its own: for u = a - e, eu = ue exactly when
# ea = ae.  The search runs one idempotent at a time: every decision reads
# the masks A_p of the elements that have p as companion.

_TARGETS = {
    "units": lambda ring: element_sets(ring)[0],
    "nil": lambda ring: element_sets(ring)[2],
    "j": jacobson,
    "delta": delta_mask,
}

# how a certificate check names each centraliser and target of a spec
_PHRASES = {
    "comm": "commutes with the element",
    "dcomm": "double-commutes with the element",
    "units": "is a unit",
    "nil": "is nilpotent",
    "j": "lies in the Jacobson radical",
    "delta": "lies in delta",
}

# the witness name of a - e in a clean decomposition a = e + (a - e)
_DIFFERENCE = {"units": "u", "j": "w", "delta": "w"}

_COMPANION_SPECS = {
    PropertyName.QUASIPOLAR: ("dcomm", +1, "units"),
    PropertyName.NIL_QUASIPOLAR: ("dcomm", +1, "nil"),
    PropertyName.J_QUASIPOLAR: ("dcomm", +1, "j"),
    PropertyName.DELTA_QUASIPOLAR: ("dcomm", +1, "delta"),
    PropertyName.WEAKLY_DELTA_QUASIPOLAR: ("comm", +1, "delta"),
    PropertyName.CLEAN: ("all", -1, "units"),
    PropertyName.STRONGLY_CLEAN: ("comm", -1, "units"),
    PropertyName.UNIQUELY_CLEAN: ("all", -1, "units"),
    PropertyName.J_CLEAN: ("all", -1, "j"),
    PropertyName.STRONGLY_J_CLEAN: ("comm", -1, "j"),
    PropertyName.DELTA_R_CLEAN: ("all", -1, "delta"),
    PropertyName.STRONGLY_DELTA_R_CLEAN: ("comm", -1, "delta"),
    PropertyName.UNIQUELY_DELTA_R_CLEAN: ("all", -1, "delta"),
}

_UNIQUE = frozenset({PropertyName.UNIQUELY_CLEAN, PropertyName.UNIQUELY_DELTA_R_CLEAN})


@memo
def _shifted_preimages(ring: FiniteRing, sign: int, target: str) -> tuple[int, ...]:
    """For each idempotent p in ascending order, the a with a + p (sign +1)
    or a - p (sign -1) in the target.

    a + q lies in the target T exactly when a lies in T - q, so each mask is
    the translate of T by -q, and T is read once for all the idempotents.
    The properties that share a shift share these masks.
    """
    neg, goal = ring._neg_table(), _TARGETS[target](ring).bits
    shifts = (neg[p] if sign > 0 else p for p in element_sets(ring)[1].indices())
    return _translate_bits(ring, goal, shifts)


@memo
def _commutant_classes(ring: FiniteRing) -> dict[int, int]:
    """Each distinct commutant mapped to the mask of the ``a`` that have it;
    cached.  The masks partition R."""
    classes: dict[int, int] = {}
    for a in range(ring.order):
        bits = commutant_bits(ring, a)
        classes[bits] = classes.get(bits, 0) | 1 << a
    return classes


@memo
def _double_commuters(ring: FiniteRing, p: int) -> int:
    """The a with p in comm2(a), that is with comm(a) inside comm(p): the
    union of the commutant classes whose commutant lies inside comm(p)."""
    outside = ~commutant_bits(ring, p)
    kept = 0
    for comm, members in _commutant_classes(ring).items():
        if not comm & outside:
            kept |= members
    return kept


@memo
def _companion_masks(ring: FiniteRing, prop: PropertyName) -> tuple[int, ...]:
    """A_p for each idempotent p in ascending order: the elements that have
    p as their companion for ``prop``."""
    centraliser, sign, target = _COMPANION_SPECS[prop]
    masks = _shifted_preimages(ring, sign, target)
    if centraliser == "all":
        return masks
    centre, mul = center_bits(ring), ring.mul
    out = []
    for p, mask in zip(element_sets(ring)[1].indices(), masks):
        if prop is PropertyName.QUASIPOLAR:
            # ap quasinilpotent, tested on the a with a + p a unit only
            qnil = qnil_set(ring).bits
            mask = sum(1 << a for a in bit_members(mask) if (qnil >> mul[a][p]) & 1)
        # a central p lies in every centraliser; commuting is symmetric, and
        # p in comm2(a) makes p commute with a
        if not (centre >> p) & 1:
            mask &= commutant_bits(ring, p)
            if centraliser == "dcomm":
                mask &= _double_commuters(ring, p)
        out.append(mask)
    return tuple(out)


def _companions_of(ring: FiniteRing, prop: PropertyName, a: int) -> Iterator[int]:
    """The companions of ``a`` for ``prop`` in ascending order: the
    idempotents p whose A_p holds ``a``, yielded as they are found."""
    masks = _companion_masks(ring, prop)
    return (p for p, mask in zip(element_sets(ring)[1].indices(), masks) if mask >> a & 1)


# --------------------------------------------------------------------------
# witness finders of other shapes: each returns the named witnesses of an
# element that its property's mask holds


def _find_von_neumann_regular(ring: FiniteRing, a: int) -> dict:
    return {"b": next(b for b, ab in enumerate(ring.mul[a]) if ring.mul[ab][a] == a)}


def _find_strongly_regular(ring: FiniteRing, a: int) -> dict:
    return {"b": ring.mul[ring.mul[a][a]].index(a)}


def _find_strongly_pi_regular(ring: FiniteRing, a: int) -> dict | None:
    """The least n with a^n = a^(n+1)x and its least x, or ``None``: the one
    finder that decides, as the ``else`` branch of ``_property_mask``."""
    mul = ring.mul
    pb = _principal_bits(ring)
    power = a
    for n in range(1, ring.order + 1):
        next_power = mul[power][a]
        if (pb[next_power] >> power) & 1:
            return {"n": n, "x": mul[next_power].index(power)}
        power = next_power
    return None


def _find_exchange(ring: FiniteRing, a: int) -> dict:
    found = _exchange_idempotents(ring)[a]
    # the least e; row.index gives the least r and s
    e, one = (found & -found).bit_length() - 1, ring.one
    s = ring.mul[ring.sub(one, a)].index(ring.sub(one, e))
    return {"e": e, "r": ring.mul[a].index(e), "s": s}


@memo
def _exchange_idempotents(ring: FiniteRing) -> tuple[int, ...]:
    """For each a, the idempotents e in aR with 1 - e in (1 - a)R, which
    make a an exchange element: idempotents & aR & (1 - (1 - a)R); cached.

    1 - X = 1 + X for a right ideal X, as X = -X, and each translate is
    built once per distinct principal mask.
    """
    pb = _principal_bits(ring)
    translates = {bits: _one_plus_bits(ring, bits) for bits in _principal_classes(ring)}
    idempotents = element_sets(ring)[1].bits
    one_minus = map(ring.add[ring.one].__getitem__, ring._neg_table())
    return tuple(idempotents & ar & translates[pb[b]] for ar, b in zip(pb, one_minus))


_FINDERS = {
    PropertyName.VON_NEUMANN_REGULAR: _find_von_neumann_regular,
    PropertyName.STRONGLY_REGULAR: _find_strongly_regular,
    PropertyName.STRONGLY_PI_REGULAR: _find_strongly_pi_regular,
    PropertyName.EXCHANGE: _find_exchange,
}


# --------------------------------------------------------------------------
# certificate checks


def _certificate_checks(
    ring: FiniteRing, prop: PropertyName, a: int, witnesses: dict
) -> tuple[tuple[str, bool], ...]:
    """Re-check named witnesses from scratch; a companion property's checks
    are read off its (centraliser, sign, target) spec.  p commutes with a
    when it lies in comm(a), and double-commutes with a when comm(a) lies
    inside comm(p): two commutants, and no comm2 set."""
    mul = ring.mul
    if prop in _COMPANION_SPECS:
        centraliser, sign, target = _COMPANION_SPECS[prop]
        goal, phrase = _TARGETS[target](ring), _PHRASES[target]
        idempotents = element_sets(ring)[1]
        if sign > 0:
            p, comm = witnesses["p"], commutant_bits(ring, a)
            commutes = 0 <= p < ring.order and (
                bool(comm >> p & 1) if centraliser == "comm" else not comm & ~commutant_bits(ring, p)
            )
            checks = [
                ("p is idempotent", p in idempotents),
                (f"p {_PHRASES[centraliser]}", commutes),
                (f"element plus p {phrase}", ring.add[a][p] in goal),
            ]
            if prop is PropertyName.QUASIPOLAR:
                checks.append(
                    ("element times p is quasinilpotent", mul[a][p] in qnil_set(ring))
                )
            return tuple(checks)
        x = _DIFFERENCE[target]
        e, w = witnesses["e"], witnesses[x]
        checks = [
            ("e is idempotent", e in idempotents),
            (f"{x} {phrase}", w in goal),
            (f"e + {x} equals the element", ring.add[e][w] == a),
        ]
        if centraliser == "comm":
            checks.append((f"e and {x} commute", mul[e][w] == mul[w][e]))
        if prop in _UNIQUE:
            count = sum(ring.sub(a, f) in goal for f in idempotents.indices())
            checks.append(("the decomposition is unique", count == 1))
        return tuple(checks)
    if prop is PropertyName.VON_NEUMANN_REGULAR:
        return (("a b a equals a", mul[mul[a][witnesses["b"]]][a] == a),)
    if prop is PropertyName.STRONGLY_REGULAR:
        return (("a a b equals a", mul[mul[a][a]][witnesses["b"]] == a),)
    if prop is PropertyName.STRONGLY_PI_REGULAR:
        n, x = witnesses["n"], witnesses["x"]
        checks = [("the exponent is at least 1", n >= 1)]
        if n >= 1:
            power = a
            for _ in range(n - 1):
                power = mul[power][a]
            checks.append(("a^n equals a^(n+1) x", mul[mul[power][a]][x] == power))
        return tuple(checks)
    if prop is PropertyName.EXCHANGE:
        e, r, s = witnesses["e"], witnesses["r"], witnesses["s"]
        one = ring.one
        return (
            ("e is idempotent", e in element_sets(ring)[1]),
            ("a r equals e", mul[a][r] == e),
            ("(1 - a) s equals 1 - e", mul[ring.sub(one, a)][s] == ring.sub(one, e)),
        )
    raise ValueError(f"property {prop.value} has no element certificates")


# --------------------------------------------------------------------------
# element-level decisions


def element_property(ring: FiniteRing, a: int, prop) -> Certificate | None:
    prop = _coerce(prop)
    if prop in PropertyName.ring_only():
        raise ValueError(f"property {prop.value} is decided for rings, not elements")
    _check_element(ring, a)
    return _certificate(ring, a, prop)


@memo
def _certificate(ring: FiniteRing, a: int, prop: PropertyName) -> Certificate | None:
    """Membership is read off the mask ``ring_property`` reads; a member's
    witnesses come from its least companion (a uniquely-* member has one)
    or from its property's finder."""
    if a not in _property_mask(ring, prop):
        return None
    if prop in _COMPANION_SPECS:
        _, sign, target = _COMPANION_SPECS[prop]
        p = next(_companions_of(ring, prop, a))
        witnesses = {"p": p} if sign > 0 else {"e": p, _DIFFERENCE[target]: ring.sub(a, p)}
    else:
        witnesses = _FINDERS[prop](ring, a)
    return Certificate(
        property=prop,
        element=a,
        witnesses=tuple(sorted(witnesses.items())),
        checks=_certificate_checks(ring, prop, a, witnesses),
        witness_count=1 if prop in _UNIQUE else None,
    )


def recheck_certificate(ring: FiniteRing, certificate: Certificate) -> bool:
    """Re-verify a certificate from its raw witnesses; forged data fails."""
    prop = certificate.property
    if prop in PropertyName.ring_only():
        return False
    a = certificate.element
    if not 0 <= a < ring.order:
        return False
    witnesses = dict(certificate.witnesses)
    try:
        checks = _certificate_checks(ring, prop, a, witnesses)
    except (KeyError, IndexError, TypeError, ValueError):
        return False
    if not all(ok for _, ok in checks):
        return False
    # the checks above confirm that the decomposition is unique
    if certificate.witness_count is not None and prop in _UNIQUE:
        return certificate.witness_count == 1
    return True


def property_mask(ring: FiniteRing, prop) -> ElementSet:
    prop = _coerce(prop)
    if prop in PropertyName.ring_only():
        raise ValueError(f"property {prop.value} has no element mask")
    return _property_mask(ring, prop)


@memo
def _property_mask(ring: FiniteRing, prop: PropertyName) -> ElementSet:
    n = ring.order
    if prop in _COMPANION_SPECS:
        # the elements with at least one companion, and with two or more
        once = twice = 0
        for mask in _companion_masks(ring, prop):
            twice |= once & mask
            once |= mask
        return ElementSet(once & ~twice if prop in _UNIQUE else once, n)
    if prop is PropertyName.VON_NEUMANN_REGULAR:
        # a = a b a for some b exactly when aR = eR for an idempotent e
        # (e = a b; conversely e = a r and a = e a give a = a r a)
        found = map(_summand_witnesses(ring).__contains__, _principal_bits(ring))
    elif prop is PropertyName.STRONGLY_REGULAR:
        # a = a a b for some b exactly when a lies in (a a)R
        pb = _principal_bits(ring)
        found = ((pb[ring.mul[a][a]] >> a) & 1 for a in range(n))
    elif prop is PropertyName.EXCHANGE:
        found = map(bool, _exchange_idempotents(ring))
    else:
        found = (_FINDERS[prop](ring, a) is not None for a in range(n))
    return ElementSet(mask_from_flags(bytes(found)), n)


# --------------------------------------------------------------------------
# ring-level decisions


def _holds_unless(outside: int) -> tuple[bool, int | None]:
    """``(True, None)`` for an empty mask of failures, else ``(False, least)``."""
    if outside:
        return False, (outside & -outside).bit_length() - 1
    return True, None


def _ring_boolean(ring: FiniteRing) -> tuple[bool, int | None]:
    return _holds_unless(element_sets(ring)[1].complement().bits)


def _ring_abelian(ring: FiniteRing) -> tuple[bool, int | None]:
    return _holds_unless(element_sets(ring)[1].bits & ~center_bits(ring))


def _ring_local(ring: FiniteRing) -> tuple[bool, int | None]:
    route_a = len(maximal_right_ideals(ring)) == 1
    units = element_sets(ring)[0]
    route_b = units.complement().bits == jacobson(ring).bits
    if route_a != route_b:
        raise ComputationFault(f"local cross-check mismatch on {ring.name}")
    return route_a, None


def _ring_semisimple(ring: FiniteRing) -> tuple[bool, int | None]:
    radical_trivial = jacobson(ring).bits == 1 << ring.zero
    socle_full = socle(ring).bits == (1 << ring.order) - 1
    if radical_trivial != socle_full:
        raise ComputationFault(f"semisimple cross-check mismatch on {ring.name}")
    return radical_trivial, None


def _ring_right_pp(ring: FiniteRing) -> tuple[bool, int | None]:
    """Decide "every aR is eR for an idempotent e", i.e. every aR is a direct summand.

    This is stronger than the usual right-pp condition "r(a) = eR for an
    idempotent e".  T2(Z2) separates them: r(a) = eR holds for every a, yet
    the witness a = 2 has aR not a direct summand.  Which reading the paper
    intends needs its full text, so the stronger one is kept as registered.

    a is von Neumann regular exactly when aR is a direct summand, so this is
    regularity of the ring, with the same least witness.
    """
    return ring_property(ring, PropertyName.VON_NEUMANN_REGULAR)


_RING_ONLY = {
    PropertyName.BOOLEAN: _ring_boolean,
    PropertyName.ABELIAN: _ring_abelian,
    PropertyName.LOCAL: _ring_local,
    PropertyName.SEMISIMPLE: _ring_semisimple,
    PropertyName.RIGHT_PP: _ring_right_pp,
}


def ring_property(ring: FiniteRing, prop) -> tuple[bool, int | None]:
    """Decide a property for the whole ring.

    Element-level properties hold for the ring when they hold for every
    element; the witness of a failure is the least element outside the
    property's mask, so no certificate is built.
    """
    return _ring_property(ring, _coerce(prop))


@memo
def _ring_property(ring: FiniteRing, prop: PropertyName) -> tuple[bool, int | None]:
    if prop in _RING_ONLY:
        return _RING_ONLY[prop](ring)
    return _holds_unless(_property_mask(ring, prop).complement().bits)


# --------------------------------------------------------------------------
# spectral candidates and idempotent lifting


# each companion property of sign +1 by its flavor: "delta" for delta-quasipolar
_SPECTRAL_FLAVORS = {
    prop.value.removesuffix("-quasipolar"): prop
    for prop, (_, sign, _) in _COMPANION_SPECS.items()
    if sign > 0
}


def spectral_candidates(ring: FiniteRing, a: int, flavor: str) -> tuple[int, ...]:
    """All idempotents usable as the companion of ``a`` for the given flavor."""
    if not isinstance(flavor, str) or flavor not in _SPECTRAL_FLAVORS:
        raise ValueError(f"unknown spectral flavor: {flavor!r}")
    _check_element(ring, a)
    return tuple(_companions_of(ring, _SPECTRAL_FLAVORS[flavor], a))


def _spectral_lists(ring: FiniteRing, prop: PropertyName) -> list[list[int]]:
    """Each element's companions for ``prop`` in ascending order, in fresh
    lists: p is appended to the list of every member of A_p."""
    lists = [[] for _ in range(ring.order)]
    for p, mask in zip(element_sets(ring)[1].indices(), _companion_masks(ring, prop)):
        # list.append(lst, p) for each selected list, all in C
        deque(map(list.append, compress(lists, flags_from_mask(mask)), repeat(p)), maxlen=0)
    return lists


def idempotents_lift(ring: FiniteRing, ideal: ElementSet) -> tuple[bool, int | None]:
    """Whether every idempotent of the quotient by ``ideal`` lifts to one of
    the ring; the witness is a non-lifting idempotent of the quotient."""
    quotient, proj = build_quotient(ring, ideal)
    ring_idempotents = element_sets(ring)[1].indices()
    lifted = {proj[e] for e in ring_idempotents}
    for q in element_sets(quotient)[1].indices():
        if q not in lifted:
            return False, q
    return True, None
