"""The claim registry and its mechanical re-verification over the catalog.

Each registered claim carries a checker that scans the catalog rings for
counterexamples.  Most claims look at one ring at a time: their checkers
decide one ring, and :func:`_per_ring` runs them over the catalog.  A claim
with witnesses is ``violated`` unless it is listed as disputed, in which
case the witnesses are the documented counterexamples and the status token
is ``disputed-paper-claim``.  Statements about infinite rings carry no
checker and are reported ``out-of-scope``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

from ringlab.catalog import CatalogEntry, build_entry, dorroh_base
from ringlab.core import (
    FiniteRing,
    build_corner,
    build_product,
    build_quotient,
    element_sets,
    is_zmod2,
    units_map,
)
from ringlab.ideals import _preimage_bits, socle, two_sided_ideals
from ringlab.radicals import DeltaDisagreement, delta, delta_mask, jacobson, qnil_set
from ringlab.properties import (
    PropertyName,
    _coerce,
    _companions_of,
    center,
    idempotents_lift,
    property_mask,
    ring_property,
)

STATUS_HOLDS = "holds-on-catalog"
STATUS_VIOLATED = "violated"
STATUS_DISPUTED = "disputed-paper-claim"
STATUS_OUT_OF_SCOPE = "out-of-scope"

# products of catalog pairs are checked up to this combined order
PRODUCT_PAIR_CAP = 128


@dataclass(frozen=True)
class SuiteContext:
    entries: tuple[CatalogEntry, ...]
    rings: dict

    def items(self):
        for entry in self.entries:
            yield entry.name, self.rings[entry.name]


Checker = Callable[[SuiteContext], list[dict]]


@dataclass(frozen=True)
class Claim:
    id: str
    summary: str
    check: Checker | None
    disputed: tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class TheoremResult:
    claim_id: str
    summary: str
    status: str
    witnesses: tuple[dict, ...]
    note: str


# --------------------------------------------------------------------------
# helpers


def _holds(ring: FiniteRing, prop) -> bool:
    """Whether the ring has ``prop``: a property name or a predicate on rings."""
    return prop(ring) if callable(prop) else ring_property(ring, prop)[0]


def _mask(ring: FiniteRing, prop: PropertyName) -> int:
    """The elements with ``prop``: every element or none for a ring-only one."""
    if prop in PropertyName.ring_only():
        return (1 << ring.order) - 1 if _holds(ring, prop) else 0
    return property_mask(ring, prop).bits


def _first_disagreement(
    ring: FiniteRing, hyp: int, concl: int, image: Sequence[int] | None = None,
    iff: bool = False,
) -> int | None:
    """The least ``a`` in the mask ``hyp`` whose image ``image[a]`` is not in
    the mask ``concl``; with ``iff``, the least ``a`` where the two differ."""
    if image is not None:
        concl = _preimage_bits(ring, concl, (image,))
    bad = hyp ^ concl if iff else hyp & ~concl
    return (bad & -bad).bit_length() - 1 if bad else None


def _witness(ring_name: str, element: int | None = None, detail: str = "") -> dict:
    out: dict = {"ring": ring_name, "element": element}
    if detail:
        out["detail"] = detail
    return out


def _per_ring(decide: Callable[[FiniteRing], tuple | None]) -> Checker:
    """The checker of a claim that looks at one ring at a time.

    ``decide(ring)`` is ``None`` when the ring agrees with the claim, and
    otherwise the ring's witness as ``(element, detail)``, with the defaults
    of :func:`_witness` for what it leaves out.
    """

    def check(ctx: SuiteContext) -> list[dict]:
        return [
            _witness(name, *found)
            for name, ring in ctx.items()
            if (found := decide(ring)) is not None
        ]

    return check


# --------------------------------------------------------------------------
# checkers


@_per_ring
def _check_five_characterizations(ring: FiniteRing) -> tuple | None:
    try:
        delta(ring)
    except DeltaDisagreement as err:
        return None, str(err)
    return None


@_per_ring
def _check_conjugation_invariance(ring: FiniteRing) -> tuple | None:
    mask = _mask(ring, PropertyName.DELTA_QUASIPOLAR)
    mul = ring.mul
    for u, u_inv in units_map(ring).items():
        conjugates = [mul[x][u] for x in mul[u_inv]]
        a = _first_disagreement(ring, mask, mask, conjugates, iff=True)
        if a is not None:
            return a, f"conjugating unit {u}"
    return None


@_per_ring
def _check_unit_spectral_identity(ring: FiniteRing) -> tuple | None:
    prop = PropertyName.DELTA_QUASIPOLAR
    if delta_mask(ring).bits != jacobson(ring).bits or not _holds(ring, prop):
        return None
    for u in units_map(ring):
        if tuple(islice(_companions_of(ring, prop, u), 2)) != (ring.one,):
            return (u,)
    return None


@_per_ring
def _check_two_in_delta(ring: FiniteRing) -> tuple | None:
    if _holds(ring, PropertyName.DELTA_QUASIPOLAR):
        two = ring.add[ring.one][ring.one]
        if two not in delta_mask(ring):
            return (two,)
    return None


def _implies(*hypotheses, conclusion: PropertyName) -> Checker:
    """Every ring with all ``hypotheses`` (property names or predicates on
    rings) has ``conclusion``; a failure is witnessed by the least element
    failing the conclusion."""

    def decide(ring: FiniteRing) -> tuple | None:
        if all(_holds(ring, h) for h in hypotheses):
            holds, witness = ring_property(ring, conclusion)
            if not holds:
                return (witness,)
        return None

    return _per_ring(decide)


def _elementwise(hyp: PropertyName, concl: PropertyName, image=None, iff=False) -> Checker:
    """Every element ``a`` with ``hyp`` has ``concl`` at ``image(ring)[a]``,
    where ``image`` maps a ring to a table of its elements (at ``a`` itself
    by default); with ``iff`` the two agree.  A failure is witnessed by the
    least element where they do not."""

    def decide(ring: FiniteRing) -> tuple | None:
        a = _first_disagreement(
            ring, _mask(ring, hyp), _mask(ring, concl), image and image(ring), iff
        )
        return None if a is None else (a,)

    return _per_ring(decide)


def _transfer(prop: PropertyName, images: Callable) -> Checker:
    """Every ring with ``prop`` passes it to each ``(image, what)`` that
    ``images(ring)`` yields; a failure is witnessed by the least element
    failing it in the first image that fails."""

    def decide(ring: FiniteRing) -> tuple | None:
        if _holds(ring, prop):
            for image, what in images(ring):
                holds, witness = ring_property(image, prop)
                if not holds:
                    return witness, f"{what} fails"
        return None

    return _per_ring(decide)


_ABELIAN_DELTA_QP = (PropertyName.ABELIAN, PropertyName.DELTA_QUASIPOLAR)


@_per_ring
def _check_quotient_boolean_lifting(ring: FiniteRing) -> tuple | None:
    if not _holds(ring, PropertyName.DELTA_QUASIPOLAR):
        return None
    ideal = delta_mask(ring)
    quotient, _ = build_quotient(ring, ideal)
    if not ring_property(quotient, PropertyName.BOOLEAN)[0]:
        return None, "quotient by delta is not boolean"
    lifts, bad = idempotents_lift(ring, ideal)
    return None if lifts else (bad, "idempotent does not lift along delta")


@_per_ring
def _check_delta_r_clean_equivalence(ring: FiniteRing) -> tuple | None:
    if _holds(ring, PropertyName.DELTA_QUASIPOLAR):
        holds, witness = ring_property(ring, PropertyName.DELTA_R_CLEAN)
        if not holds:
            return witness, "not delta-r-clean"
    if _holds(ring, PropertyName.ABELIAN) and _holds(ring, PropertyName.DELTA_R_CLEAN):
        holds, witness = ring_property(ring, PropertyName.DELTA_QUASIPOLAR)
        if not holds:
            return witness, "converse fails"
    return None


@_per_ring
def _check_boolean_regular_chain(ring: FiniteRing) -> tuple | None:
    zero_only = delta_mask(ring).bits == 1 << ring.zero
    if zero_only and _holds(ring, PropertyName.DELTA_QUASIPOLAR):
        holds, witness = ring_property(ring, PropertyName.BOOLEAN)
        if not holds:
            return witness, "trivial delta, not boolean"
    if _holds(ring, PropertyName.BOOLEAN):
        for conclusion in (PropertyName.VON_NEUMANN_REGULAR, PropertyName.DELTA_QUASIPOLAR):
            holds, witness = ring_property(ring, conclusion)
            if not holds:
                return witness, conclusion.value
    return None


@_per_ring
def _check_trivial_idempotents_dichotomy(ring: FiniteRing) -> tuple | None:
    if len(element_sets(ring)[1]) > 2:  # an idempotent besides 0 and 1
        return None
    left = _holds(ring, PropertyName.DELTA_QUASIPOLAR)
    # R/delta is Z2 exactly when it has two elements: 2|delta| = |R| (Lagrange)
    right = is_zmod2(ring) or 2 * len(delta_mask(ring)) == ring.order
    if left == right:
        return None
    return None, f"delta-quasipolar is {left} but the two-element test gives {right}"


@_per_ring
def _check_radical_chain(ring: FiniteRing) -> tuple | None:
    if not _holds(ring, PropertyName.DELTA_QUASIPOLAR):
        return None
    dm, jm = delta_mask(ring), jacobson(ring)
    if dm.bits != jm.bits:
        return None
    nil = element_sets(ring)[2]
    qnil = qnil_set(ring)
    if jm.bits == qnil.bits == nil.bits == dm.bits:
        return None
    return None, (
        f"J={list(jm.indices())}, qnil={list(qnil.indices())}, "
        f"nil={list(nil.indices())}, delta={list(dm.indices())}"
    )


@_per_ring
def _check_local_five_equivalences(ring: FiniteRing) -> tuple | None:
    if not _holds(ring, PropertyName.LOCAL) or jacobson(ring).bits == 1 << ring.zero:
        return None
    values = [
        _holds(ring, PropertyName.WEAKLY_DELTA_QUASIPOLAR),
        _holds(ring, PropertyName.STRONGLY_J_CLEAN),
        _holds(ring, PropertyName.UNIQUELY_CLEAN),
        2 * len(jacobson(ring)) == ring.order,  # R/J and R/delta are Z2 (Lagrange)
        2 * len(delta_mask(ring)) == ring.order,
    ]
    if len(set(values)) == 1:
        return None
    return None, f"equivalence chain breaks: {values}"


def _check_dorroh_transfer(ctx: SuiteContext) -> list[dict]:
    """Suite-level rather than per ring: it reads each entry's recipe."""
    out = []
    for entry in ctx.entries:
        if (base := dorroh_base(entry.recipe)) is None:
            continue
        extension = ctx.rings[entry.name]
        ext_delta_qp = _holds(extension, PropertyName.DELTA_QUASIPOLAR)
        base_delta_qp = _holds(base, PropertyName.DELTA_QUASIPOLAR)
        if ext_delta_qp and not base_delta_qp:
            out.append(_witness(entry.name, detail="base ring fails to inherit"))
            continue
        # P acts on itself, so e.v = v.e for every v makes each idempotent
        # central, and the module's delta is delta(P)
        idempotents_commute = _holds(base, PropertyName.ABELIAN)
        bim_full_delta = len(delta_mask(base)) == base.order
        if base_delta_qp and idempotents_commute and bim_full_delta and not ext_delta_qp:
            out.append(_witness(entry.name, detail="extension fails despite hypotheses"))
    return out


def _check_weakly_finite_products(ctx: SuiteContext) -> list[dict]:
    """Suite-level rather than per ring: it reads pairs of catalog rings."""
    out = []
    pairs = list(ctx.items())
    for i, (name_a, ring_a) in enumerate(pairs):
        for name_b, ring_b in pairs[i:]:
            if ring_a.order * ring_b.order > PRODUCT_PAIR_CAP:
                continue
            product = build_product([ring_a, ring_b])
            factors_weak = _holds(ring_a, PropertyName.WEAKLY_DELTA_QUASIPOLAR) and _holds(
                ring_b, PropertyName.WEAKLY_DELTA_QUASIPOLAR
            )
            product_weak = ring_property(
                product, PropertyName.WEAKLY_DELTA_QUASIPOLAR
            )[0]
            if factors_weak != product_weak:
                out.append(
                    _witness(
                        f"{name_a}x{name_b}",
                        detail=f"product weakly {product_weak}, factors weakly {factors_weak}",
                    )
                )
    return out


# --------------------------------------------------------------------------
# registry


def _out_of_scope(claim_id: str, summary: str, note: str) -> Claim:
    return Claim(id=claim_id, summary=summary, check=None, note=note)


def registry() -> list[Claim]:
    return [
        Claim(
            id="delta-five-characterizations",
            summary="The five characterizations of the delta ideal coincide.",
            check=_check_five_characterizations,
        ),
        Claim(
            id="semisimple-or-boolean-is-delta-quasipolar",
            summary="Semisimple rings and boolean rings are delta-quasipolar.",
            check=_implies(
                lambda ring: _holds(ring, PropertyName.SEMISIMPLE)
                or _holds(ring, PropertyName.BOOLEAN),
                conclusion=PropertyName.DELTA_QUASIPOLAR,
            ),
        ),
        Claim(
            id="j-quasipolar-implies-delta-quasipolar",
            summary="Every j-quasipolar element is delta-quasipolar.",
            check=_elementwise(PropertyName.J_QUASIPOLAR, PropertyName.DELTA_QUASIPOLAR),
        ),
        Claim(
            id="delta-quasipolar-with-socle-in-radical-is-j-quasipolar",
            summary=(
                "When the socle lies in the radical, delta-quasipolar rings "
                "are j-quasipolar."
            ),
            check=_implies(
                lambda ring: socle(ring).is_subset(jacobson(ring)),
                PropertyName.DELTA_QUASIPOLAR,
                conclusion=PropertyName.J_QUASIPOLAR,
            ),
        ),
        Claim(
            id="conjugation-preserves-delta-quasipolar",
            summary="Unit conjugation preserves delta-quasipolarity of elements.",
            check=_check_conjugation_invariance,
        ),
        Claim(
            id="minus-one-shift-preserves-delta-quasipolar",
            summary="An element a is delta-quasipolar iff -1-a is.",
            check=_elementwise(
                PropertyName.DELTA_QUASIPOLAR,
                PropertyName.DELTA_QUASIPOLAR,
                image=lambda ring: [ring.neg(x) for x in ring.add[ring.one]],  # -1 - a
                iff=True,
            ),
        ),
        Claim(
            id="unit-spectral-idempotent-is-identity",
            summary=(
                "In a delta-quasipolar ring with delta equal to the radical, "
                "the only spectral companion of a unit is 1."
            ),
            check=_check_unit_spectral_identity,
        ),
        Claim(
            id="delta-quasipolar-ring-has-two-in-delta",
            summary="In a delta-quasipolar ring the element 1+1 lies in delta.",
            check=_check_two_in_delta,
        ),
        Claim(
            id="local-quasipolar-implies-delta-quasipolar",
            summary="Local quasipolar rings are delta-quasipolar.",
            check=_implies(
                PropertyName.LOCAL,
                PropertyName.QUASIPOLAR,
                conclusion=PropertyName.DELTA_QUASIPOLAR,
            ),
            disputed=("Z9", "CT2(Z3)"),
            note=(
                "The argument needs every unit u to have u+1 inside delta, "
                "which a local ring does not guarantee: in Z9 the unit 1 has "
                "neither 1+0 nor 1+1 in delta = {0,3,6}, and the same failure "
                "occurs in CT2(Z3).  Local rings whose residue ring modulo the "
                "radical has two elements do satisfy the conclusion."
            ),
        ),
        Claim(
            id="delta-quasipolar-implies-right-pp",
            summary=(
                "Every principal right ideal of a delta-quasipolar ring is "
                "generated by an idempotent."
            ),
            check=_implies(PropertyName.DELTA_QUASIPOLAR, conclusion=PropertyName.RIGHT_PP),
            disputed=("Z4", "Z8", "T2(Z2)", "CT2(Z2)", "CT3(Z2)"),
            note=(
                "The argument treats delta-quasipolarity of -1-a as "
                "membership of -1-a in delta, which fails in general.  In Z4 "
                "the ideal 2R = {0,2} is not generated by any idempotent even "
                "though Z4 is delta-quasipolar."
            ),
        ),
        Claim(
            id="abelian-delta-quasipolar-implies-strongly-regular",
            summary="Abelian delta-quasipolar rings are strongly regular.",
            check=_implies(*_ABELIAN_DELTA_QP, conclusion=PropertyName.STRONGLY_REGULAR),
            disputed=("Z4", "Z8", "CT2(Z2)", "CT3(Z2)"),
            note=(
                "Depends on the principal-ideal claim above.  Z4 is abelian "
                "and delta-quasipolar, yet 2 is not a regular element: no b "
                "satisfies 4b = 2."
            ),
        ),
        Claim(
            id="abelian-delta-quasipolar-implies-quasipolar",
            summary="Abelian delta-quasipolar rings are quasipolar.",
            check=_implies(*_ABELIAN_DELTA_QP, conclusion=PropertyName.QUASIPOLAR),
        ),
        Claim(
            id="abelian-delta-quasipolar-implies-strongly-clean",
            summary="Abelian delta-quasipolar rings are strongly clean.",
            check=_implies(*_ABELIAN_DELTA_QP, conclusion=PropertyName.STRONGLY_CLEAN),
        ),
        Claim(
            id="delta-quasipolar-quotient-is-boolean-with-lifting",
            summary=(
                "For a delta-quasipolar ring, the quotient by delta is boolean "
                "and idempotents lift modulo delta."
            ),
            check=_check_quotient_boolean_lifting,
        ),
        Claim(
            id="delta-quasipolar-iff-delta-r-clean-for-abelian",
            summary=(
                "Delta-quasipolar rings are delta-r-clean; for abelian rings "
                "the two notions agree."
            ),
            check=_check_delta_r_clean_equivalence,
        ),
        Claim(
            id="delta-quasipolar-implies-exchange",
            summary="Delta-quasipolar rings are exchange rings.",
            check=_implies(PropertyName.DELTA_QUASIPOLAR, conclusion=PropertyName.EXCHANGE),
        ),
        Claim(
            id="boolean-regular-chain",
            summary=(
                "Delta-quasipolar rings with zero delta are boolean, and "
                "boolean rings are regular and delta-quasipolar."
            ),
            check=_check_boolean_regular_chain,
        ),
        Claim(
            id="abelian-j-clean-implies-delta-quasipolar",
            summary="Abelian j-clean rings are delta-quasipolar.",
            check=_implies(
                PropertyName.ABELIAN,
                PropertyName.J_CLEAN,
                conclusion=PropertyName.DELTA_QUASIPOLAR,
            ),
        ),
        Claim(
            id="trivial-idempotents-dichotomy",
            summary=(
                "A ring with only trivial idempotents is delta-quasipolar iff "
                "it is the two-element ring or its quotient by delta is."
            ),
            check=_check_trivial_idempotents_dichotomy,
            disputed=("Z3",),
            note=(
                "The dichotomy misses rings whose delta is everything: any "
                "field with more than two elements, such as Z3, has only "
                "trivial idempotents and is delta-quasipolar, but it is not "
                "the two-element ring and its quotient by delta is trivial "
                "rather than two-element."
            ),
        ),
        Claim(
            id="radical-chain-when-delta-equals-radical",
            summary=(
                "In a delta-quasipolar ring with delta equal to the radical, "
                "the radical, the quasinilpotents, the nilpotents, and delta "
                "are the same set."
            ),
            check=_check_radical_chain,
            note=(
                "Finite rings are automatically strongly pi-regular, so that "
                "hypothesis of the original statement needs no separate check "
                "here."
            ),
        ),
        Claim(
            id="dorroh-delta-quasipolar-transfer",
            summary=(
                "A Dorroh-style extension is delta-quasipolar only if its base "
                "is; the converse holds when idempotents commute with the "
                "module part and the module ring equals its own delta."
            ),
            check=_check_dorroh_transfer,
        ),
        Claim(
            id="delta-quasipolar-implies-weakly",
            summary="Delta-quasipolar elements are weakly delta-quasipolar.",
            check=_elementwise(
                PropertyName.DELTA_QUASIPOLAR, PropertyName.WEAKLY_DELTA_QUASIPOLAR
            ),
        ),
        Claim(
            id="strongly-j-clean-implies-weakly-delta-quasipolar",
            summary="Strongly j-clean rings are weakly delta-quasipolar.",
            check=_implies(
                PropertyName.STRONGLY_J_CLEAN, conclusion=PropertyName.WEAKLY_DELTA_QUASIPOLAR
            ),
        ),
        Claim(
            id="weakly-delta-quasipolar-surjective-images",
            summary=(
                "Every quotient of a weakly delta-quasipolar ring by a "
                "two-sided ideal is weakly delta-quasipolar."
            ),
            check=_transfer(
                PropertyName.WEAKLY_DELTA_QUASIPOLAR,
                lambda ring: (
                    (build_quotient(ring, ideal)[0], f"image modulo {list(ideal.indices())}")
                    for ideal in two_sided_ideals(ring)
                ),
            ),
        ),
        Claim(
            id="weakly-delta-quasipolar-corner-rings",
            summary=(
                "Every corner of a weakly delta-quasipolar ring at a central "
                "idempotent is weakly delta-quasipolar."
            ),
            check=_transfer(
                PropertyName.WEAKLY_DELTA_QUASIPOLAR,
                lambda ring: (
                    (build_corner(ring, e), f"corner at idempotent {e}")
                    for e in (element_sets(ring)[1] & center(ring)).indices()
                ),
            ),
        ),
        Claim(
            id="weakly-delta-quasipolar-finite-products",
            summary=(
                "A finite product is weakly delta-quasipolar iff every factor "
                "is; checked on catalog pairs up to combined order "
                f"{PRODUCT_PAIR_CAP}."
            ),
            check=_check_weakly_finite_products,
        ),
        Claim(
            id="weakly-equals-strongly-delta-r-clean",
            summary=(
                "An element a is weakly delta-quasipolar iff -a is strongly "
                "delta-r-clean."
            ),
            check=_elementwise(
                PropertyName.WEAKLY_DELTA_QUASIPOLAR,
                PropertyName.STRONGLY_DELTA_R_CLEAN,
                image=lambda ring: ring._neg_table(),
                iff=True,
            ),
        ),
        Claim(
            id="local-ring-five-equivalences",
            summary=(
                "For a local ring with nonzero radical: weakly "
                "delta-quasipolar, strongly j-clean, uniquely clean, "
                "two-element residue modulo the radical, and two-element "
                "residue modulo delta are all equivalent."
            ),
            check=_check_local_five_equivalences,
        ),
        _out_of_scope(
            "rationals-delta-quasipolar-integers-not",
            "The rational field is delta-quasipolar while the integers are not.",
            "Involves the infinite rings Q and Z; not evaluated on the finite catalog.",
        ),
        _out_of_scope(
            "prime-localization-quasipolar-not-delta",
            (
                "Localizing the integers at an odd prime gives a quasipolar "
                "ring that is not delta-quasipolar."
            ),
            "Involves an infinite localization; not evaluated on the finite catalog.",
        ),
        _out_of_scope(
            "eventually-constant-product-strongly-clean-not-quasipolar",
            (
                "The eventually constant sequences inside an infinite product "
                "of two-element fields form a strongly clean ring that is not "
                "quasipolar."
            ),
            "Involves an infinite product construction; not evaluated on the finite catalog.",
        ),
        _out_of_scope(
            "dorroh-of-integers-by-rationals-not-delta-quasipolar",
            (
                "The Dorroh-style extension of the integers by the rationals "
                "is not delta-quasipolar."
            ),
            "Involves infinite base and module rings; not evaluated on the finite catalog.",
        ),
        _out_of_scope(
            "integer-matrix-ring-not-delta-quasipolar",
            "Full matrix rings over the integers are not delta-quasipolar.",
            "Involves an infinite matrix ring; not evaluated on the finite catalog.",
        ),
        _out_of_scope(
            "integer-triangular-matrix-ring-not-delta-quasipolar",
            "Triangular matrix rings over the integers are not delta-quasipolar.",
            "Involves an infinite matrix ring; not evaluated on the finite catalog.",
        ),
        _out_of_scope(
            "infinite-direct-sum-surjects-onto-weakly-delta-quasipolar",
            (
                "A ring that is not weakly delta-quasipolar can surject onto a "
                "weakly delta-quasipolar ring, via an infinite direct sum."
            ),
            "Involves an infinite direct sum; not evaluated on the finite catalog.",
        ),
    ]


# --------------------------------------------------------------------------
# evaluation


def theorem_suite(
    entries: Sequence[CatalogEntry], rings: dict | None = None
) -> list[TheoremResult]:
    """Evaluate every registered claim against the given catalog."""
    built = dict(rings) if rings else {}
    for entry in entries:
        if entry.name not in built:
            built[entry.name] = build_entry(entry)
    ctx = SuiteContext(entries=tuple(entries), rings=built)
    results = []
    for claim in registry():
        witnesses = tuple(claim.check(ctx)) if claim.check else ()
        if claim.check is None:
            status = STATUS_OUT_OF_SCOPE
        elif not witnesses:
            status = STATUS_HOLDS
        else:
            status = STATUS_DISPUTED if claim.disputed else STATUS_VIOLATED
        results.append(
            TheoremResult(
                claim_id=claim.id,
                summary=claim.summary,
                status=status,
                witnesses=witnesses,
                note=claim.note,
            )
        )
    return results


def has_violation(results: Iterable[TheoremResult]) -> bool:
    return any(r.status == STATUS_VIOLATED for r in results)


# --------------------------------------------------------------------------
# counterexample search


def search_counterexample(
    hypotheses: Sequence, conclusion, entries: Sequence[CatalogEntry],
    rings: dict | None = None,
) -> dict | None:
    """First catalog element satisfying all hypotheses but not the conclusion.

    Each property is read as a mask of elements, and a ring-only property
    holds at every element of a ring or at none.  Returns ``{"ring",
    "element"}`` or ``None`` when the implication survives the whole catalog.
    """
    hyp_props = [_coerce(p) for p in hypotheses]
    concl_prop = _coerce(conclusion)
    built = dict(rings) if rings else {}
    for entry in entries:
        if entry.name not in built:
            built[entry.name] = build_entry(entry)
        ring = built[entry.name]
        # once no element is left, decide no further property on this ring
        hyp = (1 << ring.order) - 1
        for prop in hyp_props:
            hyp &= _mask(ring, prop) if hyp else 0
        a = _first_disagreement(ring, hyp, _mask(ring, concl_prop)) if hyp else None
        if a is not None:
            return {"ring": entry.name, "element": a}
    return None
