"""Mutants of ``src/ringlab`` and the tests that kill them.

Each row is one small change to one file: the exact old text, the text that
replaces it, and the tests to run on it.  A mutant is expected to make one
of them fail, unless it carries ``equivalent``, the reason it cannot change
any answer; an equivalent mutant is run on the same tests and is expected to
pass them.

    python tests/mutants.py [ID ...]

copies ``src/`` to a temporary directory once per mutant, applies the
mutant there, and runs ``pytest -x`` on its tests with ``PYTHONPATH`` at the
copy, one child process at a time.  It prints ``killed``, ``survived`` or
``stale`` (the old text no longer occurs exactly once) for each mutant, then
the tally and the wall time.  It first runs the same tests on an unmutated
copy and exits 2 if they fail there, since no kill would then mean
anything.  It exits 1 when a verdict is not the expected one: a survivor
not marked equivalent, a killed equivalent, or a stale mutant.  The tree
itself is never written.  ``tests/test_mutants.py`` checks in tier-1 that
every old text still occurs exactly once.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""


_DELTA_MASKS = (
    "tests/test_lattice_masks.py::test_delta_masks_match_oracles_relabelled",
    "tests/test_lattice_masks.py::test_delta_masks_match_oracles_on_decomposable_rings",
)
_COSETS = ("tests/test_cross_checks.py::test_coset_and_class_paths_match_oracles",)
_LATTICE = (
    "tests/test_ideals.py::test_fast_close_by_one_skips_joins_bound_to_fail",
    *_COSETS,
)
_TRANSLATE = (
    "tests/test_lattice_masks.py::test_translate_is_row_t_of_add_at_every_member",
    *_DELTA_MASKS,
)
_JACOBSON = ("tests/test_radicals.py::test_jacobson_frozen_masks",)
_LATTICE_PREDICATES = ("tests/test_lattice_masks.py::test_lattice_predicates_match_oracles",)
_COMPANIONS = (
    "tests/test_properties.py::test_spectral_candidates_frozen",
    "tests/test_properties.py::test_companion_search_matches_reference",
)
_QUOTIENTS = (
    "tests/test_cross_checks.py::test_quotients_and_corners_match_old_builders_relabelled",
)
_SUBGROUPS = (
    "tests/test_ideals.py::test_right_ideal_test_matches_subset_scan",
    "tests/test_core.py::test_normal_form_generators_match_bfs_oracle_on_catalog",
)
_SEEDS = (
    "tests/test_ideals.py::test_seeds_are_the_join_irreducible_right_ideals",
    "tests/test_ideals.py::test_lattice_matches_seed_closure_oracle_relabelled",
)
_ORBITS = (
    "tests/test_cross_checks.py::test_principal_bits_per_unit_orbit_match_per_cell_loop",
    "tests/test_cross_checks.py::test_principal_bits_builds_one_mask_per_unit_orbit",
)
_ZMOD = ("tests/test_core.py::test_zmod_matches_oracle",)
_AXIOMS = (
    "tests/test_core.py::test_verify_axioms_matches_brute_force",
    "tests/test_core.py::test_verify_axioms_on_one_sided_near_rings",
)
_DORROH = (
    "tests/test_core.py::test_dorroh_on_relabelled_rings",
    "tests/test_core.py::test_dorroh_matches_oracle_validator",
)
_PATTERNS = (
    "tests/test_core.py::test_pattern_builders_match_brute_force",
    "tests/test_core.py::test_pattern_and_dorroh_tables_above_the_oracles_are_pinned",
)
_PRODUCTS = (
    "tests/test_core.py::test_right_folded_product_matches_brute_force",
    "tests/test_core.py::test_product_and_zmod_tables_at_the_cap_are_pinned",
)
_PRE_CHANGE_CLAIMS = (
    "tests/test_claim_rows.py::test_per_ring_claims_match_their_pre_change_checkers",
)
_CROSS_CHECKS = ("tests/test_cross_checks.py::test_cross_checks_match_per_cell_loops_on_catalog",)
_CERTIFICATE_CHECKS = (
    "tests/test_claim_rows.py::test_certificate_checks_match_the_per_property_checks",
    "tests/test_claim_rows.py::test_certificate_checks_match_the_per_property_checks_on_catalog",
)

MUTANTS = (
    # the one translate t + S
    Mutant(
        id="translate-dense-flip-dropped",
        file="ringlab/ideals.py",
        old="            out.append(mask_from_flags(flags) ^ flip)",
        new="            out.append(mask_from_flags(flags))",
        tests=_TRANSLATE,
    ),
    Mutant(
        id="translate-sparse-flip-dropped",
        file="ringlab/ideals.py",
        old="    return tuple(sum(1 << add[t][x] for x in members) ^ flip for t in shifts)",
        new="    return tuple(sum(1 << add[t][x] for x in members) for t in shifts)",
        tests=_TRANSLATE,
    ),
    Mutant(
        id="translate-never-flips",
        file="ringlab/ideals.py",
        old="    flip = (1 << ring.order) - 1 if 2 * bits.bit_count() > ring.order else 0",
        new="    flip = 0",
        tests=_TRANSLATE,
        equivalent=(
            "t + S is walked over S itself instead of over its complement; the"
            " mask is the same, only the walk is longer"
        ),
    ),
    # one reader for an element's companions
    Mutant(
        id="companions-of-without-low-bit",
        file="ringlab/properties.py",
        old="if mask >> a & 1)",
        new="if mask >> a)",
        tests=_COMPANIONS,
    ),
    Mutant(
        id="spectral-flavors-from-clean-rows",
        file="ringlab/properties.py",
        old="    if sign > 0\n}",
        new="    if sign < 0\n}",
        tests=_COMPANIONS,
    ),
    # exchange idempotents: idempotents & aR & (1 + (1 - a)R)
    Mutant(
        id="exchange-without-one-plus-translate",
        file="ringlab/properties.py",
        old="translates = {bits: _one_plus_bits(ring, bits) for bits in _principal_classes(ring)}",
        new="translates = {bits: bits for bits in _principal_classes(ring)}",
        tests=("tests/test_cross_checks.py::test_ring_property_is_the_element_sweep_on_catalog",),
    ),
    # the maximal right ideals and the ideal core
    Mutant(
        id="maximal-walk-ascending",
        file="ringlab/ideals.py",
        old="    for ideal in reversed(all_right_ideals(ring)):",
        new="    for ideal in all_right_ideals(ring):",
        tests=_LATTICE_PREDICATES,
    ),
    Mutant(
        id="core-first-generator-only",
        file="ringlab/ideals.py",
        old="(ring.mul[g] for g in gens))",
        new="(ring.mul[g] for g in gens[:1]))",
        tests=_LATTICE_PREDICATES,
    ),
    Mutant(
        id="core-reads-x-times-g",
        file="ringlab/ideals.py",
        old="    return bits & _preimage_bits(ring, bits, (ring.mul[g] for g in gens))",
        new="    return bits & _preimage_bits(ring, bits, ([r[g] for r in ring.mul] for g in gens))",
        tests=_LATTICE_PREDICATES,
    ),
    # Jacobson route b, a raw scan of the rows against the shared non-unit set
    Mutant(
        id="non-units-from-minus-z",
        file="ringlab/radicals.py",
        old="    return frozenset(z for z, w in enumerate(ring.add[ring.one]) if w not in units)",
        new="    return frozenset(z for z, w in enumerate(ring._neg_table()) if w not in units)",
        tests=_JACOBSON,
    ),
    Mutant(
        id="jacobson-route-b-over-add-rows",
        file="ringlab/radicals.py",
        old="map(_one_plus_non_units(ring).isdisjoint, ring.mul)",
        new="map(_one_plus_non_units(ring).isdisjoint, ring.add)",
        tests=_JACOBSON,
    ),
    # δ routes 3 and 5 and the δ-small test on principal classes
    Mutant(
        id="r5-no-translate",
        file="ringlab/radicals.py",
        old="    allowed = _one_plus_bits(ring, complemented)",
        new="    allowed = complemented",
        tests=_DELTA_MASKS,
    ),
    Mutant(
        id="r5-meets-instead-of-inside",
        file="ringlab/radicals.py",
        old="        if not xr & ~allowed:",
        new="        if xr & allowed:",
        tests=_DELTA_MASKS,
    ),
    Mutant(
        id="r3-first-non-summand-only",
        file="ringlab/radicals.py",
        old="            non_summands |= ideal.bits",
        new="            non_summands = non_summands or ideal.bits",
        tests=_DELTA_MASKS,
    ),
    Mutant(
        id="delta-small-first-essential-maximal-only",
        file="ringlab/ideals.py",
        old="        union |= m.bits",
        new="        union = union or m.bits",
        tests=_DELTA_MASKS,
    ),
    Mutant(
        id="classes-drop-last-element",
        file="ringlab/ideals.py",
        old="    for x, p in enumerate(_principal_bits(ring)):",
        new="    for x, p in enumerate(_principal_bits(ring)[:-1]):",
        tests=_DELTA_MASKS,
    ),
    # the essential test once per principal class
    Mutant(
        id="essential-keeps-zero-class",
        file="ringlab/ideals.py",
        old="xr & bits != zero_bit for xr in _principal_classes(ring) if xr != zero_bit",
        new="xr & bits != zero_bit for xr in _principal_classes(ring)",
        tests=_DELTA_MASKS,
    ),
    # the one coset walk, for quotients and the centre; comm2 once per
    # commutant class
    Mutant(
        id="coset-leaders-from-mul",
        file="ringlab/core.py",
        old="    for a, row in enumerate(ring.add):",
        new="    for a, row in enumerate(ring.mul):",
        tests=_COSETS,
    ),
    Mutant(
        id="coset-leader-is-itself",
        file="ringlab/core.py",
        old="            for b in map(row.__getitem__, members):",
        new="            for b in (a,):",
        tests=_QUOTIENTS,
    ),
    Mutant(
        id="double-commuters-subset-inverted",
        file="ringlab/properties.py",
        old="        if not comm & outside:",
        new="        if not ~comm & ~outside:",
        tests=_COSETS,
    ),
    Mutant(
        id="centre-first-generator-only",
        file="ringlab/radicals.py",
        old="    for g in _subgroup_generators(ring, bits):",
        new="    for g in _subgroup_generators(ring, bits)[:1]:",
        tests=_CROSS_CHECKS,
    ),
    # comm2 is one relation, comm(a) inside comm(p): read from above by
    # double_commutant, and with two commutants by a certificate
    Mutant(
        id="double-commutant-read-from-below",
        file="ringlab/properties.py",
        old="        if not comm & ~above:",
        new="        if not above & ~comm:",
        tests=_COSETS,
    ),
    Mutant(
        id="certificate-comm2-read-the-other-way",
        file="ringlab/properties.py",
        old="not comm & ~commutant_bits(ring, p)",
        new="not commutant_bits(ring, p) & ~comm",
        tests=_CERTIFICATE_CHECKS,
    ),
    Mutant(
        id="certificate-commutation-without-range-guard",
        file="ringlab/properties.py",
        old="            commutes = 0 <= p < ring.order and (",
        new="            commutes = (",
        tests=_CERTIFICATE_CHECKS,
    ),
    Mutant(
        id="certificate-commutes-left-an-int",
        file="ringlab/properties.py",
        old="bool(comm >> p & 1)",
        new="comm >> p & 1",
        tests=(
            "tests/test_claim_rows.py::test_certificate_checks_are_named_exact_bools",
            "tests/test_cli.py::test_check_element_prints_its_checks_as_json_true",
        ),
    ),
    Mutant(
        id="qnil-compressed-by-the-centre",
        file="ringlab/radicals.py",
        old="            row = compress(row, flags_from_mask(commutant_bits(ring, a)))",
        new="            row = compress(row, flags_from_mask(center_bits(ring)))",
        tests=_COSETS,
    ),
    # the subgroup test, counted off the generator walk
    Mutant(
        id="subgroup-count-without-wrap",
        file="ringlab/core.py",
        old="sum(len(p) - 1 for _, p, _ in edges)",
        new="sum(len(p) for _, p, _ in edges)",
        tests=_SUBGROUPS,
    ),
    Mutant(
        id="subgroup-count-at-least",
        file="ringlab/core.py",
        old="in edges) == bits.bit_count()",
        new="in edges) >= bits.bit_count()",
        tests=_SUBGROUPS,
    ),
    Mutant(
        id="seed-test-without-half-size",
        file="ringlab/ideals.py",
        old="        if p == zero_bit or below.bit_count() * 2 > p.bit_count():",
        new="        if p == zero_bit:",
        tests=_SEEDS,
        equivalent=(
            "the non-generators N of aR are tested for closure under addition"
            " either way; a closed N is a proper subgroup of aR, which holds at"
            " most half of it, so a larger N fails the subgroup test as well"
        ),
    ),
    # the minimal right ideals and the summand witnesses
    Mutant(
        id="minimal-keeps-every-nonzero-ideal",
        file="ringlab/ideals.py",
        old="        if bits != zero_bit and not any(m.bits & ~bits == 0 for m in kept):",
        new="        if bits != zero_bit:",
        tests=_LATTICE_PREDICATES,
    ),
    Mutant(
        id="summand-keeps-greatest-idempotent",
        file="ringlab/ideals.py",
        old="    return {pb[e]: e for e in reversed(element_sets(ring)[1].indices())}",
        new="    return {pb[e]: e for e in element_sets(ring)[1].indices()}",
        tests=_LATTICE_PREDICATES,
    ),
    # principal masks once per unit orbit
    Mutant(
        id="orbit-read-off-add-row",
        file="ringlab/ideals.py",
        old="            for b in orbit(row):",
        new="            for b in orbit(ring.add[a]):",
        tests=_ORBITS,
    ),
    Mutant(
        id="orbit-missing-one-unit",
        file="ringlab/ideals.py",
        old="    orbit = _picker(units_map(ring))",
        new="    orbit = _picker(tuple(units_map(ring))[:-1] or (ring.one,))",
        tests=_ORBITS,
    ),
    # the write side: save_ring's texts and build_zmod's rows
    Mutant(
        id="save-texts-without-none-padding",
        file="ringlab/core.py",
        old="    texts = tuple(map(str, range(n))) + (None,) * n",
        new="    texts = tuple(map(str, range(n)))",
        tests=("tests/test_core.py::test_save_ring_refuses_non_index_entries",),
    ),
    Mutant(
        id="zmod-wrong-cofactor-row",
        file="ringlab/core.py",
        old="            mul.append(itemgetter(*mul[p])(mul[a // p]))",
        new="            mul.append(itemgetter(*mul[p])(mul[a - p]))",
        tests=_ZMOD,
    ),
    Mutant(
        id="zmod-greatest-sieve-factor-last",
        file="ringlab/core.py",
        old="    for p in range(math.isqrt(n - 1), 1, -1):",
        new="    for p in range(2, math.isqrt(n - 1) + 1):",
        tests=_ZMOD,
        equivalent=(
            "row a is read as row a // p at the cells of row p for the factor p"
            " written last; any factor 1 < p < a gives a x = (a // p)(p x), and"
            " rows p and a // p are built before row a"
        ),
    ),
    Mutant(
        id="zmod-doubling-off-by-one",
        file="ringlab/core.py",
        old="                row += _picker(row)(add[add[row[-1]][a]])",
        new="                row += _picker(row)(add[row[-1]])",
        tests=_ZMOD,
    ),
    # product tables: the split at the middle order and the row assembly
    Mutant(
        id="product-row-reads-a-fixed-block",
        file="ringlab/core.py",
        old="                row += shifted[a]",
        new="                row += shifted[0]",
        tests=_PRODUCTS,
    ),
    Mutant(
        id="product-split-always-after-the-first-factor",
        file="ringlab/core.py",
        old="    k = 1 + gaps.index(min(gaps))",
        new="    k = 1",
        tests=(*_PRODUCTS, *_PATTERNS),
        equivalent=(
            "mixed-radix packing is associative, d1*(n2*n3) + (d2*n3 + d3) ="
            " (d1*n2 + d2)*n3 + d3, so a join at any k puts each product at the"
            " same index; k = 1 is the old right fold, and every cell is still"
            " read out of the top join's shared ints"
        ),
    ),
    # verify_axioms: distributivity along the walk's edges
    Mutant(
        id="axioms-skip-generator-rows",
        file="ringlab/core.py",
        old="    generator_rows = ((g, mul[g]) for g in gens)",
        new="    generator_rows = ()",
        tests=_AXIOMS,
    ),
    Mutant(
        id="axioms-column-maps-of-generators-only",
        file="ringlab/core.py",
        old='("right", enumerate(zip(*mul)))',
        new='("right", ((g, [row[g] for row in mul]) for g in gens))',
        tests=_AXIOMS,
    ),
    Mutant(
        id="axioms-wrap-edges-replaced",
        file="ringlab/core.py",
        old="    groups = [(g, itemgetter(*ps), itemgetter(*xs)) for g, ps, xs in edges]",
        new=(
            "    groups = [(g, itemgetter(*ps[:-1], ps[0]), itemgetter(*xs[:-1], xs[0]))"
            " for g, ps, xs in edges]"
        ),
        tests=("tests/test_core.py::test_tree_axiom_check_needs_the_wrap_edges",),
    ),
    # Fast Close-by-One
    Mutant(
        id="fcbo-skip-without-current",
        file="ringlab/ideals.py",
        old="inherited.get(j, 0) & earlier[j] & ~current",
        new="inherited.get(j, 0) & earlier[j]",
        tests=_LATTICE,
    ),
    Mutant(
        id="fcbo-failures-not-handed-down",
        file="ringlab/ideals.py",
        old="                stack.append((join, j + 1, failed))",
        new="                stack.append((join, j + 1, inherited))",
        tests=_LATTICE,
    ),
    # the one row fold, and the pattern rings' lists read off the digits
    Mutant(
        id="row-fold-left-to-right",
        file="ringlab/core.py",
        old="    row = columns[-1]\n    for column in reversed(columns[:-1]):",
        new="    row = columns[0]\n    for column in columns[1:]:",
        tests=(*_PATTERNS, *_DORROH),
    ),
    Mutant(
        id="pattern-digit-keyed-on-column-row",
        file="ringlab/core.py",
        old="(r, m) in digit_at:\n                    sources[j].append((t, digit_at[r, m]))",
        new="(m, r) in digit_at:\n                    sources[j].append((t, digit_at[m, r]))",
        tests=_PATTERNS,
    ),
    Mutant(
        id="pattern-lists-not-read-from-shared-ints",
        file="ringlab/core.py",
        old="list(map(ints.__getitem__, map(sum, moved, repeat(zero_index))))",
        new="list(map(sum, moved, repeat(zero_index)))",
        tests=("tests/test_core.py::test_pattern_addition_is_base_power_addition",),
    ),
    Mutant(
        id="dorroh-right-offset-by-extension-zero",
        file="ringlab/core.py",
        old="            right = [shift + bim.add[rw][vw]",
        new="            right = [shift + bim.zero + bim.add[rw][vw]",
        tests=_DORROH,
    ),
    Mutant(
        id="dorroh-left-right-swapped",
        file="ringlab/core.py",
        old="            mul.append(_sum_row(add, [left, right]))",
        new="            mul.append(_sum_row(add, [right, left]))",
        tests=_DORROH,
    ),
    Mutant(
        id="dorroh-preset-left-action-transposed",
        file="ringlab/catalog.py",
        old="_dorroh_ring((p := base()), p, p.mul, p.mul)",
        new="_dorroh_ring((p := base()), p, tuple(zip(*p.mul)), p.mul)",
        tests=("tests/test_core.py::test_dorroh_preset_matches_the_checked_builder",),
    ),
    # one decision per fact: certificates read the property masks, and the
    # claims read residue sizes and the Dorroh hypotheses off decided facts
    Mutant(
        id="certificate-without-mask-test",
        file="ringlab/properties.py",
        old="    if a not in _property_mask(ring, prop):\n        return None\n",
        new="",
        tests=(
            "tests/test_properties.py::test_uniquely_clean_counts",
            "tests/test_cross_checks.py::test_companion_masks_match_the_per_element_walk_on_catalog",
        ),
    ),
    Mutant(
        id="dichotomy-residue-without-factor-two",
        file="ringlab/claims.py",
        old="    right = is_zmod2(ring) or 2 * len(delta_mask(ring)) == ring.order",
        new="    right = is_zmod2(ring) or len(delta_mask(ring)) == ring.order",
        tests=_PRE_CHANGE_CLAIMS,
    ),
    Mutant(
        id="local-five-delta-residue-without-factor-two",
        file="ringlab/claims.py",
        old="        2 * len(delta_mask(ring)) == ring.order,",
        new="        len(delta_mask(ring)) == ring.order,",
        tests=_PRE_CHANGE_CLAIMS,
    ),
    Mutant(
        id="local-five-radical-residue-without-factor-two",
        file="ringlab/claims.py",
        old="        2 * len(jacobson(ring)) == ring.order,",
        new="        len(jacobson(ring)) == ring.order,",
        tests=_PRE_CHANGE_CLAIMS,
    ),
    Mutant(
        id="dorroh-transfer-idempotents-always-commute",
        file="ringlab/claims.py",
        old="        idempotents_commute = _holds(base, PropertyName.ABELIAN)",
        new="        idempotents_commute = True",
        tests=(
            "tests/test_claim_rows.py::test_dorroh_transfer_matches_the_checker_that_read_the_actions",
        ),
    ),
    Mutant(
        id="dorroh-transfer-module-delta-always-full",
        file="ringlab/claims.py",
        old="        bim_full_delta = len(delta_mask(base)) == base.order",
        new="        bim_full_delta = True",
        tests=(
            "tests/test_claim_rows.py::test_dorroh_transfer_matches_the_checker_that_read_the_actions",
        ),
    ),
)


def _pytest(tests, mutant: Mutant | None = None) -> int | None:
    """The exit code of ``pytest -x`` on ``tests`` over a copy of ``src/``
    with ``mutant`` applied; ``None`` when its old text is not there once."""
    with tempfile.TemporaryDirectory(prefix="ringlab-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = src / mutant.file
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return None
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def run(mutant: Mutant) -> str:
    """The verdict on one mutant."""
    code = _pytest(mutant.tests, mutant)
    if code is None:
        return "stale"
    # 1: a test failed; 2: collection failed, as when the mutant breaks an import
    if code in (1, 2):
        return "killed"
    return "survived" if code == 0 else f"error (pytest exit {code})"


def main(argv: list[str]) -> int:
    by_id = {mutant.id: mutant for mutant in MUTANTS}
    unknown = [ident for ident in argv if ident not in by_id]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    chosen = [by_id[ident] for ident in argv or by_id]
    # a kill counts only if the same tests pass on the tree as it is
    if _pytest(sorted({node for mutant in chosen for node in mutant.tests})) != 0:
        print("the mutants' tests fail on the unmutated tree", file=sys.stderr)
        return 2
    tally: Counter[str] = Counter()
    unexpected = 0
    for mutant in chosen:
        verdict = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        tally[verdict] += 1
        unexpected += verdict != expected
        note = "" if verdict == expected else f"  (expected {expected})"
        print(f"{verdict:9} {mutant.id}{note}", flush=True)
    counts = ", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items()))
    print(f"{counts}; {unexpected} unexpected; {time.perf_counter() - start:.1f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
