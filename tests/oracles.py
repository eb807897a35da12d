"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive: straight subset scans and definition
chasing.  Nothing is shared with the library's lattice or consensus
machinery, so agreement between the two is meaningful evidence.  The
reference finders, the per-cell checks and the claim checkers at the end
are the exceptions: they read the library's target sets, idempotents and
lattice and compute the way the library used to.
"""
from __future__ import annotations

import json
import math
from itertools import islice
from operator import itemgetter
from typing import Sequence

from ringlab.catalog import CatalogEntry, build_entry, dorroh_base, dorroh_of_ring
from ringlab.claims import Checker, SuiteContext, _holds, _mask, _witness
from ringlab.core import (
    BimoduleError,
    ElementSet,
    FiniteRing,
    IdealError,
    bit_members,
    build_corner,
    build_quotient,
    check_size,
    element_sets,
    flags_from_mask,
    is_zmod2,
    mask_from_flags,
    ring_to_json,
    units_map,
)
from ringlab.ideals import (
    _principal_bits,
    _span_bits,
    all_right_ideals,
    is_two_sided_ideal,
    socle,
    two_sided_ideals,
)
from ringlab.properties import (
    _COMPANION_SPECS,
    _DIFFERENCE,
    _TARGETS,
    _UNIQUE,
    PropertyName,
    element_property,
    idempotents_lift,
    ring_property,
)
from ringlab.radicals import (
    DeltaDisagreement,
    delta,
    delta_mask,
    jacobson,
    qnil_set,
)


def mixed_radix_encode(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Pack digits into one index; the last digit is the fastest-moving one."""
    if len(digits) != len(radices):
        raise ValueError("digit and radix sequences differ in length")
    index = 0
    for digit, radix in zip(digits, radices):
        if not 0 <= digit < radix:
            raise ValueError(f"digit {digit} out of range for radix {radix}")
        index = index * radix + digit
    return index


def mixed_radix_decode(index: int, radices: Sequence[int]) -> tuple[int, ...]:
    digits = []
    for radix in reversed(radices):
        index, digit = divmod(index, radix)
        digits.append(digit)
    if index:
        raise ValueError("index out of range for the given radices")
    return tuple(reversed(digits))


def brute_verify_axioms(ring, max_violations=25):
    """Check every ring axiom over all n^3 triples; return the violations.

    This is the library's checker before it moved to additive generators.
    Pass ``max_violations=math.inf`` to list every violation.
    """
    n = ring.order
    add, mul = ring.add, ring.mul
    out: list[str] = []

    def push(message: str) -> bool:
        out.append(message)
        return len(out) >= max_violations

    if n < 1:
        return ["order must be at least 1"]
    for table_name, table in (("addition", add), ("multiplication", mul)):
        if len(table) != n or any(len(row) != n for row in table):
            return [f"{table_name} table is not {n} x {n}"]
        for i, row in enumerate(table):
            for j, value in enumerate(row):
                if not 0 <= value < n:
                    if push(f"{table_name} entry at ({i},{j}) is out of range"):
                        return out
    if not 0 <= ring.zero < n:
        return ["zero index out of range"]
    if not 0 <= ring.one < n:
        return ["one index out of range"]

    zero, one = ring.zero, ring.one
    for a in range(n):
        if add[a][zero] != a and push(f"zero is not an additive identity at {a}"):
            return out
        if zero not in add[a] and push(f"no additive inverse for {a}"):
            return out
        for b in range(n):
            if add[a][b] != add[b][a] and push(f"addition is not commutative at ({a},{b})"):
                return out
    for a in range(n):
        if (mul[a][one] != a or mul[one][a] != a) and push(
            f"one is not a multiplicative identity at {a}"
        ):
            return out
    for a in range(n):
        add_a, mul_a = add[a], mul[a]
        for b in range(n):
            ab_sum, ab_prod = add_a[b], mul_a[b]
            add_ab_sum, mul_ab_sum = add[ab_sum], mul[ab_sum]
            mul_ab_prod = mul[ab_prod]
            mul_b = mul[b]
            for c in range(n):
                if add_ab_sum[c] != add_a[add[b][c]] and push(
                    f"addition is not associative at ({a},{b},{c})"
                ):
                    return out
                if mul_ab_prod[c] != mul_a[mul_b[c]] and push(
                    f"multiplication is not associative at ({a},{b},{c})"
                ):
                    return out
                if mul_a[add[b][c]] != add[ab_prod][mul_a[c]] and push(
                    f"left distributivity fails at ({a},{b},{c})"
                ):
                    return out
                if mul_ab_sum[c] != add[mul_a[c]][mul_b[c]] and push(
                    f"right distributivity fails at ({a},{b},{c})"
                ):
                    return out
    return out


def brute_right_ideals(ring):
    """Every right ideal, found by scanning all 2^n subsets (small rings only)."""
    n = ring.order
    if n > 16:
        raise ValueError("subset scan is only intended for tiny rings")
    add, mul = ring.add, ring.mul
    found = []
    for mask in range(1 << n):
        if not (mask >> ring.zero) & 1:
            continue
        members = [i for i in range(n) if (mask >> i) & 1]
        ok = True
        for a in members:
            row = add[a]
            for b in members:
                if not (mask >> row[b]) & 1:
                    ok = False
                    break
            if ok:
                prod = mul[a]
                for r in range(n):
                    if not (mask >> prod[r]) & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            found.append(frozenset(members))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def brute_pairwise_span(ring, b1, b2):
    """Every sum of a member of ``b1`` and a member of ``b2``, as a bitmask."""
    n, add = ring.order, ring.add
    second = [b for b in range(n) if (b2 >> b) & 1]
    out = 0
    for a in range(n):
        if (b1 >> a) & 1:
            row = add[a]
            for b in second:
                out |= 1 << row[b]
    return out


def brute_join_closure_right_ideals(ring):
    """Every right ideal, as the closure of the principal right ideals under
    sums with them, each sum taken pair by pair (rings too large to scan).

    This is the library's enumerator before it joined only with
    join-irreducible principal ideals and spanned by cosets.
    """
    n, mul = ring.order, ring.mul
    seeds = sorted({sum(1 << ab for ab in set(mul[a])) for a in range(n)})
    found = set(seeds)
    queue = list(seeds)
    while queue:
        current = queue.pop()
        for seed in seeds:
            if seed & ~current == 0:
                continue
            span = brute_pairwise_span(ring, current, seed)
            if span not in found:
                found.add(span)
                queue.append(span)
    ideals = [frozenset(i for i in range(n) if (bits >> i) & 1) for bits in found]
    return sorted(ideals, key=lambda s: (len(s), tuple(sorted(s))))


def span_join_irreducible_principals(ring):
    """The principal right ideals that are not the join of the principal
    right ideals strictly inside them, each found by joining those ideals
    until the join reaches it.

    This is the library's seed search before it tested the non-generators
    of each principal ideal for additive closure.
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


def bfs_seed_closure_right_ideals(ring):
    """Every right ideal, as the closure of ``{0}`` and the seeds under
    joins of every ideal found with every seed, deduplicated by a set.

    This is the library's enumerator before it listed the lattice by
    Close-by-One.
    """
    seeds = span_join_irreducible_principals(ring)
    found = {1 << ring.zero, *seeds}
    queue = list(seeds)
    while queue:
        current = queue.pop()
        for seed in seeds:
            if seed & ~current:
                span = _span_bits(ring, current, seed)
                if span not in found:
                    found.add(span)
                    queue.append(span)
    ideals = [ElementSet(bits, ring.order) for bits in found]
    return tuple(sorted(ideals, key=ElementSet.sort_key))


def brute_two_sided_ideals(ring, right_ideals=None):
    """The two-sided ones among ``right_ideals`` (default: the subset scan)."""
    n = ring.order
    mul = ring.mul
    out = []
    if right_ideals is None:
        right_ideals = brute_right_ideals(ring)
    for ideal in right_ideals:
        if all((mul[r][a] in ideal) for a in ideal for r in range(n)):
            out.append(ideal)
    return out


def brute_two_sided_closure(ring, generators):
    """Every r g s over the generators, closed under + by a worklist.

    This is the library's closure before it summed the principal right
    ideals h g R over the additive generators h.
    """
    bits = 1 << ring.zero
    for g in generators:
        if not 0 <= g < ring.order:
            raise ValueError(f"generator {g} out of range")
        for r in range(ring.order):
            rg = ring.mul[r][g]
            for s in ring.mul[rg]:
                bits |= 1 << s
    add = ring.add
    members = [i for i in range(ring.order) if (bits >> i) & 1]
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
    return ElementSet(bits, ring.order)


def brute_is_essential(ring, subset, ideal_list):
    """subset is essential iff it meets every nonzero right ideal nontrivially."""
    zero = ring.zero
    for other in ideal_list:
        if other == frozenset({zero}):
            continue
        if not (set(subset) & set(other)) - {zero}:
            return False
    return True


def brute_socle(ring, ideal_list):
    zero = ring.zero
    nonzero = [i for i in ideal_list if i != frozenset({zero})]
    minimal = [
        i
        for i in nonzero
        if not any(j < i for j in nonzero)
    ]
    if not minimal:
        return frozenset({zero})
    total = {zero}
    add = ring.add
    for ideal in minimal:
        total = {add[a][b] for a in total for b in ideal} | total
        # close under addition
        changed = True
        while changed:
            changed = False
            for a in list(total):
                for b in list(total):
                    c = add[a][b]
                    if c not in total:
                        total.add(c)
                        changed = True
    return frozenset(total)


def brute_delta(ring):
    """Intersection of the essential maximal right ideals; the ring if none."""
    ideal_list = brute_right_ideals(ring)
    whole = frozenset(range(ring.order))
    proper = [i for i in ideal_list if i != whole]
    maximal = [i for i in proper if not any(i < j for j in proper)]
    out = whole
    for ideal in maximal:
        if brute_is_essential(ring, ideal, ideal_list):
            out = out & ideal
    return out


def brute_right_annihilator(ring, a):
    mul = ring.mul
    return frozenset(x for x in range(ring.order) if mul[a][x] == ring.zero)


def brute_units(ring):
    n, mul = ring.order, ring.mul
    return {
        a
        for a in range(n)
        if any(mul[a][b] == ring.one and mul[b][a] == ring.one for b in range(n))
    }


def brute_idempotents(ring):
    return {a for a in range(ring.order) if ring.mul[a][a] == a}


def brute_nilpotents(ring):
    """The a with a^k = 0 for some k <= n, by multiplying out the powers."""
    out = set()
    for a in range(ring.order):
        power = a
        for _ in range(ring.order):
            if power == ring.zero:
                out.add(a)
                break
            power = ring.mul[power][a]
    return out


def brute_commutant(ring, a):
    mul = ring.mul
    return {x for x in range(ring.order) if mul[a][x] == mul[x][a]}


def brute_double_commutant(ring, a):
    mul = ring.mul
    comm = brute_commutant(ring, a)
    return {
        x
        for x in range(ring.order)
        if all(mul[x][y] == mul[y][x] for y in comm)
    }


def brute_center(ring):
    mul = ring.mul
    return {
        x
        for x in range(ring.order)
        if all(mul[x][y] == mul[y][x] for y in range(ring.order))
    }


def brute_delta_quasipolar(ring, a, delta_indices):
    """Scan every p directly: idempotent, in comm2(a), with a+p in delta."""
    dc = brute_double_commutant(ring, a)
    for p in range(ring.order):
        if ring.mul[p][p] != p:
            continue
        if p not in dc:
            continue
        if ring.add[a][p] in delta_indices:
            return True
    return False


def brute_quasipolar(ring, a):
    """Scan every p: idempotent, in comm2(a), a+p a unit, ap quasinilpotent.

    q is quasinilpotent when 1 + qx is a unit for every x commuting with q.
    """
    add, mul, one = ring.add, ring.mul, ring.one
    units = brute_units(ring)
    dc = brute_double_commutant(ring, a)
    for p in range(ring.order):
        if mul[p][p] != p or p not in dc or add[a][p] not in units:
            continue
        q = mul[a][p]
        if all(add[one][mul[q][x]] in units for x in brute_commutant(ring, q)):
            return True
    return False


def brute_weakly_delta_quasipolar(ring, a, delta_indices):
    comm = brute_commutant(ring, a)
    for p in range(ring.order):
        if ring.mul[p][p] != p:
            continue
        if p not in comm:
            continue
        if ring.add[a][p] in delta_indices:
            return True
    return False


def brute_clean_decompositions(ring, a):
    """All pairs (e, u) with e idempotent, u a unit, a = e + u."""
    units = brute_units(ring)
    out = []
    for e in sorted(brute_idempotents(ring)):
        for u in sorted(units):
            if ring.add[e][u] == a:
                out.append((e, u))
    return out


def brute_zmod(n: int) -> FiniteRing:
    """Z_n, one ``%`` per table cell.

    This is the library's builder before its rows shared one set of ints.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    check_size(n)
    return FiniteRing(
        order=n,
        add=tuple(tuple((a + b) % n for b in range(n)) for a in range(n)),
        mul=tuple(tuple((a * b) % n for b in range(n)) for a in range(n)),
        zero=0,
        one=1 % n,
        name=f"Z{n}",
        labels=tuple(str(i) for i in range(n)),
    )


def brute_save_bytes(ring: FiniteRing) -> bytes:
    """The bytes ``save_ring`` wrote before it streamed the tables row by row."""
    return (json.dumps(ring_to_json(ring), indent=2) + "\n").encode()


def brute_validate_dorroh(data) -> None:
    """Raise BimoduleError unless the actions of ``data`` are well formed,
    unital, and satisfy every bimodule law, each law looped over directly.

    This is the library's validator before it left the laws to
    ``verify_axioms`` on the assembled extension.
    """
    base, bim = data.base, data.bimodule
    la, ra = data.left_action, data.right_action
    nr, nv = base.order, bim.order
    if len(la) != nr or any(len(row) != nv for row in la):
        raise BimoduleError(f"left action table is not {nr} x {nv}")
    if len(ra) != nv or any(len(row) != nr for row in ra):
        raise BimoduleError(f"right action table is not {nv} x {nr}")
    for table, bound, which in ((la, nv, "left"), (ra, nv, "right")):
        for row in table:
            for value in row:
                if not 0 <= value < bound:
                    raise BimoduleError(f"{which} action entry {value} out of range")
    for v in range(nv):
        if la[base.one][v] != v:
            raise BimoduleError(f"left action is not unital at {v}")
        if ra[v][base.one] != v:
            raise BimoduleError(f"right action is not unital at {v}")
    for r in range(nr):
        for s in range(nr):
            for v in range(nv):
                if la[base.mul[r][s]][v] != la[r][la[s][v]]:
                    raise BimoduleError(
                        f"left action is not associative at ({r},{s},{v})"
                    )
                if ra[v][base.mul[r][s]] != ra[ra[v][r]][s]:
                    raise BimoduleError(
                        f"right action is not associative at ({r},{s},{v})"
                    )
                if la[base.add[r][s]][v] != bim.add[la[r][v]][la[s][v]]:
                    raise BimoduleError(f"left action is not additive at ({r},{s},{v})")
                if ra[v][base.add[r][s]] != bim.add[ra[v][r]][ra[v][s]]:
                    raise BimoduleError(f"right action is not additive at ({r},{s},{v})")
    for r in range(nr):
        for v in range(nv):
            for w in range(nv):
                if la[r][bim.add[v][w]] != bim.add[la[r][v]][la[r][w]]:
                    raise BimoduleError(
                        f"left action does not distribute at ({r},{v},{w})"
                    )
                if ra[bim.add[v][w]][r] != bim.add[ra[v][r]][ra[w][r]]:
                    raise BimoduleError(
                        f"right action does not distribute at ({r},{v},{w})"
                    )
                if ra[bim.mul[v][w]][r] != bim.mul[v][ra[w][r]]:
                    raise BimoduleError(
                        f"(v w) r = v (w r) fails at ({v},{w},{r})"
                    )
                if bim.mul[ra[v][r]][w] != bim.mul[v][la[r][w]]:
                    raise BimoduleError(
                        f"(v r) w = v (r w) fails at ({v},{r},{w})"
                    )
                if bim.mul[la[r][v]][w] != la[r][bim.mul[v][w]]:
                    raise BimoduleError(
                        f"(r v) w = r (v w) fails at ({r},{v},{w})"
                    )


def brute_build_product(factors):
    """The direct product, one mixed-radix encode per table cell.

    This is the library's builder before it assembled rows arithmetically.
    """
    if not factors:
        raise ValueError("a product needs at least one factor")
    radices = [f.order for f in factors]
    order = math.prod(radices)
    check_size(order)
    decode = [mixed_radix_decode(i, radices) for i in range(order)]
    add = tuple(
        tuple(
            mixed_radix_encode(
                [f.add[x][y] for f, x, y in zip(factors, da, db)], radices
            )
            for db in decode
        )
        for da in decode
    )
    mul = tuple(
        tuple(
            mixed_radix_encode(
                [f.mul[x][y] for f, x, y in zip(factors, da, db)], radices
            )
            for db in decode
        )
        for da in decode
    )
    labels = tuple(
        "(" + ",".join(f.label(x) for f, x in zip(factors, d)) + ")" for d in decode
    )
    return FiniteRing(
        order=order,
        add=add,
        mul=mul,
        zero=mixed_radix_encode([f.zero for f in factors], radices),
        one=mixed_radix_encode([f.one for f in factors], radices),
        name="x".join(f.name for f in factors),
        labels=labels,
    )


# The three matrix builders below are the library's before it built every
# position pattern by rows; each decodes, multiplies and re-encodes one
# table cell at a time.


def grid_label(rows: Sequence[Sequence[int]], base: FiniteRing) -> str:
    """The label of the matrix with these rows of base elements, formatted
    here and not by the library: each row's entry labels in brackets,
    inside one more pair of brackets."""
    return "[%s]" % ",".join("[%s]" % ",".join(map(base.label, row)) for row in rows)


def brute_matrix_ring(base: FiniteRing, k: int) -> FiniteRing:
    """The full ``k x k`` matrix ring, entries packed row-major."""
    if k < 1:
        raise ValueError(f"matrix size must be positive, got {k}")
    n = base.order
    order = n ** (k * k)
    check_size(order)
    radices = [n] * (k * k)
    decode = [mixed_radix_decode(i, radices) for i in range(order)]

    def entry(d: Sequence[int], r: int, c: int) -> int:
        return d[r * k + c]

    badd, bmul = base.add, base.mul

    def mat_add(da, db):
        return mixed_radix_encode([badd[x][y] for x, y in zip(da, db)], radices)

    def mat_mul(da, db):
        out = []
        for r in range(k):
            for c in range(k):
                acc = base.zero
                for m in range(k):
                    acc = badd[acc][bmul[entry(da, r, m)][entry(db, m, c)]]
                out.append(acc)
        return mixed_radix_encode(out, radices)

    add = tuple(tuple(mat_add(da, db) for db in decode) for da in decode)
    mul = tuple(tuple(mat_mul(da, db) for db in decode) for da in decode)
    identity = [base.one if r == c else base.zero for r in range(k) for c in range(k)]
    labels = tuple(
        grid_label([d[r * k:(r + 1) * k] for r in range(k)], base) for d in decode
    )
    return FiniteRing(
        order=order,
        add=add,
        mul=mul,
        zero=mixed_radix_encode([base.zero] * (k * k), radices),
        one=mixed_radix_encode(identity, radices),
        name=f"M{k}({base.name})",
        labels=labels,
    )


def brute_upper_triangular(base: FiniteRing, k: int) -> FiniteRing:
    """The upper triangular ``k x k`` matrix ring; stored entries are the
    positions ``(r, c)`` with ``r <= c`` in row-major order."""
    if k < 1:
        raise ValueError(f"matrix size must be positive, got {k}")
    positions = [(r, c) for r in range(k) for c in range(r, k)]
    slot = {pos: i for i, pos in enumerate(positions)}
    n = base.order
    order = n ** len(positions)
    check_size(order)
    radices = [n] * len(positions)
    decode = [mixed_radix_decode(i, radices) for i in range(order)]
    badd, bmul = base.add, base.mul

    def tri_add(da, db):
        return mixed_radix_encode([badd[x][y] for x, y in zip(da, db)], radices)

    def tri_mul(da, db):
        out = []
        for r, c in positions:
            acc = base.zero
            for m in range(r, c + 1):
                acc = badd[acc][bmul[da[slot[r, m]]][db[slot[m, c]]]]
            out.append(acc)
        return mixed_radix_encode(out, radices)

    add = tuple(tuple(tri_add(da, db) for db in decode) for da in decode)
    mul = tuple(tuple(tri_mul(da, db) for db in decode) for da in decode)
    identity = [base.one if r == c else base.zero for r, c in positions]

    def tri_rows(d):
        return [
            [d[slot[r, c]] if r <= c else base.zero for c in range(k)]
            for r in range(k)
        ]

    labels = tuple(grid_label(tri_rows(d), base) for d in decode)
    return FiniteRing(
        order=order,
        add=add,
        mul=mul,
        zero=mixed_radix_encode([base.zero] * len(positions), radices),
        one=mixed_radix_encode(identity, radices),
        name=f"T{k}({base.name})",
        labels=labels,
    )


def brute_constant_diagonal_triangular(base: FiniteRing, k: int) -> FiniteRing:
    """Upper triangular ``k x k`` matrices with one shared diagonal entry.

    Stored digits are the diagonal value followed by the strictly upper
    entries ``(r, c)`` with ``r < c`` in row-major order.
    """
    if k < 1:
        raise ValueError(f"matrix size must be positive, got {k}")
    uppers = [(r, c) for r in range(k) for c in range(r + 1, k)]
    slot = {pos: i + 1 for i, pos in enumerate(uppers)}
    n = base.order
    order = n ** (1 + len(uppers))
    check_size(order)
    radices = [n] * (1 + len(uppers))
    decode = [mixed_radix_decode(i, radices) for i in range(order)]
    badd, bmul = base.add, base.mul

    def entry(d, r, c):
        if r == c:
            return d[0]
        return d[slot[r, c]]

    def cd_add(da, db):
        return mixed_radix_encode([badd[x][y] for x, y in zip(da, db)], radices)

    def cd_mul(da, db):
        out = [bmul[da[0]][db[0]]]
        for r, c in uppers:
            acc = base.zero
            for m in range(r, c + 1):
                acc = badd[acc][bmul[entry(da, r, m)][entry(db, m, c)]]
            out.append(acc)
        return mixed_radix_encode(out, radices)

    add = tuple(tuple(cd_add(da, db) for db in decode) for da in decode)
    mul = tuple(tuple(cd_mul(da, db) for db in decode) for da in decode)

    def cd_rows(d):
        return [[entry(d, r, c) if r <= c else base.zero for c in range(k)] for r in range(k)]

    labels = tuple(grid_label(cd_rows(d), base) for d in decode)
    one_digits = [base.one] + [base.zero] * len(uppers)
    return FiniteRing(
        order=order,
        add=add,
        mul=mul,
        zero=mixed_radix_encode([base.zero] * (1 + len(uppers)), radices),
        one=mixed_radix_encode(one_digits, radices),
        name=f"CT{k}({base.name})",
        labels=labels,
    )

# The quotient and corner builders from before both read their tables
# through `ringlab.core._induced_ring`, kept verbatim (memo dropped): each
# builds its own tables, zero, one and ring.


def reference_quotient(
    ring: FiniteRing, ideal: ElementSet
) -> tuple[FiniteRing, tuple[int, ...]]:
    members = ideal.indices()
    if not is_two_sided_ideal(ring, ideal):
        raise IdealError(
            f"subset {list(members)} is not a two-sided ideal of {ring.name}"
        )
    coset_of: list[int | None] = [None] * ring.order
    reps: list[int] = []
    for a in range(ring.order):
        if coset_of[a] is not None:
            continue
        members_of_a = sorted(ring.add[a][i] for i in members)
        rep_index = len(reps)
        reps.append(members_of_a[0])
        for m in members_of_a:
            coset_of[m] = rep_index
    # order cosets by least member; reps are discovered in ascending order
    proj = tuple(coset_of[a] for a in range(ring.order))  # type: ignore[misc]
    size = len(reps)
    add = tuple(
        tuple(proj[ring.add[reps[i]][reps[j]]] for j in range(size)) for i in range(size)
    )
    mul = tuple(
        tuple(proj[ring.mul[reps[i]][reps[j]]] for j in range(size)) for i in range(size)
    )
    labels = tuple(f"[{ring.label(r)}]" for r in reps)
    quotient = FiniteRing(
        order=size,
        add=add,
        mul=mul,
        zero=proj[ring.zero],
        one=proj[ring.one],
        name=f"{ring.name}/I{len(members)}",
        labels=labels,
    )
    return quotient, proj


def reference_corner(ring: FiniteRing, e: int) -> FiniteRing:
    if not 0 <= e < ring.order:
        raise ValueError(f"element {e} out of range for order {ring.order}")
    if ring.mul[e][e] != e:
        raise ValueError(f"element {e} is not idempotent in {ring.name}")
    for r in range(ring.order):
        if ring.mul[e][r] != ring.mul[r][e]:
            raise ValueError(f"idempotent {e} is not central in {ring.name}")
    members = sorted({ring.mul[e][r] for r in range(ring.order)})
    position = {m: i for i, m in enumerate(members)}
    add = tuple(
        tuple(position[ring.add[a][b]] for b in members) for a in members
    )
    mul = tuple(
        tuple(position[ring.mul[a][b]] for b in members) for a in members
    )
    labels = tuple(ring.label(m) for m in members)
    return FiniteRing(
        order=len(members),
        add=add,
        mul=mul,
        zero=position[ring.zero],
        one=position[e],
        name=f"{ring.name}|e{e}",
        labels=labels,
    )


def brute_delta_r3(ring):
    """Elements x such that every right ideal K with xR + K = R is eR for an
    idempotent e, scanning every right ideal and every idempotent."""
    n, add, mul = ring.order, ring.add, ring.mul
    whole = frozenset(range(n))
    summands = {frozenset(mul[e]) for e in brute_idempotents(ring)}
    ideal_list = brute_right_ideals(ring)
    out = set()
    for x in range(n):
        xr = set(mul[x])
        if all(
            k in summands or frozenset(add[a][b] for a in xr for b in k) != whole
            for k in ideal_list
        ):
            out.add(x)
    return frozenset(out)


# --------------------------------------------------------------------------
# reference companion finders
#
# The per-property searches that `ringlab.properties` used before its one
# spec-driven companion generator, kept verbatim (leading underscores
# dropped) as the reference for the differential test.  Each walks every
# idempotent and tests its centraliser membership one p at a time.


def target_bits(ring: FiniteRing, kind: str) -> int:
    if kind == "delta":
        return delta_mask(ring).bits
    if kind == "j":
        return jacobson(ring).bits
    if kind == "nil":
        return element_sets(ring)[2].bits
    raise ValueError(f"unknown target kind: {kind!r}")


def find_quasipolar(ring: FiniteRing, a: int) -> dict | None:
    units = element_sets(ring)[0].bits
    qnil = qnil_set(ring).bits
    dcomm = brute_double_commutant(ring, a)
    for p in element_sets(ring)[1].indices():
        if p not in dcomm:
            continue
        if (units >> ring.add[a][p]) & 1 and (qnil >> ring.mul[a][p]) & 1:
            return {"p": p}
    return None


def find_quasipolar_into(ring: FiniteRing, a: int, kind: str) -> dict | None:
    target = target_bits(ring, kind)
    dcomm = brute_double_commutant(ring, a)
    for p in element_sets(ring)[1].indices():
        if p not in dcomm:
            continue
        if (target >> ring.add[a][p]) & 1:
            return {"p": p}
    return None


def find_weakly_delta_quasipolar(ring: FiniteRing, a: int) -> dict | None:
    target = delta_mask(ring).bits
    comm = percell_commutant_bits(ring, a)
    for p in element_sets(ring)[1].indices():
        if (comm >> p) & 1 and (target >> ring.add[a][p]) & 1:
            return {"p": p}
    return None


def find_clean(ring: FiniteRing, a: int, strong: bool) -> dict | None:
    units = element_sets(ring)[0].bits
    for e in element_sets(ring)[1].indices():
        u = ring.sub(a, e)
        if not (units >> u) & 1:
            continue
        if strong and ring.mul[e][u] != ring.mul[u][e]:
            continue
        return {"e": e, "u": u}
    return None


def find_additive_clean(ring: FiniteRing, a: int, kind: str, strong: bool) -> dict | None:
    target = target_bits(ring, kind)
    for e in element_sets(ring)[1].indices():
        w = ring.sub(a, e)
        if not (target >> w) & 1:
            continue
        if strong and ring.mul[e][w] != ring.mul[w][e]:
            continue
        return {"e": e, "w": w}
    return None


def count_clean_decompositions(ring: FiniteRing, a: int) -> int:
    units = element_sets(ring)[0].bits
    return sum(
        1 for e in element_sets(ring)[1].indices() if (units >> ring.sub(a, e)) & 1
    )


def count_delta_decompositions(ring: FiniteRing, a: int) -> int:
    target = delta_mask(ring).bits
    return sum(
        1 for e in element_sets(ring)[1].indices() if (target >> ring.sub(a, e)) & 1
    )


REFERENCE_FINDERS = {
    "quasipolar": find_quasipolar,
    "nil-quasipolar": lambda R, a: find_quasipolar_into(R, a, "nil"),
    "j-quasipolar": lambda R, a: find_quasipolar_into(R, a, "j"),
    "delta-quasipolar": lambda R, a: find_quasipolar_into(R, a, "delta"),
    "weakly-delta-quasipolar": find_weakly_delta_quasipolar,
    "clean": lambda R, a: find_clean(R, a, strong=False),
    "strongly-clean": lambda R, a: find_clean(R, a, strong=True),
    "j-clean": lambda R, a: find_additive_clean(R, a, "j", strong=False),
    "strongly-j-clean": lambda R, a: find_additive_clean(R, a, "j", strong=True),
    "delta-r-clean": lambda R, a: find_additive_clean(R, a, "delta", strong=False),
    "strongly-delta-r-clean": lambda R, a: find_additive_clean(
        R, a, "delta", strong=True
    ),
}


def reference_companion(ring: FiniteRing, a: int, prop: str) -> tuple[dict | None, int | None]:
    """The (witnesses, witness_count) pair the old ``element_property`` gave
    for one of the thirteen companion properties."""
    if prop == "uniquely-clean":
        count = count_clean_decompositions(ring, a)
        witnesses = find_clean(ring, a, strong=False) if count == 1 else None
        return witnesses, count if witnesses else None
    if prop == "uniquely-delta-r-clean":
        count = count_delta_decompositions(ring, a)
        witnesses = (
            find_additive_clean(ring, a, "delta", strong=False) if count == 1 else None
        )
        return witnesses, count if witnesses else None
    return REFERENCE_FINDERS[prop](ring, a), None


def reference_spectral_candidates(ring: FiniteRing, a: int, flavor: str) -> tuple[int, ...]:
    units, idempotents, _ = element_sets(ring)
    comm, dcomm = brute_commutant(ring, a), brute_double_commutant(ring, a)
    out = []
    for p in idempotents.indices():
        if flavor == "weakly-delta":
            if p not in comm:
                continue
            if ring.add[a][p] in delta_mask(ring):
                out.append(p)
            continue
        if p not in dcomm:
            continue
        shifted = ring.add[a][p]
        if flavor == "quasipolar":
            if shifted in units and ring.mul[a][p] in qnil_set(ring):
                out.append(p)
        elif (target_bits(ring, flavor) >> shifted) & 1:
            out.append(p)
    return tuple(out)


# The per-element companion walk that `ringlab.properties` used before it
# built one mask of elements per idempotent, kept verbatim (leading
# underscores dropped): each element walks the idempotent mask in Python and
# tests its own centraliser, target and (for quasipolar) qnil bits.


def companions(ring: FiniteRing, a: int, prop: PropertyName):
    """Yield each idempotent companion of ``a`` for ``prop`` in ascending order."""
    centraliser, sign, target = _COMPANION_SPECS[prop]
    candidates = element_sets(ring)[1].bits & percell_centraliser(ring, centraliser, a)
    goal = _TARGETS[target](ring).bits
    # quasipolar also needs ap quasinilpotent; -1 has every bit set
    qnil = qnil_set(ring).bits if prop is PropertyName.QUASIPOLAR else -1
    add_a, mul_a = ring.add[a], ring.mul[a]
    neg = ring._neg_table()
    # walk the mask lazily: most callers stop at the first companion
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        p = low.bit_length() - 1
        shifted = add_a[p] if sign > 0 else add_a[neg[p]]
        if (goal >> shifted) & 1 and (qnil >> mul_a[p]) & 1:
            yield p


def search(ring: FiniteRing, a: int, prop: PropertyName) -> dict | None:
    """The named witnesses of ``prop`` at ``a``, or ``None`` when ``a`` fails it."""
    if prop in _COMPANION_SPECS:
        # a uniquely-* property needs exactly one companion, so look for two
        found = tuple(islice(companions(ring, a, prop), 1 + (prop in _UNIQUE)))
        if len(found) != 1:
            return None
        _, sign, target = _COMPANION_SPECS[prop]
        p = found[0]
        return {"p": p} if sign > 0 else {"e": p, _DIFFERENCE[target]: ring.sub(a, p)}
    return SHAPE_FINDERS[prop](ring, a)


def search_mask(ring: FiniteRing, prop: PropertyName) -> ElementSet:
    """The elements that :func:`search` finds witnesses for: the property's
    mask by the per-element walk and the reference finders."""
    bits = sum(1 << a for a in range(ring.order) if search(ring, a, prop) is not None)
    return ElementSet(bits, ring.order)


# --------------------------------------------------------------------------
# reference regularity and exchange finders
#
# The scans `ringlab.properties` used before it read aR from the principal
# ideal masks, kept verbatim (leading underscores dropped): each walks every
# candidate multiplier and returns the first hit, or ``None``.


def find_von_neumann_regular(ring: FiniteRing, a: int) -> dict | None:
    mul = ring.mul
    for b in range(ring.order):
        if mul[mul[a][b]][a] == a:
            return {"b": b}
    return None


def find_strongly_regular(ring: FiniteRing, a: int) -> dict | None:
    mul = ring.mul
    aa = mul[a][a]
    for b in range(ring.order):
        if mul[aa][b] == a:
            return {"b": b}
    return None


def find_strongly_pi_regular(ring: FiniteRing, a: int) -> dict | None:
    mul = ring.mul
    power = a
    for n in range(1, ring.order + 1):
        next_power = mul[power][a]
        for x in range(ring.order):
            if mul[next_power][x] == power:
                return {"n": n, "x": x}
        power = next_power
    return None


def exchange_idempotents(ring: FiniteRing, a: int) -> int:
    """The mask of the idempotents e with e in aR and 1 - e in (1 - a)R, from
    the two rows read as sets."""
    complement = ring.sub(ring.one, a)
    ar, cr = set(ring.mul[a]), set(ring.mul[complement])
    bits = 0
    for e in brute_idempotents(ring):
        if e in ar and ring.sub(ring.one, e) in cr:
            bits |= 1 << e
    return bits


def find_exchange(ring: FiniteRing, a: int) -> dict | None:
    mul = ring.mul
    complement = ring.sub(ring.one, a)
    for e in element_sets(ring)[1].indices():
        e_conj = ring.sub(ring.one, e)
        r_found = next((r for r in range(ring.order) if mul[a][r] == e), None)
        if r_found is None:
            continue
        s_found = next(
            (s for s in range(ring.order) if mul[complement][s] == e_conj), None
        )
        if s_found is None:
            continue
        return {"e": e, "r": r_found, "s": s_found}
    return None


SHAPE_FINDERS = {
    PropertyName.VON_NEUMANN_REGULAR: find_von_neumann_regular,
    PropertyName.STRONGLY_REGULAR: find_strongly_regular,
    PropertyName.STRONGLY_PI_REGULAR: find_strongly_pi_regular,
    PropertyName.EXCHANGE: find_exchange,
}


# --------------------------------------------------------------------------
# per-cell reference checks
#
# The library's axiom check and n^2 cross-checks before they became row
# operations, kept verbatim as the reference for the differential tests.
# Memos on the ring are dropped, so none of them fills or reads a library
# cache, and each calls the per-cell versions of the others.


def bfs_subgroup_generators(ring: FiniteRing, bits: int) -> list[int]:
    """Greedy generators of the additive subgroup ``bits``, by closure.

    Each generator is the least member of ``bits`` above the last one that
    is not yet reached.  The reached set starts at zero and is closed under
    x -> x+g for every generator g chosen so far, revisiting every reached
    element for each new generator.  It is well defined on any square table.
    """
    add = ring.add
    reached = 1 << ring.zero
    gens: list[int] = []
    candidates = bits & ~reached
    while candidates:
        g = (candidates & -candidates).bit_length() - 1
        gens.append(g)
        todo = bit_members(reached)
        while todo:
            x = todo.pop()
            for h in gens:
                y = add[x][h]
                if not (reached >> y) & 1:
                    reached |= 1 << y
                    todo.append(y)
        candidates = bits & ~reached & (-1 << (g + 1))
    return gens


def generator_verify_axioms(ring: FiniteRing, max_violations: int = 25) -> list[str]:
    """The O(n^2 |G|) checker: distributivity on every row and column against
    every additive generator g in G."""
    n = ring.order
    out: list[str] = []

    def push(message: str) -> bool:
        out.append(message)
        return len(out) >= max_violations

    if n < 1:
        return ["order must be at least 1"]
    for table_name, table in (("addition", ring.add), ("multiplication", ring.mul)):
        if len(table) != n or any(len(row) != n for row in table):
            return [f"{table_name} table is not {n} x {n}"]
        for i, row in enumerate(table):
            if 0 <= min(row) and max(row) < n:
                continue
            for j, value in enumerate(row):
                if not 0 <= value < n:
                    if push(f"{table_name} entry at ({i},{j}) is out of range"):
                        return out
    if out:
        return out
    if not 0 <= ring.zero < n:
        return ["zero index out of range"]
    if not 0 <= ring.one < n:
        return ["one index out of range"]

    # itemgetter below returns tuples, so rows are compared as tuples
    add = [tuple(row) for row in ring.add]
    mul = [tuple(row) for row in ring.mul]
    zero, one = ring.zero, ring.one
    for a, column in enumerate(zip(*add)):
        if add[a][zero] != a and push(f"zero is not an additive identity at {a}"):
            return out
        if zero not in add[a] and push(f"no additive inverse for {a}"):
            return out
        if add[a] == column:
            continue
        for b in range(n):
            if add[a][b] != add[b][a] and push(f"addition is not commutative at ({a},{b})"):
                return out
    for a in range(n):
        if (mul[a][one] != a or mul[one][a] != a) and push(
            f"one is not a multiplicative identity at {a}"
        ):
            return out

    gens = bfs_subgroup_generators(ring, (1 << n) - 1)
    # Each row comparison runs in C: itemgetter(*add[g])(row) is the tuple
    # of row[g + x] over all x.
    plus = {g: itemgetter(*add[g]) for g in gens}
    for g in gens:
        for a in range(n):
            if add[add[a][g]] != plus[g](add[a]):
                for b in range(n):
                    if add[add[a][g]][b] != add[a][add[g][b]] and push(
                        f"addition is not associative at ({a},{g},{b})"
                    ):
                        return out
    for side, rows in (("left", mul), ("right", zip(*mul))):
        # row[x] is ax on the left and xa on the right
        for a, row in enumerate(rows):
            times_a = itemgetter(*row)
            for g in gens:
                if plus[g](row) != times_a(add[row[g]]):
                    for x in range(n):
                        if row[add[g][x]] != add[row[g]][row[x]]:
                            where = f"{a},{g},{x}" if side == "left" else f"{g},{x},{a}"
                            if push(f"{side} distributivity fails at ({where})"):
                                return out
    for a in gens:
        for b in gens:
            ab = mul[a][b]
            for c in gens:
                if mul[ab][c] != mul[a][mul[b][c]] and push(
                    f"multiplication is not associative at ({a},{b},{c})"
                ):
                    return out
    return out


def percell_principal_bits(ring: FiniteRing) -> tuple[int, ...]:
    out = []
    for a in range(ring.order):
        bits = 0
        for ab in ring.mul[a]:
            bits |= 1 << ab
        out.append(bits)
    return tuple(out)


def percell_units_map(ring: FiniteRing) -> dict[int, int]:
    n, mul, one = ring.order, ring.mul, ring.one
    out = {}
    for a in range(n):
        for b in range(n):
            if mul[a][b] == one and mul[b][a] == one:
                out[a] = b
                break
    return out


def percell_neg_table(ring: FiniteRing) -> tuple[int, ...]:
    n, add, zero = ring.order, ring.add, ring.zero
    out = []
    for a in range(n):
        for b in range(n):
            if add[a][b] == zero:
                out.append(b)
                break
    return tuple(out)


def percell_commutant_bits(ring: FiniteRing, a: int) -> int:
    mul = ring.mul
    row = mul[a]
    bits = 0
    for x in range(ring.order):
        if row[x] == mul[x][a]:
            bits |= 1 << x
    return bits


# the ring last asked of percell_commutants, and its answers
_LAST_COMMUTANTS: list = [None, None]


def percell_commutants(ring: FiniteRing, a: int) -> tuple[int, int]:
    """comm(a) by the per-cell loop, and comm2(a): the x that commute with
    every member of comm(a), that is whose commutant holds comm(a).

    Every element's pair is taken at once and kept for the last ring asked,
    since the oracles that read them walk one ring element by element.
    """
    if _LAST_COMMUTANTS[0] is not ring:
        comm = [percell_commutant_bits(ring, x) for x in range(ring.order)]
        double = [sum(1 << x for x, cx in enumerate(comm) if not c & ~cx) for c in comm]
        _LAST_COMMUTANTS[:] = ring, list(zip(comm, double))
    return _LAST_COMMUTANTS[1][a]


def percell_centraliser(ring: FiniteRing, centraliser: str, a: int) -> int:
    """The mask of a companion spec's centraliser of ``a``: all of the ring,
    comm(a) or comm2(a)."""
    if centraliser == "all":
        return (1 << ring.order) - 1
    return percell_commutants(ring, a)[centraliser == "dcomm"]


def percell_jacobson_route_b(ring: FiniteRing) -> int:
    """The ``x`` such that ``1 - x y`` is a unit for every ``y``."""
    units, _, _ = element_sets(ring)
    one = ring.one
    route_b = 0
    for x in range(ring.order):
        row = ring.mul[x]
        if all(ring.sub(one, row[y]) in units for y in range(ring.order)):
            route_b |= 1 << x
    return route_b


def percell_qnil_bits(ring: FiniteRing) -> int:
    units, _, _ = element_sets(ring)
    one = ring.one
    bits = 0
    for a in range(ring.order):
        row = ring.mul[a]
        if all(
            ring.add[one][row[x]] in units
            for x in bit_members(percell_commutant_bits(ring, a))
        ):
            bits |= 1 << a
    return bits


def percell_delta_r5(ring: FiniteRing) -> int:
    pb = percell_principal_bits(ring)
    soc = socle(ring).bits
    semisimple_parts = [
        ideal for ideal in all_right_ideals(ring) if ideal.bits & ~soc == 0
    ]
    part_sizes = [(ideal.bits, len(ideal)) for ideal in semisimple_parts]
    zero_bit = 1 << ring.zero
    one = ring.one
    order = ring.order
    decided: dict[int, bool] = {}

    def complemented(z: int) -> bool:
        if z not in decided:
            zbits = pb[z]
            zsize = zbits.bit_count()
            decided[z] = any(
                zbits & ybits == zero_bit and zsize * ysize == order
                for ybits, ysize in part_sizes
            )
        return decided[z]

    bits = 0
    for x in range(order):
        row = ring.mul[x]
        if all(complemented(ring.add[one][row[y]]) for y in range(order)):
            bits |= 1 << x
    return bits


def percell_ideal_core_bits(ring: FiniteRing, bits: int) -> int:
    pb = percell_principal_bits(ring)
    out = 0
    for x in bit_members(bits):
        if all(pb[ring.mul[r][x]] & ~bits == 0 for r in range(ring.order)):
            out |= 1 << x
    return out


def column_scan_ideal_core_bits(ring: FiniteRing, bits: int) -> int:
    """The ideal core as the library computed it before it read the core off
    the additive generators' rows: one column scan per member."""
    outside = ~bits
    # inside[z] is 1 when zR lies in the ideal; column x of mul holds the rx
    inside = bytes(map((0).__eq__, map(outside.__and__, _principal_bits(ring))))
    out = 0
    for x in bit_members(bits):
        if all(map(inside.__getitem__, map(itemgetter(x), ring.mul))):
            out |= 1 << x
    return out


# --------------------------------------------------------------------------
# lattice predicates before whole-mask operations
#
# The member loop that decided I + K = R, the pairwise maximal and minimal
# filters and the idempotent scan for summand witnesses, kept verbatim
# (leading underscores and the memos dropped) as references for the mask
# code in `ringlab.ideals`.  Route 3 and the delta-small test with one coset
# per ideal, before each became one AND with a translated union, are kept
# the same way.


def member_sum_is_full(ring: FiniteRing, ideal_bits: int, other_bits: int) -> bool:
    """Whether ``I + K = R``, via: 1 = u + k for some u in I, k in K."""
    one = ring.one
    sub_row = ring.add[one]
    neg = ring._neg_table()
    for u in bit_members(ideal_bits):
        if (other_bits >> sub_row[neg[u]]) & 1:
            return True
    return False


def pairwise_maximal_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
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


def pairwise_minimal_right_ideals(ring: FiniteRing) -> tuple[ElementSet, ...]:
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


def scan_summand_witness(ring: FiniteRing, bits: int) -> int | None:
    """Least idempotent ``e`` with ``e R`` equal to the ideal, else ``None``."""
    pb = _principal_bits(ring)
    _, idempotents, _ = element_sets(ring)
    return next((e for e in idempotents.indices() if pb[e] == bits), None)


def member_one_plus_bits(ring: FiniteRing, bits: int) -> int:
    """The coset ``1 + K``: row 1 of ``add`` read at each member of ``K``."""
    row = ring.add[ring.one]
    return sum(1 << row[k] for k in bit_members(bits))


def coset_delta_r3(ring: FiniteRing) -> int:
    """Route 3 with one coset ``1 + K`` per non-summand ``K``: each distinct
    ``xR`` is ANDed with every coset in turn."""
    pb = _principal_bits(ring)
    # x R + K = R exactly when x R meets the coset 1 + K
    cosets = [
        member_one_plus_bits(ring, ideal.bits)
        for ideal in all_right_ideals(ring)
        if scan_summand_witness(ring, ideal.bits) is None
    ]
    decided: dict[int, bool] = {}
    bits = 0
    for x in range(ring.order):
        xr = pb[x]
        if xr not in decided:
            decided[xr] = not any(xr & coset for coset in cosets)
        if decided[xr]:
            bits |= 1 << x
    return bits


def coset_is_delta_small_bits(ring: FiniteRing, bits: int) -> bool:
    """The delta-small test with one coset ``1 + M`` per essential maximal
    right ideal ``M``, each maximal ideal found pairwise and judged essential
    by :func:`brute_is_essential`."""
    lattice = [frozenset(ideal.indices()) for ideal in all_right_ideals(ring)]
    cosets = [
        member_one_plus_bits(ring, m.bits)
        for m in pairwise_maximal_right_ideals(ring)
        if brute_is_essential(ring, m.indices(), lattice)
    ]
    return not any(bits & coset for coset in cosets)


# The ring-level right-pp and boolean loops from before they read von Neumann
# regularity and the idempotent mask, kept verbatim (leading underscores
# dropped) as references for `ringlab.properties`.


def ring_right_pp(ring: FiniteRing) -> tuple[bool, int | None]:
    """The least ``a`` whose ``aR`` is not a direct summand, if any."""
    pb = _principal_bits(ring)
    for a in range(ring.order):
        if scan_summand_witness(ring, pb[a]) is None:
            return False, a
    return True, None


def ring_boolean(ring: FiniteRing) -> tuple[bool, int | None]:
    for a in range(ring.order):
        if ring.mul[a][a] != a:
            return False, a
    return True, None


def permuted_ring(ring: FiniteRing, perm: Sequence[int]) -> FiniteRing:
    """The same ring with element ``a`` renamed ``perm[a]``."""
    n = ring.order
    inverse = [0] * n
    for a, image in enumerate(perm):
        inverse[image] = a
    add = tuple(
        tuple(perm[ring.add[inverse[x]][inverse[y]]] for y in range(n)) for x in range(n)
    )
    mul = tuple(
        tuple(perm[ring.mul[inverse[x]][inverse[y]]] for y in range(n)) for x in range(n)
    )
    return FiniteRing(
        order=n,
        add=add,
        mul=mul,
        zero=perm[ring.zero],
        one=perm[ring.one],
        name=ring.name,
        labels=tuple(ring.label(inverse[x]) for x in range(n)),
    )


def moving_permutation(ring: FiniteRing, rng) -> list[int]:
    """A random relabelling, for :func:`permuted_ring`, that moves zero and one."""
    perm = list(range(ring.order))
    while perm[ring.zero] == ring.zero or perm[ring.one] == ring.one:
        rng.shuffle(perm)
    return perm


# --------------------------------------------------------------------------
# reference claim checkers and certificate checks
#
# The claim checkers that became rows of `ringlab.claims._implies`,
# `_elementwise` and `_transfer`, the counterexample search before it read
# property masks, and the certificate checks before they were read off the
# companion spec table, kept verbatim (leading underscores dropped).  The
# mask below is the old one, one certificate decision per element, with its
# memo dropped.  A certificate reads membership off the library's mask, so
# a mask forced on a ring reaches the checkers that read this one; the
# independent mask is :func:`search_mask`.


def property_mask(ring: FiniteRing, prop) -> ElementSet:
    bits = 0
    for a in range(ring.order):
        if element_property(ring, a, prop) is not None:
            bits |= 1 << a
    return ElementSet(bits, ring.order)


def check_semisimple_or_boolean(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if _holds(ring, PropertyName.SEMISIMPLE) or _holds(ring, PropertyName.BOOLEAN):
            holds, witness = ring_property(ring, PropertyName.DELTA_QUASIPOLAR)
            if not holds:
                out.append(_witness(name, witness))
    return out


def check_j_implies_delta(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        for a in range(ring.order):
            if element_property(ring, a, PropertyName.J_QUASIPOLAR) is not None:
                if element_property(ring, a, PropertyName.DELTA_QUASIPOLAR) is None:
                    out.append(_witness(name, a))
                    break
    return out


def check_socle_in_radical_converse(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if socle(ring).is_subset(jacobson(ring)) and _holds(
            ring, PropertyName.DELTA_QUASIPOLAR
        ):
            holds, witness = ring_property(ring, PropertyName.J_QUASIPOLAR)
            if not holds:
                out.append(_witness(name, witness))
    return out


def check_conjugation_invariance(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        mask = property_mask(ring, PropertyName.DELTA_QUASIPOLAR)
        for u, u_inv in units_map(ring).items():
            for a in range(ring.order):
                conjugate = ring.mul[ring.mul[u_inv][a]][u]
                if (a in mask) != (conjugate in mask):
                    out.append(_witness(name, a, detail=f"conjugating unit {u}"))
                    break
            else:
                continue
            break
    return out


def check_shift_invariance(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        mask = property_mask(ring, PropertyName.DELTA_QUASIPOLAR)
        for a in range(ring.order):
            mirrored = ring.neg(ring.add[ring.one][a])
            if (a in mask) != (mirrored in mask):
                out.append(_witness(name, a))
                break
    return out


def check_delta_implies_weakly(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        strict = property_mask(ring, PropertyName.DELTA_QUASIPOLAR)
        weak = property_mask(ring, PropertyName.WEAKLY_DELTA_QUASIPOLAR)
        if strict.bits & ~weak.bits:
            bad = next(a for a in strict.indices() if a not in weak)
            out.append(_witness(name, bad))
    return out


def check_weakly_surjective_images(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if not _holds(ring, PropertyName.WEAKLY_DELTA_QUASIPOLAR):
            continue
        for ideal in two_sided_ideals(ring):
            quotient, _ = build_quotient(ring, ideal)
            holds, witness = ring_property(
                quotient, PropertyName.WEAKLY_DELTA_QUASIPOLAR
            )
            if not holds:
                out.append(
                    _witness(
                        name,
                        witness,
                        detail=f"image modulo {list(ideal.indices())} fails",
                    )
                )
                break
    return out


def check_weakly_corners(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if not _holds(ring, PropertyName.WEAKLY_DELTA_QUASIPOLAR):
            continue
        central_idempotents = set(element_sets(ring)[1].indices()) & brute_center(ring)
        for e in sorted(central_idempotents):
            corner = build_corner(ring, e)
            holds, witness = ring_property(corner, PropertyName.WEAKLY_DELTA_QUASIPOLAR)
            if not holds:
                out.append(
                    _witness(name, witness, detail=f"corner at idempotent {e} fails")
                )
                break
    return out


def check_weakly_equals_strongly_delta_r(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        for a in range(ring.order):
            weak = element_property(ring, a, PropertyName.WEAKLY_DELTA_QUASIPOLAR)
            strong = element_property(
                ring, ring.neg(a), PropertyName.STRONGLY_DELTA_R_CLEAN
            )
            if (weak is None) != (strong is None):
                out.append(_witness(name, a))
                break
    return out


# --------------------------------------------------------------------------
# the per-ring claim checkers before they decided one ring at a time
#
# The bespoke checkers and the `_implies` factory of `ringlab.claims`, each
# with its own loop over the catalog, kept verbatim (leading underscores
# dropped; the mask-based conjugation checker is `check_conjugation_masks`,
# since the per-element one above keeps its name).  `first_disagreement` is
# the old helper that pulls a mask back through an image on its own.


def first_disagreement(
    hyp: int, concl: int, image: Sequence[int] | None = None, iff: bool = False
) -> int | None:
    """The least ``a`` in the mask ``hyp`` whose image ``image[a]`` is not in
    the mask ``concl``; with ``iff``, the least ``a`` where the two differ."""
    if image is not None:
        flags = flags_from_mask(concl).ljust(len(image), b"\0")
        concl = mask_from_flags(bytes(map(flags.__getitem__, image)))
    bad = hyp ^ concl if iff else hyp & ~concl
    return (bad & -bad).bit_length() - 1 if bad else None


def check_five_characterizations(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        try:
            delta(ring)
        except DeltaDisagreement as err:
            out.append(_witness(name, detail=str(err)))
    return out


def check_conjugation_masks(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        mask = _mask(ring, PropertyName.DELTA_QUASIPOLAR)
        mul = ring.mul
        for u, u_inv in units_map(ring).items():
            conjugates = [mul[x][u] for x in mul[u_inv]]
            a = first_disagreement(mask, mask, conjugates, iff=True)
            if a is not None:
                out.append(_witness(name, a, detail=f"conjugating unit {u}"))
                break
    return out


def check_unit_spectral_identity(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if delta_mask(ring).bits != jacobson(ring).bits:
            continue
        if not _holds(ring, PropertyName.DELTA_QUASIPOLAR):
            continue
        for u in units_map(ring):
            if reference_spectral_candidates(ring, u, "delta") != (ring.one,):
                out.append(_witness(name, u))
                break
    return out


def check_two_in_delta(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if _holds(ring, PropertyName.DELTA_QUASIPOLAR):
            two = ring.add[ring.one][ring.one]
            if two not in delta_mask(ring):
                out.append(_witness(name, two))
    return out


def implies(*hypotheses, conclusion: PropertyName) -> Checker:
    """Every ring with all ``hypotheses`` (property names or predicates on
    rings) has ``conclusion``; a failure is witnessed by the least element
    failing the conclusion."""

    def check(ctx: SuiteContext) -> list[dict]:
        out = []
        for name, ring in ctx.items():
            if all(_holds(ring, h) for h in hypotheses):
                holds, witness = ring_property(ring, conclusion)
                if not holds:
                    out.append(_witness(name, witness))
        return out

    return check


def check_quotient_boolean_lifting(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if not _holds(ring, PropertyName.DELTA_QUASIPOLAR):
            continue
        ideal = delta_mask(ring)
        quotient, _ = build_quotient(ring, ideal)
        if not ring_property(quotient, PropertyName.BOOLEAN)[0]:
            out.append(_witness(name, detail="quotient by delta is not boolean"))
            continue
        lifts, bad = idempotents_lift(ring, ideal)
        if not lifts:
            out.append(
                _witness(name, bad, detail="idempotent does not lift along delta")
            )
    return out


def check_delta_r_clean_equivalence(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if _holds(ring, PropertyName.DELTA_QUASIPOLAR):
            holds, witness = ring_property(ring, PropertyName.DELTA_R_CLEAN)
            if not holds:
                out.append(_witness(name, witness, detail="not delta-r-clean"))
                continue
        if _holds(ring, PropertyName.ABELIAN) and _holds(
            ring, PropertyName.DELTA_R_CLEAN
        ):
            holds, witness = ring_property(ring, PropertyName.DELTA_QUASIPOLAR)
            if not holds:
                out.append(_witness(name, witness, detail="converse fails"))
    return out


def check_boolean_regular_chain(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        zero_only = delta_mask(ring).bits == 1 << ring.zero
        if zero_only and _holds(ring, PropertyName.DELTA_QUASIPOLAR):
            holds, witness = ring_property(ring, PropertyName.BOOLEAN)
            if not holds:
                out.append(_witness(name, witness, detail="trivial delta, not boolean"))
                continue
        if _holds(ring, PropertyName.BOOLEAN):
            for conclusion in (
                PropertyName.VON_NEUMANN_REGULAR,
                PropertyName.DELTA_QUASIPOLAR,
            ):
                holds, witness = ring_property(ring, conclusion)
                if not holds:
                    out.append(_witness(name, witness, detail=conclusion.value))
                    break
    return out


def check_trivial_idempotents_dichotomy(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        idempotents = element_sets(ring)[1]
        trivial_only = all(e in (ring.zero, ring.one) for e in idempotents.indices())
        if not trivial_only:
            continue
        left = _holds(ring, PropertyName.DELTA_QUASIPOLAR)
        quotient, _ = build_quotient(ring, delta_mask(ring))
        right = is_zmod2(ring) or is_zmod2(quotient)
        if left != right:
            out.append(
                _witness(
                    name,
                    detail=f"delta-quasipolar is {left} but the two-element test gives {right}",
                )
            )
    return out


def check_radical_chain(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if not _holds(ring, PropertyName.DELTA_QUASIPOLAR):
            continue
        dm, jm = delta_mask(ring), jacobson(ring)
        if dm.bits != jm.bits:
            continue
        nil = element_sets(ring)[2]
        qnil = qnil_set(ring)
        if not (jm.bits == qnil.bits == nil.bits == dm.bits):
            out.append(
                _witness(
                    name,
                    detail=(
                        f"J={list(jm.indices())}, qnil={list(qnil.indices())}, "
                        f"nil={list(nil.indices())}, delta={list(dm.indices())}"
                    ),
                )
            )
    return out


def check_local_five_equivalences(ctx: SuiteContext) -> list[dict]:
    out = []
    for name, ring in ctx.items():
        if not _holds(ring, PropertyName.LOCAL):
            continue
        if jacobson(ring).bits == 1 << ring.zero:
            continue
        quotient_j, _ = build_quotient(ring, jacobson(ring))
        quotient_d, _ = build_quotient(ring, delta_mask(ring))
        values = [
            _holds(ring, PropertyName.WEAKLY_DELTA_QUASIPOLAR),
            _holds(ring, PropertyName.STRONGLY_J_CLEAN),
            _holds(ring, PropertyName.UNIQUELY_CLEAN),
            is_zmod2(quotient_j),
            is_zmod2(quotient_d),
        ]
        if len(set(values)) > 1:
            out.append(_witness(name, detail=f"equivalence chain breaks: {values}"))
    return out


def check_dorroh_transfer(ctx: SuiteContext) -> list[dict]:
    """The Dorroh transfer checker from before it read the abelian decision
    and delta(P): it builds each base's extension data and compares row e
    of the left action with column e of the right one."""
    out = []
    for entry in ctx.entries:
        if (base := dorroh_base(entry.recipe)) is None:
            continue
        extension = ctx.rings[entry.name]
        data = dorroh_of_ring(base)
        ext_delta_qp = _holds(extension, PropertyName.DELTA_QUASIPOLAR)
        base_delta_qp = _holds(base, PropertyName.DELTA_QUASIPOLAR)
        if ext_delta_qp and not base_delta_qp:
            out.append(_witness(entry.name, detail="base ring fails to inherit"))
            continue
        # e.v = v.e for every v: row e of the left action is column e of the right
        idempotents_commute = all(
            data.left_action[e] == tuple(row[e] for row in data.right_action)
            for e in element_sets(base)[1].indices()
        )
        bim_full_delta = delta_mask(data.bimodule).bits == (1 << data.bimodule.order) - 1
        if base_delta_qp and idempotents_commute and bim_full_delta and not ext_delta_qp:
            out.append(_witness(entry.name, detail="extension fails despite hypotheses"))
    return out


def search_counterexample(
    hypotheses: Sequence, conclusion, entries: Sequence[CatalogEntry],
    rings: dict | None = None,
) -> dict | None:
    """First catalog element satisfying all hypotheses but not the conclusion.

    Ring-only properties are evaluated once per ring; element-level
    properties are evaluated per element.  Returns ``{"ring", "element"}`` or
    ``None`` when the implication survives the whole catalog.
    """
    from ringlab.properties import _coerce

    hyp_props = [_coerce(p) for p in hypotheses]
    concl_prop = _coerce(conclusion)
    ring_only = PropertyName.ring_only()
    built = dict(rings) if rings else {}

    def satisfied(ring: FiniteRing, prop: PropertyName, a: int) -> bool:
        if prop in ring_only:
            return ring_property(ring, prop)[0]
        return element_property(ring, a, prop) is not None

    for entry in entries:
        if entry.name not in built:
            built[entry.name] = build_entry(entry)
        ring = built[entry.name]
        for a in range(ring.order):
            if all(satisfied(ring, p, a) for p in hyp_props) and not satisfied(
                ring, concl_prop, a
            ):
                return {"ring": entry.name, "element": a}
    return None



def certificate_checks(
    ring: FiniteRing, prop: PropertyName, a: int, witnesses: dict
) -> tuple[tuple[str, bool], ...]:
    units, idempotents, nilpotents = element_sets(ring)
    checks: list[tuple[str, bool]] = []

    def idempotent_check(name: str, value: int):
        checks.append((f"{name} is idempotent", value in idempotents))

    def unique_check(target: ElementSet):
        count = sum(ring.sub(a, f) in target for f in idempotents.indices())
        checks.append(("the decomposition is unique", count == 1))

    if prop in (
        PropertyName.QUASIPOLAR,
        PropertyName.NIL_QUASIPOLAR,
        PropertyName.J_QUASIPOLAR,
        PropertyName.DELTA_QUASIPOLAR,
        PropertyName.WEAKLY_DELTA_QUASIPOLAR,
    ):
        p = witnesses["p"]
        idempotent_check("p", p)
        comm, dcomm = (ElementSet(bits, ring.order) for bits in percell_commutants(ring, a))
        if prop is PropertyName.WEAKLY_DELTA_QUASIPOLAR:
            checks.append(("p commutes with the element", p in comm))
        else:
            checks.append(("p double-commutes with the element", p in dcomm))
        shifted = ring.add[a][p]
        if prop is PropertyName.QUASIPOLAR:
            checks.append(("element plus p is a unit", shifted in units))
            checks.append(
                ("element times p is quasinilpotent", ring.mul[a][p] in qnil_set(ring))
            )
        elif prop is PropertyName.NIL_QUASIPOLAR:
            checks.append(("element plus p is nilpotent", shifted in nilpotents))
        elif prop is PropertyName.J_QUASIPOLAR:
            checks.append(
                ("element plus p lies in the Jacobson radical", shifted in jacobson(ring))
            )
        else:
            checks.append(("element plus p lies in delta", shifted in delta_mask(ring)))
    elif prop in (
        PropertyName.CLEAN,
        PropertyName.STRONGLY_CLEAN,
        PropertyName.UNIQUELY_CLEAN,
    ):
        e, u = witnesses["e"], witnesses["u"]
        idempotent_check("e", e)
        checks.append(("u is a unit", u in units))
        checks.append(("e + u equals the element", ring.add[e][u] == a))
        if prop is PropertyName.STRONGLY_CLEAN:
            checks.append(("e and u commute", ring.mul[e][u] == ring.mul[u][e]))
        if prop is PropertyName.UNIQUELY_CLEAN:
            unique_check(units)
    elif prop in (
        PropertyName.J_CLEAN,
        PropertyName.STRONGLY_J_CLEAN,
        PropertyName.DELTA_R_CLEAN,
        PropertyName.STRONGLY_DELTA_R_CLEAN,
        PropertyName.UNIQUELY_DELTA_R_CLEAN,
    ):
        e, w = witnesses["e"], witnesses["w"]
        idempotent_check("e", e)
        if prop in (PropertyName.J_CLEAN, PropertyName.STRONGLY_J_CLEAN):
            checks.append(("w lies in the Jacobson radical", w in jacobson(ring)))
        else:
            checks.append(("w lies in delta", w in delta_mask(ring)))
        checks.append(("e + w equals the element", ring.add[e][w] == a))
        if prop in (PropertyName.STRONGLY_J_CLEAN, PropertyName.STRONGLY_DELTA_R_CLEAN):
            checks.append(("e and w commute", ring.mul[e][w] == ring.mul[w][e]))
        if prop is PropertyName.UNIQUELY_DELTA_R_CLEAN:
            unique_check(delta_mask(ring))
    elif prop is PropertyName.VON_NEUMANN_REGULAR:
        b = witnesses["b"]
        checks.append(("a b a equals a", ring.mul[ring.mul[a][b]][a] == a))
    elif prop is PropertyName.STRONGLY_REGULAR:
        b = witnesses["b"]
        checks.append(("a a b equals a", ring.mul[ring.mul[a][a]][b] == a))
    elif prop is PropertyName.STRONGLY_PI_REGULAR:
        n, x = witnesses["n"], witnesses["x"]
        mul = ring.mul
        checks.append(("the exponent is at least 1", n >= 1))
        if n >= 1:
            power = a
            for _ in range(n - 1):
                power = mul[power][a]
            checks.append(
                ("a^n equals a^(n+1) x", mul[mul[power][a]][x] == power)
            )
    elif prop is PropertyName.EXCHANGE:
        e, r, s = witnesses["e"], witnesses["r"], witnesses["s"]
        idempotent_check("e", e)
        checks.append(("a r equals e", ring.mul[a][r] == e))
        checks.append(
            (
                "(1 - a) s equals 1 - e",
                ring.mul[ring.sub(ring.one, a)][s] == ring.sub(ring.one, e),
            )
        )
    else:
        raise ValueError(f"property {prop.value} has no element certificates")
    return tuple(checks)
