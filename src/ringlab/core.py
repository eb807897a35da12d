"""Finite unital rings as dense Cayley tables.

Everything downstream works with a :class:`FiniteRing`: two ``order x order``
tables (addition and multiplication), distinguished ``zero`` and ``one``
indices, and optional human-readable element labels.  Subsets of a ring are
packed into integers (:class:`ElementSet`) so that lattice and radical
computations reduce to bit arithmetic.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import chain, compress, product, repeat, starmap
from operator import eq, getitem, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

DEFAULT_SIZE_CAP = 4096
SIZE_CAP_ENV = "RINGLAB_SIZE_CAP"
MAX_VIOLATIONS = 25


class RinglabError(Exception):
    """Base class for all library errors."""


class SizeCapError(RinglabError):
    """A construction or load would exceed the configured size cap."""


class AxiomError(RinglabError):
    """A table fails the ring axioms; carries the list of violations."""

    def __init__(self, violations: Sequence[str]):
        preview = "; ".join(violations[:3])
        if len(violations) > 3:
            preview += "; ..."
        super().__init__(f"ring axioms violated: {preview}")
        self.violations = list(violations)


class IdealError(RinglabError):
    """An argument that must be a (one- or two-sided) ideal is not one."""


class BimoduleError(RinglabError):
    """Bimodule data for a Dorroh extension fails its axioms."""


class LatticeLimitError(RinglabError):
    """Ideal enumeration exceeded the requested limit."""


class ComputationFault(RinglabError):
    """Two independent computations of the same object disagreed."""


def _size_cap() -> int:
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SizeCapError(
            f"size cap variable {SIZE_CAP_ENV} is not an integer: {raw!r}"
        ) from None
    if cap < 1:
        raise SizeCapError(f"size cap variable {SIZE_CAP_ENV} must be positive, got {cap}")
    return cap


def _quoted(value) -> str:
    """``value`` as an error message shows it, in about 40 characters: an int
    past 20 digits as its first ten and its digit count, with no ``str()`` of
    the whole int (refused past 4300 digits); anything else as its cut repr."""
    size = abs(value) if type(value) is int else 0
    if size < 10**20:
        text = repr(value)
        return text if len(text) <= 40 else text[:37] + "..."
    digits = int(size.bit_length() * math.log10(2)) + 2  # at most 2 too many
    while size < 10 ** (digits - 1):
        digits -= 1
    return f"{'-' * (value < 0)}{size // 10 ** (digits - 10)}... ({digits} digits)"


def check_size(order: int) -> None:
    """Raise :class:`SizeCapError` if a ring of this order may not be built."""
    cap = _size_cap()
    if order > cap:
        raise SizeCapError(f"ring order {_quoted(order)} exceeds the size cap {cap}")


# --------------------------------------------------------------------------
# element sets


@dataclass(frozen=True)
class ElementSet:
    """A subset of ``{0, ..., size - 1}`` packed into the bits of an int."""

    bits: int
    size: int

    @classmethod
    def empty(cls, size: int) -> "ElementSet":
        return cls(0, size)

    @classmethod
    def full(cls, size: int) -> "ElementSet":
        return cls((1 << size) - 1, size)

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "ElementSet":
        bits = 0
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(f"index {i} out of range for size {size}")
            bits |= 1 << i
        return cls(bits, size)

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_members(self.bits))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.size and bool((self.bits >> i) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __or__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.bits | other.bits, self.size)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.bits & other.bits, self.size)

    def is_subset(self, other: "ElementSet") -> bool:
        return self.bits & ~other.bits == 0

    def complement(self) -> "ElementSet":
        return ElementSet(~self.bits & ((1 << self.size) - 1), self.size)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self), self.indices())

    def to_json(self) -> list[int]:
        return list(self.indices())


def bit_members(bits: int) -> list[int]:
    """Indices of the set bits of ``bits`` in ascending order.

    A dense mask is read through its flags in C.  A sparse one is peeled a
    bit at a time, each step copying the int, which is cheaper only while
    few bits are set.
    """
    if bits.bit_count() << 4 > bits.bit_length() + 64:
        return list(compress(range(bits.bit_length()), flags_from_mask(bits)))
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


_FLAG_TO_DIGIT = bytes.maketrans(b"\0\1", b"01")
_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\0\1")


def mask_from_flags(flags: bytes) -> int:
    """The mask with bit i set where ``flags[i]`` is 1; each flag is 0 or 1.

    The flags become binary digits and are read as one int, all in C.
    """
    return int(flags.translate(_FLAG_TO_DIGIT)[::-1], 2)


def flags_from_mask(bits: int) -> bytes:
    """``flags[i]`` is 1 where bit i of ``bits`` is set, up to the highest set
    bit, so ``itertools.compress(row, flags)`` keeps the members of a row."""
    return bin(bits)[:1:-1].encode().translate(_DIGIT_TO_FLAG)


def _picker(indices: Iterable[int]):
    """``itemgetter(*indices)``, but a tuple also for one index."""
    indices = tuple(indices)
    if len(indices) == 1:
        return lambda seq, i=indices[0]: (seq[i],)
    return itemgetter(*indices)


# --------------------------------------------------------------------------
# rings


_MISSING = object()


def memo(fn):
    """Cache ``fn(ring, *args)`` in ``ring._cache`` under ``(fn, *args)``.

    Every derived fact of a ring is cached this way and by nothing else.
    Nothing is stored when ``fn`` raises, so a failed computation is redone.
    """

    @functools.wraps(fn)
    def cached(ring, *args):
        key = (fn, *args)
        value = ring._cache.get(key, _MISSING)
        if value is _MISSING:
            value = ring._cache[key] = fn(ring, *args)
        return value

    return cached


@dataclass(frozen=True)
class FiniteRing:
    """A finite unital ring given by full addition and multiplication tables."""

    order: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    name: str
    labels: tuple[str, ...] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    @memo
    def _neg_table(self) -> tuple[int, ...]:
        """Each element's additive inverse: row -1 of ``mul``, as (-1) a = -a.

        This holds in every ring, so on a constructed or verified ring; on
        unchecked tables it may be wrong.
        """
        return self.mul[self.add[self.one].index(self.zero)]

    def neg(self, i: int) -> int:
        return self._neg_table()[i]

    def sub(self, i: int, j: int) -> int:
        return self.add[i][self._neg_table()[j]]


def _check_element(ring: FiniteRing, a: int, what: str = "element") -> None:
    if not 0 <= a < ring.order:
        raise ValueError(f"{what} {a} out of range for order {ring.order}")


def renamed(ring: FiniteRing, name: str) -> FiniteRing:
    """A copy of ``ring`` carrying a different display name (fresh cache)."""
    if ring.name == name:
        return ring
    return replace(ring, name=name)


# --------------------------------------------------------------------------
# axiom verification


def verify_axioms(ring: FiniteRing) -> list[str]:
    """Check the ring axioms; return up to ``MAX_VIOLATIONS`` violations, each
    at a real coordinate.

    Table shape and range (a row at a time in C, a failing row cell by
    cell), the additive identity on both sides, inverses and the unit are
    checked per element.  An entry that is not an ``int`` is a violation;
    ``True`` and ``False`` are ints to Python and pass here, and ring files
    refuse them in :func:`_int_rows`.  Everything else is checked along one
    walk of (R,+), :func:`_normal_form`: greedy generators g_1..g_k, and a
    tree edge p -> p + g into every x != 0 plus one wrap edge per generator.

    - Addition.  With L_x the translation y -> x + y, check L_(p+g) =
      L_p o L_g (one row) and p + g = g + p (one cell) on every edge, and on
      every pair (h, g) with h chosen after g.  Then the L_g commute, every
      L_x is a word in them, and the wrap edges cap the monoid they
      generate at n maps.  The n maps L_x are distinct, since L_x(0) = x, so
      they are the whole monoid, and L_x o L_y = L_(x+y): + is associative
      and commutative.  If the walk steps onto an element it has already
      reached, the same check runs on every (a, g) for the generators
      chosen so far, and it must fail: were it to pass, the earlier L_s
      would form a group and force L_g to be non-injective, which g + h = 0
      rules out at (h, g).  If addition fails, its violations are returned
      and nothing else is checked.
    - Distributivity along the tree.  A map f is additive iff f(p + g) =
      f(p) + f(g) on the edges: the wrap edges give r_i f(g_i) =
      f(r_i g_i), the relations of a presentation of (R,+) on the g_i, so
      the f(g_i) extend to a homomorphism, and the tree edges show that it
      is f.  Every column map x -> xa is checked this way, then the row maps
      x -> gx of the generators only: by right distributivity each row map
      is a sum of these, so it is additive.
    - With both, the associator (ab)c - a(bc) is additive in each argument,
      so it vanishes on R^3 once it vanishes on the generator triples.

    The k <= log2 n generators make this O(n^2) in all.
    """
    n = ring.order
    out: list[str] = []

    def push(message: str) -> bool:
        out.append(message)
        return len(out) >= MAX_VIOLATIONS

    if n < 1:
        return ["order must be at least 1"]
    # an entry in [0, n) reads itself from the n shared ints, one in [-n, 0)
    # a larger int, and any other raises
    shared = tuple(range(n))
    for table_name, table in (("addition", ring.add), ("multiplication", ring.mul)):
        if len(table) != n or any(len(row) != n for row in table):
            return [f"{table_name} table is not {n} x {n}"]
        for i, row in enumerate(table):
            try:
                if _picker(row)(shared) == tuple(row):
                    continue
            except (TypeError, IndexError):
                pass
            for j, value in enumerate(row):
                if not isinstance(value, int):
                    if push(f"{table_name} entry at ({i},{j}) is not an int"):
                        return out
                elif not 0 <= value < n:
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
    mul = ring.mul
    zero, one = ring.zero, ring.one
    for a in range(n):
        if add[a][zero] != a and push(f"zero is not an additive identity at {a}"):
            return out
        if add[zero][a] != add[a][zero] and push(
            f"addition is not commutative at ({zero},{a})"
        ):
            return out
        if zero not in add[a] and push(f"no additive inverse for {a}"):
            return out

    gens, edges = _normal_form(ring, (1 << n) - 1)
    if edges is None:
        pairs = [(g, range(n)) for g in gens]
    else:
        pairs = [(g, parents + gens[i + 1 :]) for i, (g, parents, _) in enumerate(edges)]
    for g, sources in pairs:
        # itemgetter(*add[g])(add[a]) is the row of a + (g + x) over all x, in C
        plus_g = itemgetter(*add[g])
        for a in sources:
            if add[a][g] != add[g][a] and push(f"addition is not commutative at ({a},{g})"):
                return out
            if add[add[a][g]] != plus_g(add[a]):
                for b in range(n):
                    if add[add[a][g]][b] != add[a][add[g][b]] and push(
                        f"addition is not associative at ({a},{g},{b})"
                    ):
                        return out
    if out:
        return out
    for a in range(n):
        if (mul[a][one] != a or mul[one][a] != a) and push(
            f"one is not a multiplicative identity at {a}"
        ):
            return out

    groups = [(g, itemgetter(*ps), itemgetter(*xs)) for g, ps, xs in edges]

    def additive(f: Sequence[int]) -> bool:
        # f(p + g) = f(g) + f(p) on every edge of one generator, in C; + is
        # commutative by now, and a generator has a tree edge and its wrap
        # edge, so parents(f) is a tuple
        return all(
            children(f) == itemgetter(*parents(f))(add[f[g]])
            for g, parents, children in groups
        )

    # f[x] is xa on the right and ax on the left
    generator_rows = ((g, mul[g]) for g in gens)
    for side, maps in (("right", enumerate(zip(*mul))), ("left", generator_rows)):
        for a, f in maps:
            if additive(f):
                continue
            for g, parents, children in edges:
                for p, x in zip(parents, children):
                    if f[x] != add[f[p]][f[g]]:
                        where = f"{p},{g},{a}" if side == "right" else f"{a},{p},{g}"
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


@memo
def _normal_form(
    ring: FiniteRing, bits: int
) -> tuple[list[int], list[tuple[int, list[int], list[int]]] | None]:
    """Greedy generators of the additive subgroup ``bits`` and the edges of
    :func:`verify_axioms`, from one walk; cached per mask.

    Each generator g is the least member of ``bits`` above the last one that
    is not yet reached.  The cosets of H = <earlier generators> are stepped
    by g, in walk order, until the next step of the first coset's first
    member lands in H.  The edges come grouped by generator as ``(g,
    parents, children)`` with ``children[j] = parents[j] + g``: the tree
    edges, then that wrap edge last.

    On any square table each step reaches only new elements, or the walk
    ends there with the edges ``None``, so it ends within n steps.  On an
    abelian group it never ends early, and H_i = <g_1..g_i> has the
    normal forms c_1 g_1 + ... + c_i g_i with 0 <= c_j < [H_j : H_(j-1)].
    """
    add = ring.add
    members = [ring.zero]
    reached = 1 << ring.zero
    gens: list[int] = []
    edges = []
    candidates = bits & ~reached
    while candidates:
        g = (candidates & -candidates).bit_length() - 1
        gens.append(g)
        row_g = add[g]
        below = reached
        parents: list[int] = []
        children: list[int] = []
        coset = members
        # coset[0] is c g; the coset is new until (c + 1) g is in H
        while not (below >> row_g[coset[0]]) & 1:
            shifted = [row_g[y] for y in coset]
            for x in shifted:
                if (reached >> x) & 1:
                    return gens, None
                reached |= 1 << x
            parents += coset
            children += shifted
            coset = shifted
        edges.append((g, parents + [coset[0]], children + [row_g[coset[0]]]))
        members = members + children
        candidates = bits & ~reached & (-1 << (g + 1))
    return gens, edges


def _subgroup_generators(ring: FiniteRing, bits: int) -> list[int]:
    """Greedy generators of the additive subgroup ``bits``: the generators of
    :func:`_normal_form`."""
    return _normal_form(ring, bits)[0]


def _is_subgroup(ring: FiniteRing, bits: int) -> bool:
    """Whether the mask is an additive subgroup.  The walk of
    :func:`_normal_form` reaches zero, every member of the mask and the rest
    of the subgroup they generate, one element per edge but the wrap edges,
    so the mask is that subgroup exactly when it has as many members."""
    edges = _normal_form(ring, bits)[1]
    return edges is not None and 1 + sum(len(p) - 1 for _, p, _ in edges) == bits.bit_count()


@memo
def _coset_leaders(ring: FiniteRing, bits: int) -> tuple[int, ...]:
    """The least member of ``a + S`` for each ``a``, for the additive
    subgroup ``S`` of the mask; cached.  Row ``a`` of ``add`` read at the
    members of ``S`` lists ``a + S``, and ``a`` leads it when no smaller
    element has listed it: n table reads in all."""
    members = bit_members(bits)
    leaders = [None] * ring.order
    for a, row in enumerate(ring.add):
        if leaders[a] is None:
            for b in map(row.__getitem__, members):
                leaders[b] = a
    return tuple(leaders)


# --------------------------------------------------------------------------
# constructors


def build_zmod(n: int) -> FiniteRing:
    """The ring of integers modulo ``n``."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    check_size(n)
    # every cell points at one of the n ints of base: row a of + is a
    # rotation; row a of * walks base in steps of a when a is 1 or a prime,
    # and is row m read at the cells of row p when a = p m with p = least[a]
    # its least prime factor, since a x = m (p x)
    base = tuple(range(n))
    add = tuple(base[a:] + base[:a] for a in range(n))
    least = list(range(n))
    for p in range(math.isqrt(n - 1), 1, -1):  # the least p written last
        least[p * p :: p] = [p] * len(range(p * p, n, p))
    mul = [(0,) * n]
    for a in range(1, n):
        p = least[a]
        if p < a:
            mul.append(itemgetter(*mul[p])(mul[a // p]))
        else:
            mul.append(tuple([base[x % n] for x in range(0, a * n, a)]))
    return FiniteRing(
        order=n,
        add=add,
        mul=tuple(mul),
        zero=0,
        one=1 % n,
        name=f"Z{n}",
        labels=tuple(str(i) for i in range(n)),
    )


def build_product(factors: Sequence[FiniteRing]) -> FiniteRing:
    """The direct product; component tuples are packed last factor fastest."""
    if not factors:
        raise ValueError("a product needs at least one factor")
    order = math.prod(f.order for f in factors)
    check_size(order)
    last = factors[-1]
    add, mul, zero, one, width = last.add, last.mul, last.zero, last.one, last.order
    # Mixed-radix packing is associative, d1*(n2*n3) + (d2*n3 + d3) =
    # (d1*n2 + d2)*n3 + d3, so folding from the right keeps the last factor
    # fastest and gives the same tables, with the wide operand on the right.
    for f in reversed(factors[:-1]):
        add = _pair_table(f.add, add)
        mul = _pair_table(f.mul, mul)
        zero += f.zero * width
        one += f.one * width
        width *= f.order
    labels = tuple(
        "(" + ",".join(parts) + ")"
        for parts in product(*([f.label(x) for x in range(f.order)] for f in factors))
    )
    return FiniteRing(
        order=order,
        add=add,
        mul=mul,
        zero=zero,
        one=one,
        name="x".join(f.name for f in factors),
        labels=labels,
    )


def _pair_table(
    left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The table of a two-factor product; pair ``(i, j)`` has index ``i*m + j``
    where ``m = len(right)``."""
    m = len(right)
    ints = tuple(range(len(left) * m))
    spans = [ints[a * m : (a + 1) * m] for a in range(len(left))]
    rows: list = [None] * len(ints)
    for j, right_row in enumerate(right):
        # shifted[a] is the block of row (i, j) under the columns (k, .) with
        # left[i][k] = a, so each row is a concatenation of these blocks.  The
        # blocks are read out of the shared ints, so every cell is one of the
        # len(left) * m ints, as in build_zmod.  A wide right operand makes
        # each row a few long blocks.
        shifted = list(map(_picker(right_row), spans))
        for i, left_row in enumerate(left):
            blocks = map(shifted.__getitem__, left_row)
            rows[i * m + j] = tuple(chain.from_iterable(blocks))
    return tuple(rows)


def _sum_row(add: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The row whose entry at the packed index of ``(i_1, ..., i_d)``, first
    digit most significant, is ``columns[0][i_1] + ... + columns[-1][i_d]``.
    It folds from the right, as :func:`build_product` does: the wide row so
    far is read through one ``itemgetter`` at row x of ``add`` for each x of
    the next column, so each cell is a cell of ``add``."""
    row = columns[-1]
    for column in reversed(columns[:-1]):
        row = tuple(chain.from_iterable(map(_picker(row), map(add.__getitem__, column))))
    return tuple(row)


# the k x k pattern rings by preset head: the name prefix, the number of
# stored digits for k, and the cells of :func:`_pattern_ring` for k
_PATTERNS = {
    "mat": ("M", lambda k: k * k, lambda k: [[(r, c)] for r in range(k) for c in range(k)]),
    "tri": ("T", lambda k: k * (k + 1) // 2,
            lambda k: [[(r, c)] for r in range(k) for c in range(r, k)]),
    "cdtri": ("CT", lambda k: 1 + k * (k - 1) // 2,
              lambda k: [[(r, r) for r in range(k)]]
              + [[(r, c)] for r in range(k) for c in range(r + 1, k)]),
}


def _pattern_ring(base: FiniteRing, k: int, head: str) -> FiniteRing:
    """The ``k x k`` matrices over ``base`` that follow the position pattern
    ``_PATTERNS[head]``.

    ``cells[i]`` lists the positions ``(r, c)`` that share stored digit i;
    positions in no cell hold zero.  The pattern must hold the identity and be
    closed under products, so digit t of a product is read at cells[t][0].
    Digits are packed in cell order, the last fastest, so (R,+) is base^d for
    d cells and its table folds as in :func:`build_product`.  b -> ab is
    additive, so row a of the product table is :func:`_sum_row` of the d lists
    of ``a E_j(v)`` over v, read off a's digits, where ``E_j(v)`` holds v on
    cell j and zero elsewhere.  Every label fills one template.
    """
    prefix, digit_count, cells_for = _PATTERNS[head]
    d = digit_count(k)
    _check_pattern_digits(k, d)
    n, zero = base.order, base.zero
    order = n**d
    check_size(order)
    cells = cells_for(k)
    add = base.add
    for _ in cells[1:]:
        add = _pair_table(base.add, add)
    first = [cell[0] for cell in cells]
    digit_at = {position: i for i, cell in enumerate(cells) for position in cell}
    # Entry (r, c) of a E_j(v) sums a[r][m] v over the (m, c) in cell j.  In
    # mat, tri and cdtri a cell has at most one position in any column, so it
    # is a's digit at (r, m) times v, or zero.  sources[j] lists the pairs
    # (t, s) where digit t of a E_j(v) is a's digit s times v.
    sources = [[] for _ in cells]
    for j, cell in enumerate(cells):
        for m, c in cell:
            for t, (r, col) in enumerate(first):
                if col == c and (r, m) in digit_at:
                    sources[j].append((t, digit_at[r, m]))
    # steps[t][y] moves digit t of a packed index from zero to y
    steps = [[n ** (d - 1 - t) * (y - zero) for y in range(n)] for t in range(d)]
    zero_index = zero * sum(n**t for t in range(d))
    ints = add[zero_index]  # the list entries are read out of the shared ints
    mul = []
    for digits in product(range(n), repeat=d):
        columns = []
        for pairs in sources:
            moved = zip(*[map(steps[t].__getitem__, base.mul[digits[s]]) for t, s in pairs])
            columns.append(list(map(ints.__getitem__, map(sum, moved, repeat(zero_index)))))
        mul.append(_sum_row(add, columns))
    # one label template; a position in no cell shows the base's zero, z
    rows = [["{%s}" % digit_at.get((r, c), "z") for c in range(k)] for r in range(k)]
    template = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    fill = functools.partial(template.format, z=base.label(zero))
    return FiniteRing(
        order=order,
        add=add,
        mul=tuple(mul),
        zero=zero_index,
        one=zero_index + sum(steps[t][base.one] for t, (r, c) in enumerate(first) if r == c),
        name=f"{prefix}{k}({base.name})",
        labels=tuple(starmap(fill, product(map(base.label, range(n)), repeat=d))),
    )


def _check_pattern_digits(k: int, digits: int) -> None:
    """Refuse ``k x k`` matrices of ``digits`` stored digits before a cell is
    listed, so that a base order is raised only to a power within the cap."""
    if k < 1:
        raise ValueError(f"matrix size must be positive, got {k}")
    cap = _size_cap()
    if digits > cap:
        raise SizeCapError(f"{_quoted(digits)} matrix digits exceed the size cap {cap}")


def build_matrix_ring(base: FiniteRing, k: int) -> FiniteRing:
    """The full ``k x k`` matrix ring, entries packed row-major."""
    return _pattern_ring(base, k, "mat")


def build_upper_triangular(base: FiniteRing, k: int) -> FiniteRing:
    """The upper triangular ``k x k`` matrix ring; stored entries are the
    positions ``(r, c)`` with ``r <= c`` in row-major order."""
    return _pattern_ring(base, k, "tri")


def build_constant_diagonal_triangular(base: FiniteRing, k: int) -> FiniteRing:
    """Upper triangular ``k x k`` matrices with one shared diagonal entry.

    Stored digits are the diagonal value followed by the strictly upper
    entries ``(r, c)`` with ``r < c`` in row-major order.
    """
    return _pattern_ring(base, k, "cdtri")


@dataclass(frozen=True)
class DorrohData:
    """Input for a Dorroh-style extension of ``base`` by the ring ``bimodule``.

    ``left_action[r][v]`` is ``r . v`` and ``right_action[v][r]`` is ``v . r``;
    both live in the bimodule.
    """

    base: FiniteRing
    bimodule: FiniteRing
    left_action: tuple[tuple[int, ...], ...]
    right_action: tuple[tuple[int, ...], ...]


def _validate_dorroh(data: DorrohData) -> None:
    """Check the shape, range and unitality of the action tables.

    These guard the indexing in :func:`build_dorroh`.  The other bimodule
    laws are left to ``verify_axioms`` on the extension.  Once that is a
    ring, x0 = 0x = 0 there and unitality give r.0 = 0 and 0.s = 0, so
    (r,0)(s,0) = (rs,0), (r,0)(0,v) = (0,r.v) and (0,v)(s,0) = (0,v.s), and
    each action law is an instance of a ring law of the extension.
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


def build_dorroh(data: DorrohData) -> FiniteRing:
    """The extension of ``data.base`` by ``data.bimodule`` with product
    ``(r, v)(s, w) = (r s, r w + v s + v w)``.

    Raises :class:`BimoduleError` if the actions are malformed or not
    unital, or if the extension fails ``verify_axioms``.
    """
    base, bim = data.base, data.bimodule
    la, ra = data.left_action, data.right_action
    nr, nv = base.order, bim.order
    order = nr * nv
    check_size(order)
    _validate_dorroh(data)
    # (r, v) has the pair index of a two-factor product, so + is base x bimodule
    add = _pair_table(base.add, bim.add)
    shift = nv * base.zero
    mul = []
    for r, r_row in enumerate(base.mul):
        for v in range(nv):
            # (r, v)(s, w) = (rs, v.s) + (0, r.w + vw), and x -> (r, v)x is
            # additive, so the row sums two lists as in _pattern_ring
            left = [nv * rs + vs for rs, vs in zip(r_row, ra[v])]
            right = [shift + bim.add[rw][vw] for rw, vw in zip(la[r], bim.mul[v])]
            mul.append(_sum_row(add, [left, right]))
    labels = tuple(
        f"({base.label(r)},{bim.label(v)})" for r in range(nr) for v in range(nv)
    )
    ring = FiniteRing(
        order=order,
        add=add,
        mul=tuple(mul),
        zero=shift + bim.zero,
        one=nv * base.one + bim.zero,
        name=f"D({base.name},{bim.name})",
        labels=labels,
    )
    violations = verify_axioms(ring)
    if violations:
        raise BimoduleError(
            "assembled extension violates ring axioms: " + violations[0]
        )
    return ring


@memo
def build_quotient(
    ring: FiniteRing, ideal: ElementSet
) -> tuple[FiniteRing, tuple[int, ...]]:
    """Quotient by a two-sided ideal; returns the quotient and the projection,
    built once per (ring, ideal)."""
    from ringlab.ideals import is_two_sided_ideal

    members = ideal.indices()
    if not is_two_sided_ideal(ring, ideal):
        raise IdealError(
            f"subset {list(members)} is not a two-sided ideal of {ring.name}"
        )
    leaders = _coset_leaders(ring, ideal.bits)
    reps = sorted(set(leaders))
    position = {r: i for i, r in enumerate(reps)}
    proj = tuple(map(position.__getitem__, leaders))
    labels = tuple(f"[{ring.label(r)}]" for r in reps)
    name = f"{ring.name}/I{len(members)}"
    return _induced_ring(ring, reps, proj, ring.one, name, labels), proj


def build_corner(ring: FiniteRing, e: int) -> FiniteRing:
    """The corner ring ``e R e`` for a central idempotent ``e``."""
    _check_element(ring, e)
    if ring.mul[e][e] != e:
        raise ValueError(f"element {e} is not idempotent in {ring.name}")
    for r in range(ring.order):
        if ring.mul[e][r] != ring.mul[r][e]:
            raise ValueError(f"idempotent {e} is not central in {ring.name}")
    members = sorted(set(ring.mul[e]))
    position = {m: i for i, m in enumerate(members)}
    labels = tuple(map(ring.label, members))
    return _induced_ring(ring, members, position, e, f"{ring.name}|e{e}", labels)


def _induced_ring(
    ring: FiniteRing, reps: Sequence[int], index, one: int, name: str, labels: tuple
) -> FiniteRing:
    """The ring on the elements ``reps`` of ``ring``: each sum and product is
    taken in ``ring`` and read back through ``index`` to a position in
    ``reps``.  ``one`` is the element of ``ring`` at the identity's position."""
    add, mul = (
        tuple(tuple(map(index.__getitem__, map(rows[r].__getitem__, reps))) for r in reps)
        for rows in (ring.add, ring.mul)
    )
    return FiniteRing(len(reps), add, mul, index[ring.zero], index[one], name, labels)


# --------------------------------------------------------------------------
# basic element sets


@memo
def element_sets(ring: FiniteRing) -> tuple[ElementSet, ElementSet, ElementSet]:
    """The (units, idempotents, nilpotents) of the ring; cached."""
    n, mul = ring.order, ring.mul
    units = 0
    for a in units_map(ring):
        units |= 1 << a
    square = list(map(getitem, mul, range(n)))
    idem = mask_from_flags(bytes(map(eq, square, range(n))))
    # a nilpotent's nonzero powers are distinct, so a^n = 0; squaring
    # t = bit_length(n - 1) times gives a^(2^t), and 2^t >= n
    power = square
    for _ in range((n - 1).bit_length() - 1):
        power = list(map(square.__getitem__, power))
    nil = mask_from_flags(bytes(map(ring.zero.__eq__, power)))
    return (
        ElementSet(units, n),
        ElementSet(idem, n),
        ElementSet(nil, n),
    )


@memo
def units_map(ring: FiniteRing) -> dict[int, int]:
    """Each unit mapped to its two-sided inverse; cached.

    In a finite ring a b = 1 already makes b the two-sided inverse of a:
    x -> b x is injective, since b x = b y gives x = a b x = a b y = y, so
    it is onto and b c = 1 for some c; then a = a b c = c, so b a = 1.  The
    first b with a b = 1 in the row of a is therefore the inverse.
    """
    one = ring.one
    out = {}
    for a, row in enumerate(ring.mul):
        try:
            out[a] = row.index(one)
        except ValueError:  # no b with a b = 1
            pass
    return out


def is_zmod2(ring: FiniteRing) -> bool:
    """True iff the ring is the two-element ring (any such ring is Z2)."""
    return ring.order == 2 and ring.one != ring.zero


# --------------------------------------------------------------------------
# JSON persistence


def _ring_fields(ring: FiniteRing) -> dict:
    """The saved fields in file order, tables and labels not copied."""
    obj = {
        "name": ring.name,
        "order": ring.order,
        "zero": ring.zero,
        "one": ring.one,
        "add": ring.add,
        "mul": ring.mul,
    }
    if ring.labels is not None:
        obj["labels"] = ring.labels
    return obj


def ring_to_json(ring: FiniteRing) -> dict:
    obj = _ring_fields(ring)
    for key in ("add", "mul"):
        obj[key] = [list(row) for row in obj[key]]
    if "labels" in obj:
        obj["labels"] = list(obj["labels"])
    return obj


def ring_from_json(obj: dict) -> FiniteRing:
    required = {"order": int, "zero": int, "one": int, "add": list, "mul": list}
    optional = {"name": str, "labels": (list, type(None))}
    _check_fields(obj, "ring data", required, optional)
    order = obj["order"]
    check_size(order)
    labels = obj.get("labels")
    if labels is not None:
        if len(labels) != order or not all(type(v) is str for v in labels):
            raise ValueError(f"labels must be a list of {order} strings")
        labels = tuple(labels)
    # a positive order and the tables' shape and range are left to verify_axioms
    ring = FiniteRing(
        order=order,
        add=_int_rows(obj["add"], "add table"),
        mul=_int_rows(obj["mul"], "mul table"),
        zero=obj["zero"],
        one=obj["one"],
        name=obj.get("name", "ring"),
        labels=labels,
    )
    violations = verify_axioms(ring)
    if violations:
        raise AxiomError(violations)
    return ring


def save_ring(ring: FiniteRing, path: str | Path) -> None:
    """Write ``json.dumps(ring_to_json(ring), indent=2)`` and a newline.

    The rows of ``ring.add`` and ``ring.mul`` go out one by one through
    :func:`_int_list_text`, read from one tuple of the element texts, with
    no list copies.  The tables are trusted to hold element
    indices, as every constructor and :func:`load_ring` give.  Most other
    entries raise TypeError or IndexError, not all: one in [-2n, -n) is
    written as the element it indexes from the end, and ``True`` as ``1``.
    """
    n = ring.order
    # n Nones after the n texts: an entry in [-n, 0) or [n, 2n) reads a None,
    # which join refuses, and one outside [-2n, 2n) fails in itemgetter
    texts = tuple(map(str, range(n))) + (None,) * n
    with Path(path).open("w") as out:
        out.write("{")
        sep = "\n  "
        for key, value in _ring_fields(ring).items():
            out.write(sep + json.dumps(key) + ": ")
            sep = ",\n  "
            if key not in ("add", "mul"):
                out.write(json.dumps(value, indent=2).replace("\n", "\n  "))
                continue
            row_sep = "[\n    "
            for row in value:
                out.write(row_sep + _int_list_text(_picker(row)(texts), 2))
                row_sep = ",\n    "
            out.write("\n  ]")
        out.write("\n}\n")


def _int_list_text(texts: Iterable[str], depth: int) -> str:
    """A non-empty list of ints as ``json.dumps(indent=2)`` writes it at
    nesting ``depth``, from its items' texts in one join: the one int-row
    writer, for ring files and the CLI's JSON output."""
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(texts)}{inner[:-2]}]"  # one copy of the join


def _unique_fields(pairs: list[tuple[str, object]], what: str) -> dict:
    """A JSON object's fields as a dict; a repeated field is an error that
    names ``what`` the file holds.

    The tables are arrays, so this runs once per object in a ring file and
    never per row.
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"{what} repeats field {repeated!r}")
    return obj


def _read_json(path: str | Path, what: str):
    """The JSON value in the file at ``path``, which holds ``what``.

    This is the one JSON reader for input files.  A repeated field, text
    that is not JSON and nesting too deep to parse are each a one-line
    ValueError.
    """
    try:
        # no name for the text, so it is freed before the tables are built
        return json.loads(
            Path(path).read_text(),
            object_pairs_hook=functools.partial(_unique_fields, what=what),
        )
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} in {path} is not valid JSON: {err}") from None
    except RecursionError:
        raise ValueError(f"{what} in {path} is nested too deeply") from None


_JSON_TYPE_NAMES = {
    int: "an integer",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
}


def _check_fields(obj, what: str, required: dict, optional: dict) -> None:
    """Check that ``obj`` is a JSON object with every field of ``required``
    and no field outside ``required`` and ``optional``.

    Both map a field to its type, or to a tuple of types, as JSON loads
    them: ``int`` is exactly int, since JSON true and false load as bool.
    """
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    for key, value in obj.items():
        want = required.get(key) or optional.get(key)
        if want is None:
            raise ValueError(f"{what} has unknown field {_quoted(key)}")
        wants = want if isinstance(want, tuple) else (want,)
        if type(value) not in wants:
            names = " or ".join(_JSON_TYPE_NAMES[t] for t in wants)
            raise ValueError(f"{what} field {key!r} must be {names}, got {_quoted(value)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} missing required field {key!r}")


def _int_rows(raw: list, what: str) -> tuple[tuple[int, ...], ...]:
    """A JSON array of arrays of integers as a tuple of tuples; rows may
    differ in length."""
    if not all(type(row) is list and set(map(type, row)) <= {int} for row in raw):
        raise ValueError(f"{what} must be an array of arrays of integers")
    return tuple(map(tuple, raw))


def load_ring(path: str | Path) -> FiniteRing:
    return ring_from_json(_read_json(path, "ring data"))
