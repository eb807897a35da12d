"""The fixed ring catalog, the preset grammar, and manifest loading.

A preset is a compact recipe string such as ``tri:2:zmod:3`` or
``quot:delta:tri:2:zmod:2``; :func:`build_preset` turns one into a ring.
Catalog entries pair a name and recipe (or a ring file) with independently
fixed expected facts that :func:`verify_expected` recomputes.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ringlab.core import (
    DorrohData,
    ElementSet,
    FiniteRing,
    RinglabError,
    _PATTERNS,
    _check_fields,
    _check_pattern_digits,
    _pattern_ring,
    _quoted,
    _read_json,
    build_dorroh,
    build_product,
    build_quotient,
    build_zmod,
    check_size,
    load_ring,
    renamed,
)
from ringlab.ideals import two_sided_closure
from ringlab.properties import _coerce, ring_property
from ringlab.radicals import delta_mask, jacobson


class PresetError(RinglabError):
    """A preset string does not parse or describes an invalid construction."""


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog member: a name, a way to build it, and expected facts.

    ``basis`` is a one-line note on how the expected facts were fixed.
    ``expected`` may record ``order``, ``delta`` (index list or ``"full"``),
    ``jacobson`` (index list), and ``properties`` (name-to-bool map).
    """

    name: str
    recipe: str | None = None
    file: str | None = None
    basis: str = ""
    expected: dict | None = field(default=None, hash=False)


# --------------------------------------------------------------------------
# preset grammar


def _ascii_int(token: str, what: str) -> int | None:
    """The value of a token of ASCII digits; ``None`` for any other token.
    One with more significant digits than ``int()`` converts is over every
    cap and range: too large, quoted by its leading digits and length."""
    if not (token.isascii() and token.isdigit()):
        return None
    token = token.lstrip("0") or "0"
    try:
        return int(token)
    except ValueError:  # a number with the token's leading digits and length
        lead = int(token[:10]) * 10 ** (len(token) - 10)
        raise PresetError(f"{what} {_quoted(lead)} is too large") from None


def _parse_positive_int(token: str, what: str) -> int:
    value = _ascii_int(token, what)
    if value is None:
        raise PresetError(f"{what} must be written in ASCII digits, got {token!r}")
    if value < 1:
        raise PresetError(f"{what} must be positive, got {value}")
    return value


def build_preset(text: str) -> FiniteRing:
    """Build a ring from a recipe string.

    Grammar::

        zmod:N
        product:P1,P2[,...]          (factors may not be products)
        mat:K:P | tri:K:P | cdtri:K:P
        dorroh:P                     (extension of P by itself)
        quot:delta:P | quot:jac:P | quot:gen:I1[+I2...]:P

    Every number is written in ASCII digits.  The whole recipe is parsed
    before any table is built: its syntax, and every order it gives against
    the size cap (all but the order of a quotient and of what is built on
    one), and the first of these faults from left to right is raised.  A
    ``quot:gen`` generator is checked against its base's order right after
    the base, where that order is known.
    """
    try:
        return _plan(text)[1]()
    except RecursionError:
        raise PresetError("preset is nested too deeply") from None


def _plan(text: str) -> tuple[int | None, Callable[[], FiniteRing]]:
    """The order of the ring a recipe builds and a function that builds it.

    The order is ``None`` for a quotient and for a ring built on one; the
    parts of a quotient are planned and checked all the same.
    """
    head, _, rest = text.partition(":")
    if head == "zmod":
        if not rest or ":" in rest:
            raise PresetError(f"expected zmod:N, got {text!r}")
        n = _parse_positive_int(rest, "modulus")
        return _checked(n), partial(build_zmod, n)
    if head == "product":
        tokens = rest.split(",") if rest else []
        if not tokens or any(not t for t in tokens):
            raise PresetError(f"expected product:P1,P2[,...], got {text!r}")
        if any(t.partition(":")[0] == "product" for t in tokens):
            raise PresetError("products may not be nested inside a product preset")
        orders, builds = zip(*map(_plan, tokens))
        order = None if None in orders else math.prod(orders)
        return _checked(order), lambda: build_product([b() for b in builds])
    if head in _PATTERNS:
        size_token, _, base_text = rest.partition(":")
        if not size_token or not base_text:
            raise PresetError(f"expected {head}:K:P, got {text!r}")
        k = _parse_positive_int(size_token, "matrix size")
        digits = _PATTERNS[head][1](k)  # stored digits of a k x k matrix
        _check_pattern_digits(k, digits)
        base_order, base = _plan(base_text)
        order = None if base_order is None else base_order**digits
        return _checked(order), lambda: _pattern_ring(base(), k, head)
    if head == "dorroh":
        if not rest:
            raise PresetError(f"expected dorroh:P, got {text!r}")
        base_order, base = _plan(rest)
        order = None if base_order is None else base_order**2
        return _checked(order), lambda: build_dorroh(dorroh_of_ring(base()))
    if head == "quot":
        mode, _, base_text = rest.partition(":")
        if mode == "gen":
            gen_token, _, base_text = base_text.partition(":")
            if not gen_token or not base_text:
                raise PresetError(f"expected quot:gen:I1[+I2...]:P, got {text!r}")
            generators = [_generator(piece, text) for piece in gen_token.split("+")]
            ideal = partial(_generated_ideal, generators)
        elif mode in ("delta", "jac"):
            if not base_text:
                raise PresetError(f"expected quot:{mode}:P, got {text!r}")
            ideal = delta_mask if mode == "delta" else jacobson
        else:
            raise PresetError(f"unknown quotient mode in {text!r}")
        base_order, base = _plan(base_text)
        if mode == "gen" and base_order is not None:
            _check_generators(generators, base_order)
        return None, lambda: build_quotient((ring := base()), ideal(ring))[0]
    raise PresetError(f"unknown preset kind: {text!r}")


def _checked(order: int | None) -> int | None:
    if order is not None:
        check_size(order)
    return order


def _generator(piece: str, text: str) -> int:
    value = _ascii_int(piece, "generator")
    if value is None:
        raise PresetError(f"bad generator {piece!r} in {text!r}")
    return value


def _check_generators(generators: list[int], order: int) -> None:
    for value in generators:
        if value >= order:
            raise PresetError(f"generator {value} out of range for order {order}")


def _generated_ideal(generators: list[int], ring: FiniteRing) -> ElementSet:
    # checked again: the order of a base that holds a quotient is known only here
    _check_generators(generators, ring.order)
    return two_sided_closure(ring, generators)


def dorroh_base(recipe: str | None) -> FiniteRing | None:
    """The base ring ``P`` of a ``dorroh:P`` recipe, built; ``None`` for any
    other recipe."""
    head, _, rest = (recipe or "").partition(":")
    return build_preset(rest) if head == "dorroh" else None


def dorroh_of_ring(base: FiniteRing) -> DorrohData:
    """Extension data for a ring acting on itself by multiplication."""
    return DorrohData(
        base=base,
        bimodule=base,
        left_action=base.mul,
        right_action=base.mul,
    )


# --------------------------------------------------------------------------
# catalog


def default_catalog() -> list[CatalogEntry]:
    """The fixed catalog every registry claim is evaluated against."""
    full = "full"
    return [
        CatalogEntry(
            name="Z2",
            recipe="zmod:2",
            basis="two-element field",
            expected={
                "order": 2,
                "delta": full,
                "jacobson": [0],
                "properties": {"boolean": True, "semisimple": True,
                               "delta-quasipolar": True, "j-quasipolar": True},
            },
        ),
        CatalogEntry(
            name="Z3",
            recipe="zmod:3",
            basis="three-element field",
            expected={
                "order": 3,
                "delta": full,
                "jacobson": [0],
                "properties": {"semisimple": True, "boolean": False,
                               "delta-quasipolar": True, "j-quasipolar": False,
                               "strongly-regular": True},
            },
        ),
        CatalogEntry(
            name="Z4",
            recipe="zmod:4",
            basis="divisor arithmetic",
            expected={
                "order": 4,
                "delta": [0, 2],
                "jacobson": [0, 2],
                "properties": {"delta-quasipolar": True, "uniquely-clean": True,
                               "local": True, "right-pp": False},
            },
        ),
        CatalogEntry(
            name="Z6",
            recipe="zmod:6",
            basis="divisor arithmetic",
            expected={
                "order": 6,
                "delta": full,
                "jacobson": [0],
                "properties": {"semisimple": True, "von-neumann-regular": True,
                               "local": False, "j-quasipolar": False},
            },
        ),
        CatalogEntry(
            name="Z8",
            recipe="zmod:8",
            basis="divisor arithmetic",
            expected={
                "order": 8,
                "delta": [0, 2, 4, 6],
                "jacobson": [0, 2, 4, 6],
                "properties": {"delta-quasipolar": True, "uniquely-clean": True,
                               "local": True},
            },
        ),
        CatalogEntry(
            name="Z9",
            recipe="zmod:9",
            basis="divisor arithmetic",
            expected={
                "order": 9,
                "delta": [0, 3, 6],
                "jacobson": [0, 3, 6],
                "properties": {"delta-quasipolar": False, "quasipolar": True,
                               "local": True, "uniquely-clean": False},
            },
        ),
        CatalogEntry(
            name="Z2xZ2",
            recipe="product:zmod:2,zmod:2",
            basis="componentwise arithmetic",
            expected={
                "order": 4,
                "delta": full,
                "jacobson": [0],
                "properties": {"boolean": True, "j-quasipolar": True},
            },
        ),
        CatalogEntry(
            name="Z2xZ3",
            recipe="product:zmod:2,zmod:3",
            basis="componentwise arithmetic",
            expected={
                "order": 6,
                "delta": full,
                "jacobson": [0],
                "properties": {"semisimple": True},
            },
        ),
        CatalogEntry(
            name="M2(Z2)",
            recipe="mat:2:zmod:2",
            basis="hand enumeration of 2x2 matrices",
            expected={
                "order": 16,
                "delta": full,
                "jacobson": [0],
                "properties": {"semisimple": True, "delta-quasipolar": True,
                               "j-quasipolar": False, "right-pp": True},
            },
        ),
        CatalogEntry(
            name="M2(Z3)",
            recipe="mat:2:zmod:3",
            basis="simple artinian structure",
            expected={
                "order": 81,
                "delta": full,
                "jacobson": [0],
                "properties": {"semisimple": True, "delta-quasipolar": True},
            },
        ),
        CatalogEntry(
            name="T2(Z2)",
            recipe="tri:2:zmod:2",
            basis="hand enumeration of triangular matrices",
            expected={
                "order": 8,
                "delta": [0, 1, 2, 3],
                "jacobson": [0, 2],
                "properties": {"delta-quasipolar": True, "j-quasipolar": True,
                               "abelian": False, "right-pp": False},
            },
        ),
        CatalogEntry(
            name="T2(Z3)",
            recipe="tri:2:zmod:3",
            basis="hand enumeration of triangular matrices",
            expected={
                "order": 27,
                "delta": [0, 1, 2, 3, 4, 5, 6, 7, 8],
                "jacobson": [0, 3, 6],
                "properties": {"delta-quasipolar": False,
                               "weakly-delta-quasipolar": False},
            },
        ),
        CatalogEntry(
            name="CT2(Z2)",
            recipe="cdtri:2:zmod:2",
            basis="constant-diagonal structure",
            expected={
                "order": 4,
                "delta": [0, 1],
                "jacobson": [0, 1],
                "properties": {"delta-quasipolar": True, "local": True,
                               "uniquely-clean": True, "strongly-j-clean": True},
            },
        ),
        CatalogEntry(
            name="CT2(Z3)",
            recipe="cdtri:2:zmod:3",
            basis="constant-diagonal structure",
            expected={
                "order": 9,
                "delta": [0, 1, 2],
                "jacobson": [0, 1, 2],
                "properties": {"delta-quasipolar": False, "quasipolar": True,
                               "local": True},
            },
        ),
        CatalogEntry(
            name="CT3(Z2)",
            recipe="cdtri:3:zmod:2",
            basis="constant-diagonal structure",
            expected={
                "order": 16,
                "delta": [0, 1, 2, 3, 4, 5, 6, 7],
                "jacobson": [0, 1, 2, 3, 4, 5, 6, 7],
                "properties": {"delta-quasipolar": True, "abelian": True,
                               "local": True, "strongly-regular": False},
            },
        ),
        CatalogEntry(
            name="D(Z2,Z2)",
            recipe="dorroh:zmod:2",
            basis="extension isomorphic to a boolean product",
            expected={
                "order": 4,
                "delta": full,
                "jacobson": [0],
                "properties": {"boolean": True, "delta-quasipolar": True},
            },
        ),
        CatalogEntry(
            name="T2(Z2)/delta",
            recipe="quot:delta:tri:2:zmod:2",
            basis="quotient by the agreed delta ideal",
            expected={"order": 2, "properties": {"boolean": True}},
        ),
        CatalogEntry(
            name="Z4/(2)",
            recipe="quot:gen:2:zmod:4",
            basis="quotient by the ideal generated by 2",
            expected={"order": 2, "properties": {"boolean": True}},
        ),
    ]


def build_entry(entry: CatalogEntry) -> FiniteRing:
    """Build or load the ring for an entry, renamed to the entry's name."""
    if entry.file is not None:
        return renamed(load_ring(entry.file), entry.name)
    if entry.recipe is not None:
        return renamed(build_preset(entry.recipe), entry.name)
    raise ValueError(f"catalog entry {entry.name!r} has neither recipe nor file")


def verify_expected(entry: CatalogEntry, ring: FiniteRing) -> list[str]:
    """Recompute an entry's expected facts; return the list of mismatches."""
    expected = entry.expected or {}
    mismatches: list[str] = []
    if "order" in expected and ring.order != expected["order"]:
        mismatches.append(
            f"order: expected {expected['order']}, computed {ring.order}"
        )
    if "delta" in expected:
        want = expected["delta"]
        if want == "full":
            want = list(range(ring.order))
        got = delta_mask(ring).to_json()
        if got != list(want):
            mismatches.append(f"delta: expected {want}, computed {got}")
    if "jacobson" in expected:
        got = jacobson(ring).to_json()
        if got != list(expected["jacobson"]):
            mismatches.append(
                f"jacobson: expected {expected['jacobson']}, computed {got}"
            )
    for name, want in expected.get("properties", {}).items():
        got = ring_property(ring, name)[0]
        if got != want:
            mismatches.append(f"property {name}: expected {want}, computed {got}")
    return mismatches


# --------------------------------------------------------------------------
# manifests


def _check_expected(name: str, expected: dict) -> None:
    """Reject expected facts that :func:`verify_expected` cannot read."""
    facts = {"order": int, "delta": (str, list), "jacobson": list, "properties": dict}
    _check_fields(expected, f"object 'expected' of catalog entry {_quoted(name)}", {}, facts)
    for key, value in expected.items():
        if key == "properties":
            ok = all(type(v) is bool for v in value.values())
            for prop in value:
                _coerce(prop)
        elif type(value) is str:  # only a delta may be a string
            ok = value == "full"
        else:
            ok = key == "order" or all(type(v) is int for v in value)
        if not ok:
            raise ValueError(
                f"catalog entry {_quoted(name)} has malformed expected {key}: {_quoted(value)}"
            )


def load_catalog_manifest(path: str | Path) -> list[CatalogEntry]:
    """Read a catalog description: ``{"entries": [{"name", "preset"|"file"}]}``.

    Each entry has a unique string ``name``, exactly one of the strings
    ``preset`` and ``file``, and optionally a string ``basis`` and an object
    ``expected`` of the facts :class:`CatalogEntry` lists; any other field,
    in an entry or beside ``entries``, is an error.  File paths are resolved
    relative to the manifest location.
    """
    path = Path(path)
    obj = _read_json(path, "catalog manifest")
    _check_fields(obj, "catalog manifest", {"entries": list}, {})
    entries: list[CatalogEntry] = []
    names: set[str] = set()
    for raw in obj["entries"]:
        _check_fields(
            raw,
            "catalog entry",
            {"name": str},
            {"preset": str, "file": str, "basis": str, "expected": dict},
        )
        name = raw["name"]
        if name in names:
            raise ValueError(f"duplicate catalog entry name {name!r}")
        names.add(name)
        _check_expected(name, raw.get("expected", {}))
        has_preset = "preset" in raw
        has_file = "file" in raw
        if has_preset == has_file:
            raise ValueError(
                f"catalog entry {name!r} needs exactly one of 'preset' or 'file'"
            )
        entries.append(
            CatalogEntry(
                name=name,
                recipe=raw.get("preset"),
                file=str(path.parent / raw["file"]) if has_file else None,
                basis=raw.get("basis", ""),
                expected=raw.get("expected"),
            )
        )
    return entries
