"""Catalog contents, preset grammar, and cross-construction agreements."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from ringlab import catalog
from ringlab.catalog import (
    CatalogEntry,
    PresetError,
    _plan,
    build_entry,
    build_preset,
    default_catalog,
    load_catalog_manifest,
    verify_expected,
)
from ringlab.core import AxiomError, SizeCapError, save_ring
from ringlab.properties import PropertyName, ring_property
from ringlab.report import build_report


EXPECTED_NAMES = [
    "Z2",
    "Z3",
    "Z4",
    "Z6",
    "Z8",
    "Z9",
    "Z2xZ2",
    "Z2xZ3",
    "M2(Z2)",
    "M2(Z3)",
    "T2(Z2)",
    "T2(Z3)",
    "CT2(Z2)",
    "CT2(Z3)",
    "CT3(Z2)",
    "D(Z2,Z2)",
    "T2(Z2)/delta",
    "Z4/(2)",
]

EXPECTED_ORDERS = [2, 3, 4, 6, 8, 9, 4, 6, 16, 81, 8, 27, 4, 9, 16, 4, 2, 2]


def test_catalog_contents(catalog_entries, catalog_rings):
    assert [e.name for e in catalog_entries] == EXPECTED_NAMES
    assert [catalog_rings[n].order for n in EXPECTED_NAMES] == EXPECTED_ORDERS


def test_catalog_expected_facts_recompute(catalog_entries, catalog_rings):
    for entry in catalog_entries:
        mismatches = verify_expected(entry, catalog_rings[entry.name])
        assert mismatches == [], entry.name


def test_catalog_builds_are_reproducible(catalog_entries):
    for entry in catalog_entries:
        first = build_entry(entry)
        second = build_entry(entry)
        assert first.add == second.add
        assert first.mul == second.mul
        assert (first.zero, first.one) == (second.zero, second.one)


# ----------------------------------------------------------------- presets

def test_preset_examples():
    assert build_preset("zmod:6").order == 6
    assert build_preset("tri:2:zmod:2").order == 8
    assert build_preset("mat:2:zmod:3").order == 81
    assert build_preset("cdtri:3:zmod:2").order == 16
    assert build_preset("product:zmod:2,zmod:3").order == 6
    assert build_preset("dorroh:zmod:2").order == 4
    assert build_preset("quot:delta:tri:2:zmod:2").order == 2
    assert build_preset("quot:jac:zmod:4").order == 2
    assert build_preset("quot:gen:2:zmod:4").order == 2
    assert build_preset("quot:gen:1+2:zmod:4").order == 1


@pytest.mark.parametrize(
    "bad",
    [
        "zmod",
        "zmod:x",
        "zmod:0",
        "mat:0:zmod:2",
        "mat:2",
        "bogus:3",
        "product:",
        "product:zmod:2,product:zmod:2,zmod:2",
        "quot:delta",
        "quot:weird:zmod:4",
        "quot:gen:9:zmod:4",
        "dorroh:",
        pytest.param("tri:1:" * 1200 + "zmod:2", id="nested-1200-deep"),
        # numbers are ASCII digits only, though int() reads each of these
        "zmod:1_0",
        "zmod: 4",
        "zmod:+4",
        "zmod:\u0664",
        "mat:\u0662:zmod:2",
        "quot:gen:-0:zmod:4",
    ],
)
def test_preset_errors(bad):
    with pytest.raises(PresetError):
        build_preset(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "product:zmod:4096,zmod:x",
        "quot:gen:x:zmod:4096",
        "quot:gen:5000:zmod:4096",
        "mat:2:product:zmod:64,zmod:+2",
        "dorroh:tri:2:zmod:64:",
        "quot:jac:cdtri:3:bogus:2",
    ],
)
def test_malformed_recipe_builds_no_table(bad, monkeypatch):
    """The whole recipe is parsed before a part of it is built."""

    def refuse(*args):
        raise AssertionError(f"a table was built for {bad}")

    for name in ("build_zmod", "build_product", "_pattern_ring", "build_dorroh",
                 "build_quotient"):
        monkeypatch.setattr(catalog, name, refuse)
    with pytest.raises(PresetError):
        build_preset(bad)


def test_the_first_fault_from_the_left_is_raised():
    with pytest.raises(SizeCapError):
        build_preset("product:zmod:5000,zmod:x")
    with pytest.raises(PresetError, match="modulus"):
        build_preset("product:zmod:x,zmod:5000")
    with pytest.raises(PresetError, match="matrix size"):
        build_preset("mat:x:zmod:5000")


def _check_planned_order(preset):
    """The order planned for a recipe, checked against the cap before any
    table is built, is the built ring's; it is ``None`` exactly for a recipe
    that holds a quotient."""
    order, ring = _plan(preset)[0], build_preset(preset)
    assert order == (None if "quot:" in preset else ring.order)


@pytest.mark.parametrize(
    "preset",
    [entry.recipe for entry in default_catalog()]
    + [
        "zmod:1",
        "mat:1:zmod:5",
        "mat:3:zmod:2",
        "tri:3:zmod:2",
        "cdtri:4:zmod:2",
        "dorroh:tri:2:zmod:2",
        "product:zmod:1,mat:2:zmod:2,zmod:3",
        "tri:2:dorroh:zmod:2",
        "quot:gen:2:tri:2:zmod:4",
        "mat:2:quot:gen:2:zmod:4",
        "product:zmod:3,quot:jac:zmod:4",
    ],
)
def test_recipe_order_is_the_built_order(preset):
    _check_planned_order(preset)


# stored digits of a k x k pattern ring, counted apart from the library
_PATTERN_DIGITS = {"mat": lambda k: k * k, "tri": lambda k: k * (k + 1) // 2,
                   "cdtri": lambda k: 1 + k * (k - 1) // 2}


def _root(budget: int, power: int) -> int:
    """The largest r with r ** power <= budget."""
    r = 1
    while (r + 1) ** power <= budget:
        r += 1
    return r


@st.composite
def _recipes(draw, budget=32, depth=3, in_product=False):
    """A recipe whose ring has at most ``budget`` elements, with its order
    where the text gives it (``None`` where it holds a quotient)."""
    kinds = ["zmod"]
    if depth:
        kinds += ["pattern", "dorroh", "quot"] + ([] if in_product else ["product"])
    kind = draw(st.sampled_from(kinds))
    if kind == "zmod":
        n = draw(st.integers(1, min(budget, 6)))
        return f"zmod:{n}", n
    if kind == "product":
        factors, orders, left = [], [], budget
        for _ in range(draw(st.integers(2, 3))):
            text, order = draw(_recipes(left, depth - 1, in_product=True))
            factors.append(text)
            orders.append(order)
            left //= order or left  # a quotient may use all that is left
        known = None not in orders
        return "product:" + ",".join(factors), math.prod(orders) if known else None
    if kind == "pattern":
        head = draw(st.sampled_from(sorted(_PATTERN_DIGITS)))
        k = draw(st.integers(1, 3))
        digits = _PATTERN_DIGITS[head](k)
        text, order = draw(_recipes(_root(budget, digits), depth - 1, in_product))
        return f"{head}:{k}:{text}", None if order is None else order**digits
    if kind == "dorroh":
        text, order = draw(_recipes(_root(budget, 2), depth - 1, in_product))
        return f"dorroh:{text}", None if order is None else order * order
    text, order = draw(_recipes(budget, depth - 1, in_product))
    mode = draw(st.sampled_from(["delta", "jac", "gen"]))
    if mode == "gen":
        pieces = st.integers(0, (order or 1) - 1).map(str)
        mode += ":" + "+".join(draw(st.lists(pieces, min_size=1, max_size=2)))
    return f"quot:{mode}:{text}", None


@settings(max_examples=100)
@given(_recipes())
def test_recipe_order_is_the_built_order_on_random_recipes(recipe):
    preset, order = recipe
    _check_planned_order(preset)
    assert _plan(preset)[0] == order


# -------------------------------------------------- structural agreements

def _predicate_table(ring):
    return {p.value: ring_property(ring, p)[0] for p in PropertyName}


def test_product_factor_order_does_not_change_predicates():
    a = build_preset("product:zmod:2,zmod:3")
    b = build_preset("product:zmod:3,zmod:2")
    assert _predicate_table(a) == _predicate_table(b)


def test_z2xz3_matches_z6_predicates(catalog_rings):
    assert _predicate_table(catalog_rings["Z2xZ3"]) == _predicate_table(
        catalog_rings["Z6"]
    )


def test_dorroh_pair_matches_boolean_product(catalog_rings):
    assert _predicate_table(catalog_rings["D(Z2,Z2)"]) == _predicate_table(
        catalog_rings["Z2xZ2"]
    )


def test_quotient_entries_are_two_element_boolean(catalog_rings):
    for name in ("T2(Z2)/delta", "Z4/(2)"):
        ring = catalog_rings[name]
        assert ring.order == 2
        assert ring_property(ring, PropertyName.BOOLEAN)[0]


# ---------------------------------------------------------------- manifest

def test_manifest_with_presets_and_files(tmp_path):
    ring = build_preset("zmod:4")
    ring_path = tmp_path / "ring.json"
    save_ring(ring, ring_path)
    manifest = {
        "entries": [
            {"name": "A", "preset": "zmod:2"},
            {"name": "B", "file": "ring.json"},
        ]
    }
    mpath = tmp_path / "catalog.json"
    mpath.write_text(json.dumps(manifest))
    entries = load_catalog_manifest(mpath)
    assert [e.name for e in entries] == ["A", "B"]
    rings = [build_entry(e) for e in entries]
    assert [r.order for r in rings] == [2, 4]
    assert rings[1].name == "B"


def test_manifest_rejects_corrupt_ring_file(tmp_path):
    obj = {"name": "bad", "order": 2, "zero": 0, "one": 1,
           "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]}
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    manifest = {"entries": [{"name": "bad", "file": "bad.json"}]}
    mpath = tmp_path / "catalog.json"
    mpath.write_text(json.dumps(manifest))
    entries = load_catalog_manifest(mpath)
    with pytest.raises(AxiomError):
        build_entry(entries[0])


def test_manifest_rejects_malformed_entries(tmp_path):
    mpath = tmp_path / "catalog.json"
    mpath.write_text(json.dumps({"entries": [{"name": "x"}]}))
    with pytest.raises(ValueError):
        load_catalog_manifest(mpath)


# ------------------------------------------------------------------ report

def test_report_shape(catalog_rings):
    rep = build_report(catalog_rings["Z4"])
    assert rep["name"] == "Z4"
    assert rep["order"] == 4
    assert rep["sets"]["units"] == [1, 3]
    assert rep["sets"]["jacobson"] == [0, 2]
    assert rep["delta"]["consensus"] == [0, 2]
    assert rep["delta"]["agree"] is True
    assert rep["properties"]["delta-quasipolar"] is True
    assert rep["properties"]["right-pp"] is False
    assert rep["delta_spectral"][1] == [1]
    assert rep["trivial"] is False


def test_report_is_deterministic():
    first = json.dumps(build_report(build_preset("tri:2:zmod:2")), indent=2)
    second = json.dumps(build_report(build_preset("tri:2:zmod:2")), indent=2)
    assert first == second
