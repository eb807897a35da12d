"""The library under src/ringlab imports only the standard library and itself,
and reads every name it imports at module level."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringlab"


def _absolute_imports(source: str) -> list[str]:
    """Modules named by the absolute import statements of a module's source."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_import_scan_sees_nested_and_lazy_imports():
    source = "import json, numpy.linalg\ndef f():\n    from scipy import sparse\n"
    assert _absolute_imports(source) == ["json", "numpy.linalg", "scipy"]


def _unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that no ``ast.Name`` reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_scan_reads_names_anywhere_but_imports_only_at_top():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as j, re\n"
        "from typing import Any, Callable as C, Sequence\n"
        "def f(x: Any) -> Sequence:\n"
        "    from math import pi\n"
        "    return os.path.join(re.escape(x))\n"
    )
    assert _unused_imports(source) == ["j", "C"]


def test_library_reads_every_name_it_imports():
    unused = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text())
    ]
    assert unused == []


def test_library_imports_only_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    outside = [
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path.read_text())
        if name.partition(".")[0] != "ringlab"
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


# the node fields that hold an identifier
_IDENTIFIER_FIELDS = {
    ast.Name: "id",
    ast.Attribute: "attr",
    ast.FunctionDef: "name",
    ast.alias: "name",
    ast.arg: "arg",
}


def _nodes_of(tree: ast.Module, owner: str | None) -> set[int]:
    """The ids of the nodes inside the top-level function ``owner``."""
    return {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == owner
        for node in ast.walk(top)
    }


def _cache_access(source: str, owner: str | None = None) -> list[tuple[str, int]]:
    """Each ``x._cache`` attribute outside the top-level function ``owner``,
    and each identifier ``cached_on``, with its line, in line order."""
    tree = ast.parse(source)
    allowed = _nodes_of(tree, owner)
    found = []
    for node in ast.walk(tree):
        is_cache = isinstance(node, ast.Attribute) and node.attr == "_cache"
        if is_cache and id(node) not in allowed:
            found.append(("_cache", node.lineno))
        field = _IDENTIFIER_FIELDS.get(type(node))
        if field is not None and getattr(node, field) == "cached_on":
            found.append(("cached_on", node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_cache_scan_sees_attributes_and_names_but_not_the_owner():
    source = (
        "from ringlab.core import cached_on\n"
        "def memo(fn):\n"
        "    return lambda ring: ring._cache\n"
        "def f(ring, _cache=None):\n"
        "    ring._cache.clear()\n"
        "    return core.cached_on(ring, '_cache', dict)\n"
    )
    assert _cache_access(source, owner="memo") == [
        ("cached_on", 1),
        ("_cache", 5),
        ("cached_on", 6),
    ]
    assert ("_cache", 3) in _cache_access(source)


def test_only_memo_touches_the_ring_cache():
    found = [
        f"{path.name}: {name} at line {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _cache_access(
            path.read_text(), owner="memo" if path.name == "core.py" else None
        )
    ]
    assert found == []


_JSON_READS = ("load", "loads")


def _json_reads(source: str, owner: str | None = None) -> list[tuple[str, int]]:
    """Each ``json.load``/``json.loads`` and ``object_pairs_hook`` outside the
    top-level function ``owner``, with its line, in line order."""
    tree = ast.parse(source)
    allowed = _nodes_of(tree, owner)
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((a.name, node.lineno) for a in node.names if a.name in _JSON_READS)
        is_json = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "json"
        if is_json and node.attr in _JSON_READS:
            found.append((node.attr, node.lineno))
        field = "arg" if isinstance(node, ast.keyword) else _IDENTIFIER_FIELDS.get(type(node))
        if field is not None and getattr(node, field) == "object_pairs_hook":
            found.append(("object_pairs_hook", node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_json_scan_sees_reads_and_hooks_but_not_the_owner():
    source = (
        "import json\n"
        "from json import loads as parse\n"
        "def _read_json(path):\n"
        "    return json.loads(path, object_pairs_hook=dict)\n"
        "def f(text, object_pairs_hook=None):\n"
        "    json.dumps(json.load(text))\n"
        "    return json.JSONDecoder(object_pairs_hook=dict)\n"
    )
    assert _json_reads(source, owner="_read_json") == [
        ("loads", 2),
        ("object_pairs_hook", 5),
        ("load", 6),
        ("object_pairs_hook", 7),
    ]
    assert ("loads", 4) in _json_reads(source)


def test_only_read_json_parses_json():
    found = [
        f"{path.name}: {name} at line {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _json_reads(
            path.read_text(), owner="_read_json" if path.name == "core.py" else None
        )
    ]
    assert found == []


def _identifier_lines(source: str, name: str) -> list[int]:
    """The lines at which ``name`` is an identifier: a name, an attribute, a
    function, an imported name or an argument; strings do not count."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        field = _IDENTIFIER_FIELDS.get(type(node))
        if field is not None and getattr(node, field) == name:
            lines.append(node.lineno)
    return sorted(lines)


def test_identifier_scan_sees_names_attributes_imports_and_arguments():
    source = (
        "from ringlab.core import _normal_form as walk\n"
        "def f(ring, _normal_form=None):\n"
        "    return core._normal_form(ring, 1), '_normal_form'\n"
        "def _normal_form(ring):\n"
        "    return _normal_form\n"
    )
    assert _identifier_lines(source, "_normal_form") == [1, 2, 3, 4, 5]


def test_only_core_reads_the_normal_form_walk():
    """The layout of the walk's edges is read in core.py alone."""
    found = [
        f"{path.name}: line {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "core.py"
        for line in _identifier_lines(path.read_text(), "_normal_form")
    ]
    assert found == []


# the functions of core.py that may call FiniteRing(...)
_RING_BUILDERS = {
    "build_zmod",
    "build_product",
    "_pattern_ring",
    "build_dorroh",
    "_induced_ring",
    "ring_from_json",
}


def _ring_constructions(source: str) -> list[tuple[str | None, int]]:
    """Each call of ``FiniteRing(...)`` or ``x.FiniteRing(...)``, with the
    top-level function it is in (``None`` at module level) and its line."""
    tree = ast.parse(source)
    owner_of = {
        id(node): top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        field = _IDENTIFIER_FIELDS.get(type(node.func))
        if field is not None and getattr(node.func, field) == "FiniteRing":
            found.append((owner_of.get(id(node)), node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_ring_construction_scan_sees_names_attributes_and_owners():
    source = (
        "def build_zmod(n):\n"
        "    return FiniteRing(order=n)\n"
        "def f(ring):\n"
        "    def inner():\n"
        "        return core.FiniteRing(order=1)\n"
        "    return replace(ring, name='x'), FiniteRing\n"
        "RING = FiniteRing(order=1)\n"
    )
    assert _ring_constructions(source) == [("build_zmod", 2), ("f", 5), (None, 7)]


def test_only_the_ring_builders_call_finite_ring():
    found = [
        f"{path.name}: {owner} at line {line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, line in _ring_constructions(path.read_text())
        if path.name != "core.py" or owner not in _RING_BUILDERS
    ]
    assert found == []


# library paths that tests/oracles.py must not read: each is a fast path
# that the oracles check, so an oracle reading it would check it against
# itself
_ORACLE_DENIED = (
    "_FINDERS",
    "_summand_witnesses",
    "center",
    "commutant",
    "commutant_bits",
    "double_commutant",
)


def test_oracles_read_no_denied_library_path():
    source = Path(__file__).with_name("oracles.py").read_text()
    found = [
        f"oracles.py: {name} at line {line}"
        for name in _ORACLE_DENIED
        for line in _identifier_lines(source, name)
    ]
    assert found == []
