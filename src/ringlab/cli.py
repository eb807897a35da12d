"""Command-line interface.

Exit codes: 0 success (property holds / no violation / hit found), 1 for a
negative but well-formed outcome (property fails, delta routes disagree, no
counterexample found, a registry claim is violated, a manifest's expected
fact does not hold), 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from itertools import repeat

from ringlab.catalog import (
    build_entry,
    build_preset,
    default_catalog,
    load_catalog_manifest,
    verify_expected,
)
from ringlab.core import (
    DorrohData,
    FiniteRing,
    RinglabError,
    _check_fields,
    _int_list_text,
    _int_rows,
    _read_json,
    build_dorroh,
    load_ring,
    renamed,
    save_ring,
)
from ringlab.claims import has_violation, search_counterexample, theorem_suite
from ringlab.properties import _coerce, element_property, ring_property
from ringlab.radicals import DeltaDisagreement, delta
from ringlab.report import build_report, render_text


try:  # glibc's malloc_trim, which hands freed heap pages back to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # another C library: nothing to trim

    def _malloc_trim(pad: int) -> int:
        return 0


def _emit(payload) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline, streamed."""
    _write_json(sys.stdout.write, payload, 0)
    sys.stdout.write("\n")


def _write_json(write, value, depth: int) -> None:
    """Write ``value`` as ``json.dumps(indent=2)`` does at nesting ``depth``.

    json never uses its C encoder when it indents, so a list of ints goes
    out as one join of its items' texts.  Other lists, and objects with
    string keys, are walked; every other value goes through json.dumps.
    """
    kind, pad = type(value), "\n" + "  " * depth
    if kind is bool:
        write("true" if value else "false")
    elif not value and kind in (list, tuple, dict):
        write("{}" if kind is dict else "[]")
    elif kind in (list, tuple) and set(map(type, value)) == {int}:  # not bool
        write(_int_list_text(map(str, value), depth))
    elif kind in (list, tuple) or (kind is dict and all(type(k) is str for k in value)):
        items = value.items() if kind is dict else zip(repeat(None), value)
        sep = "{" if kind is dict else "["
        for key, item in items:
            write(sep + pad + "  " + ("" if key is None else json.dumps(key) + ": "))
            _write_json(write, item, depth + 1)
            sep = ","
        write(pad + ("}" if kind is dict else "]"))
    else:
        # json escapes the newlines in strings, so any in the text are layout
        indent = 2 if isinstance(value, (list, tuple, dict)) else None
        write(json.dumps(value, indent=indent).replace("\n", pad))


def _ring_from_spec_obj(obj) -> FiniteRing:
    if type(obj) is not dict or "kind" not in obj:
        _check_fields(obj, "ring spec", {"preset": str}, {"name": str})
        ring = build_preset(obj["preset"])
    elif obj["kind"] != "dorroh":
        raise ValueError(f"unknown ring spec kind: {obj['kind']!r}")
    else:
        actions = {"left_action": list, "right_action": list}
        required = {"kind": str, "base": dict, "bimodule": dict, **actions}
        _check_fields(obj, "dorroh spec", required, {"name": str})
        data = DorrohData(
            base=_ring_from_spec_obj(obj["base"]),
            bimodule=_ring_from_spec_obj(obj["bimodule"]),
            left_action=_int_rows(obj["left_action"], "left_action"),
            right_action=_int_rows(obj["right_action"], "right_action"),
        )
        ring = build_dorroh(data)
    return renamed(ring, obj.get("name", ring.name))


def _cmd_build(args) -> int:
    # Once a large block has been freed, glibc keeps freed heap pages.  Without
    # a trim on both sides, the resident size of a process that builds rings
    # one after another would depend on what it freed before and on the order
    # of the rings, not only on the ring being built.
    _malloc_trim(0)
    # os.path.exists is False where Path.exists raises, as on a name too long
    # for a file, and unlike isfile it accepts a spec piped in as /dev/fd/N
    if os.path.exists(args.source):
        ring = _ring_from_spec_obj(_read_json(args.source, "ring spec"))
    else:
        ring = build_preset(args.source)
    save_ring(ring, args.output)
    print(f"wrote {ring.name} of order {ring.order} to {args.output}")
    del ring
    _malloc_trim(0)
    return 0


def _cmd_report(args) -> int:
    ring = load_ring(args.ring)
    report = build_report(ring)
    if args.format == "text":
        print(render_text(report), end="")
    else:
        _emit(report)
    return 0


def _cmd_check(args) -> int:
    ring = load_ring(args.ring)
    prop = _coerce(args.property)
    if args.element is None:
        holds, witness = ring_property(ring, prop)
        _emit({"holds": holds, "witness": witness})
        return 0 if holds else 1
    certificate = element_property(ring, args.element, prop)
    if certificate is None:
        _emit({"holds": False, "element": args.element, "property": prop.value})
        return 1
    payload = {
        "holds": True,
        "element": args.element,
        "property": prop.value,
        "witnesses": dict(certificate.witnesses),
        "checks": [[name, ok] for name, ok in certificate.checks],
    }
    if certificate.witness_count is not None:
        payload["witness_count"] = certificate.witness_count
    _emit(payload)
    return 0


def _cmd_delta(args) -> int:
    ring = load_ring(args.ring)
    try:
        computation = delta(ring)
    except DeltaDisagreement as err:
        _emit({"error": str(err), **err.computation.to_json()})
        return 1
    _emit(computation.to_json())
    return 0


def _load_entries(catalog_path: str | None):
    if catalog_path is None:
        return default_catalog()
    return load_catalog_manifest(catalog_path)


def _cmd_verify_paper(args) -> int:
    entries = _load_entries(args.catalog)
    rings = {entry.name: build_entry(entry) for entry in entries}
    # the default catalog's facts are fixed in its source and tested there
    mismatches = [
        f"{entry.name}: {mismatch}"
        for entry in (entries if args.catalog is not None else ())
        for mismatch in verify_expected(entry, rings[entry.name])
    ]
    results = theorem_suite(entries, rings)
    if args.format == "json":
        _emit([asdict(r) for r in results])
    else:
        width = max(len(r.claim_id) for r in results)
        for r in results:
            line = f"{r.claim_id:<{width}}  {r.status}"
            if r.witnesses:
                shown = ", ".join(
                    w["ring"] if w.get("element") is None else f"{w['ring']}#{w['element']}"
                    for w in r.witnesses
                )
                line += f"  [{shown}]"
            print(line)
    for mismatch in mismatches:
        print(f"expected fact mismatch: {mismatch}", file=sys.stderr)
    return 1 if has_violation(results) or mismatches else 0


def _cmd_search(args) -> int:
    entries = _load_entries(args.catalog)
    hit = search_counterexample(args.hyp, args.concl, entries)
    if hit is None:
        _emit({"found": False})
        return 1
    _emit({"found": True, **hit})
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no handler:
    :func:`main` looks up ``_cmd_<command>`` when it runs, so a replaced
    module global is seen."""
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Finite-ring construction, delta computations, and claim checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a ring from a preset or a spec file")
    p_build.add_argument("source", help="preset text such as zmod:4, or a JSON spec file")
    p_build.add_argument("-o", "--output", required=True, help="where to write the ring")

    p_report = sub.add_parser("report", help="full survey of one ring")
    p_report.add_argument("ring", help="ring JSON file")
    p_report.add_argument("--format", choices=("json", "text"), default="json")

    p_check = sub.add_parser("check", help="decide one property, with certificate")
    p_check.add_argument("ring", help="ring JSON file")
    p_check.add_argument("property", help="property name, e.g. delta-quasipolar")
    p_check.add_argument("--element", type=int, default=None)

    p_delta = sub.add_parser("delta", help="run all five delta characterizations")
    p_delta.add_argument("ring", help="ring JSON file")

    p_verify = sub.add_parser(
        "verify-paper", help="re-verify the claim registry over a catalog"
    )
    p_verify.add_argument("--catalog", default=None, help="catalog manifest JSON file")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")

    p_search = sub.add_parser(
        "search", help="search the catalog for an implication counterexample"
    )
    p_search.add_argument(
        "--hyp", action="append", required=True, help="hypothesis property (repeatable)"
    )
    p_search.add_argument("--concl", required=True, help="conclusion property")
    p_search.add_argument("--catalog", default=None, help="catalog manifest JSON file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (RinglabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
