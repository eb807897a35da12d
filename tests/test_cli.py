"""Command-line behavior: exit codes, output formats, determinism."""
from __future__ import annotations

import hashlib
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from ringlab import catalog
from ringlab.cli import main
from ringlab.core import build_zmod, ring_to_json
from ringlab.report import build_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- build

def test_build_preset_writes_ring_file(tmp_path, capsys):
    out = tmp_path / "z4.json"
    code, stdout, _ = run(capsys, "build", "zmod:4", "-o", str(out))
    assert code == 0
    assert "order 4" in stdout
    obj = json.loads(out.read_text())
    assert obj["order"] == 4


def test_build_trims_the_heap_before_building_and_after_dropping_the_ring(
    tmp_path, capsys, monkeypatch
):
    from ringlab import cli

    saved, trims = [], []

    def save(ring, path):
        saved.append(weakref.ref(ring))
        real_save(ring, path)

    real_save = cli.save_ring
    monkeypatch.setattr(cli, "save_ring", save)
    monkeypatch.setattr(cli, "_malloc_trim", lambda pad: trims.append((pad, [r() for r in saved])))
    code, _, _ = run(capsys, "build", "zmod:4", "-o", str(tmp_path / "z4.json"))
    assert code == 0 and trims == [(0, []), (0, [None])]


def test_build_examples_match_expected_orders(tmp_path, capsys):
    for preset, order in [
        ("tri:2:zmod:2", 8),
        ("mat:2:zmod:3", 81),
        ("cdtri:2:zmod:3", 9),
        ("dorroh:zmod:2", 4),
        ("quot:delta:tri:2:zmod:2", 2),
        # longer than a file name may be
        ("product:" + ",".join(["zmod:1"] * 40), 1),
    ]:
        out = tmp_path / "r.json"
        code, stdout, _ = run(capsys, "build", preset, "-o", str(out))
        assert code == 0
        assert f"order {order}" in stdout


def test_build_bad_preset_exits_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "build", "zmod:zero", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "error" in stderr


def test_build_into_directory_exits_2(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "build", "zmod:2", "-o", str(tmp_path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_build_size_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RINGLAB_SIZE_CAP", "10")
    # the k = 100000 matrix presets are refused on their digit count before
    # a cell is listed; M_100000(Z1) has order 1 but too many digits
    for preset in (
        "mat:2:zmod:2",
        "mat:100000:zmod:2",
        "tri:100000:zmod:2",
        "cdtri:100000:zmod:2",
        "mat:100000:zmod:1",
        "dorroh:zmod:4",
    ):
        code, _, stderr = run(capsys, "build", preset, "-o", str(tmp_path / "x.json"))
        assert code == 2, preset
        assert "cap" in stderr, preset
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, preset


@pytest.mark.parametrize(
    "preset",
    [
        "dorroh:zmod:4096",
        "mat:2:zmod:4096",
        "tri:2:zmod:100",
        "cdtri:3:zmod:64",
        "mat:2:dorroh:zmod:64",
        "product:zmod:2,zmod:4096",
        "quot:delta:dorroh:zmod:4096",
        "quot:gen:1:tri:2:zmod:4096",
    ],
)
def test_over_cap_recipe_is_refused_before_a_table_is_built(
    preset, tmp_path, capsys, monkeypatch
):
    """The order of every part but a quotient is read off the recipe, so no
    base is built for an extension over the cap (the default 4096 here)."""

    def refuse(*args):
        raise AssertionError(f"a table was built for {preset}")

    for name in ("build_zmod", "build_product", "_pattern_ring"):
        monkeypatch.setattr(catalog, name, refuse)
    code, stdout, stderr = run(capsys, "build", preset, "-o", str(tmp_path / "x.json"))
    assert code == 2 and stdout == ""
    assert "exceeds the size cap 4096" in stderr
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_build_from_spec_file(tmp_path, capsys):
    spec = {"preset": "tri:2:zmod:2", "name": "mytri"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "ring.json"
    code, stdout, _ = run(capsys, "build", str(spec_path), "-o", str(out))
    assert code == 0
    assert json.loads(out.read_text())["name"] == "mytri"


def test_build_dorroh_spec_file(tmp_path, capsys):
    spec = {
        "kind": "dorroh",
        "base": {"preset": "zmod:2"},
        "bimodule": {"preset": "zmod:2"},
        "left_action": [[0, 0], [0, 1]],
        "right_action": [[0, 0], [0, 1]],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "ring.json"
    code, stdout, _ = run(capsys, "build", str(spec_path), "-o", str(out))
    assert code == 0
    assert "order 4" in stdout


def test_build_dorroh_spec_rejects_bad_action(tmp_path, capsys):
    spec = {
        "kind": "dorroh",
        "base": {"preset": "zmod:2"},
        "bimodule": {"preset": "zmod:2"},
        "left_action": [[0, 0], [0, 0]],
        "right_action": [[0, 0], [0, 1]],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _, stderr = run(capsys, "build", str(spec_path), "-o", str(tmp_path / "r.json"))
    assert code == 2


@pytest.mark.parametrize(
    "preset, what",
    [("zmod:" + "1" * 5000, "modulus"), ("quot:gen:" + "1" * 5000 + ":zmod:4", "generator")],
    ids=["modulus", "generator"],
)
def test_build_refuses_a_number_too_long_to_convert_as_too_large(
    tmp_path, capsys, preset, what
):
    """int() converts at most 4300 digits; a longer number is too large, not
    badly written, and the one error line quotes only its first digits."""
    code, stdout, stderr = run(capsys, "build", preset, "-o", str(tmp_path / "x.json"))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {what} 1111111111... (5000 digits) is too large\n"


def test_build_reads_leading_zeros_past_the_conversion_limit(tmp_path, capsys):
    """Only significant digits count towards int()'s limit: zmod:05 is Z5
    however many zeros lead."""
    preset = "zmod:" + "0" * 5000 + "5"
    code, stdout, _ = run(capsys, "build", preset, "-o", str(tmp_path / "x.json"))
    assert code == 0 and "Z5 of order 5" in stdout


@pytest.mark.parametrize(
    "case, named",
    [
        ("order-digits", "exceeds the size cap 4096"),
        ("matrix-digits", "exceed the size cap 4096"),
        ("order-list", "field 'order'"),
        ("expected-delta", "malformed expected delta"),
    ],
)
def test_error_line_quotes_a_huge_input_in_short(tmp_path, capsys, case, named):
    """An order of 4300 digits, k^2 matrix digits past int()'s 4300-digit
    limit, a 100,000-int list where an int belongs and a 100,000-character
    expected delta: each exits 2 with one short line that names what is
    wrong."""
    ring_file, manifest = tmp_path / "ring.json", tmp_path / "catalog.json"
    ring_file.write_text(json.dumps({"order": list(range(100_000))}))
    entry = {"name": "z2", "preset": "zmod:2", "expected": {"delta": "x" * 100_000}}
    manifest.write_text(json.dumps({"entries": [entry]}))
    argv = {
        "order-digits": ["build", "zmod:" + "1" * 4300, "-o", str(tmp_path / "x.json")],
        "matrix-digits": ["build", f"mat:{'9' * 2200}:zmod:2", "-o", str(tmp_path / "x.json")],
        "order-list": ["report", str(ring_file)],
        "expected-delta": ["verify-paper", "--catalog", str(manifest)],
    }[case]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == "" and stderr.endswith("\n")
    line = stderr[:-1]
    assert line.startswith("error: ") and "\n" not in line
    assert len(line) <= 200 and named in line, line[:300]


_LONG = "x" * 100_000

# each bad input with a 100,000-character part, and what its error names
_LONG_INPUTS = {
    "preset-kind": (_LONG, "unknown preset kind: 'xxx"),
    "modulus-digits": ("zmod:" + _LONG, "modulus must be written in ASCII digits, got 'xxx"),
    "zmod-shape": ("zmod:2:" + _LONG, "expected zmod:N, got 'zmod:2:xxx"),
    "product-shape": ("product:zmod:2,," + _LONG, "expected product:P1,P2[,...], got"),
    "pattern-shape": ("mat:" + _LONG, "expected mat:K:P, got 'mat:xxx"),
    "quot-gen-shape": ("quot:gen:" + "1" * 100_000, "expected quot:gen:I1[+I2...]:P, got"),
    "quot-mode": ("quot:" + _LONG + ":zmod:2", "unknown quotient mode in 'quot:xxx"),
    "generator": ("quot:gen:" + _LONG + ":zmod:2", "bad generator 'xxx"),
    "spec-kind": ({"kind": _LONG}, "unknown ring spec kind: 'xxx"),
    "spec-repeated-key": (
        '{"K": 1, "K": 2}'.replace("K", _LONG[:50_000]), "ring spec repeats field 'xxx"
    ),
    "manifest-repeated-name": ([{"name": _LONG, "preset": "zmod:2"}] * 2, "duplicate catalog"),
    "manifest-no-recipe": ([{"name": _LONG}], "needs exactly one of 'preset' or 'file'"),
}


@pytest.mark.parametrize("case", sorted(_LONG_INPUTS))
def test_error_line_quotes_a_long_preset_spec_or_name_in_short(tmp_path, capsys, case):
    """A preset, a spec's kind or repeated key, or a manifest entry's name of
    50,000 characters or more exits 2 with one line of at most 200
    characters that names what is wrong."""
    source, named = _LONG_INPUTS[case]
    path = tmp_path / "input.json"
    if case.startswith("manifest"):
        path.write_text(json.dumps({"entries": source}))
        argv = ["verify-paper", "--catalog", str(path)]
    else:
        if case.startswith("spec"):
            path.write_text(source if type(source) is str else json.dumps(source))
            source = str(path)
        argv = ["build", source, "-o", str(tmp_path / "x.json")]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == "" and stderr.endswith("\n")
    line = stderr[:-1]
    assert line.startswith("error: ") and "\n" not in line
    assert len(line) <= 200 and named in line, line[:300]


_HUGE_ELEMENT = "9" * 4000
_LONG_NAME = "x" * 5000

# each command with a huge element or a long property name, and what its error
# names; a short input is quoted whole
_LONG_PROPERTY_INPUTS = {
    "check-element": (["check", "RING", "clean", "--element", _HUGE_ELEMENT],
                      "element 9999999999... (4000 digits) out of range for order 2"),
    "check-property": (["check", "RING", _LONG_NAME], "unknown property name: 'xxx"),
    "search-hyp": (["search", "--hyp", _LONG_NAME, "--concl", "clean"],
                   "unknown property name: 'xxx"),
    "manifest-property": (["verify-paper", "--catalog", "MANIFEST"],
                          "unknown property name: 'xxx"),
    "short-element": (["check", "RING", "clean", "--element", "7"],
                      "element 7 out of range for order 2"),
    "short-property": (["check", "RING", "bogus"], "unknown property name: 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(_LONG_PROPERTY_INPUTS))
def test_error_line_quotes_a_huge_element_or_property_name_in_short(tmp_path, capsys, case):
    """An element of 4,000 digits, and a property name of 5,000 characters
    given to check, to search or as a manifest's expected property, each
    exit 2 with one line of at most 200 characters naming the fault."""
    ring_file, manifest = tmp_path / "ring.json", tmp_path / "catalog.json"
    ring_file.write_text(json.dumps(ring_to_json(build_zmod(2))))
    entry = {"name": "z2", "preset": "zmod:2", "expected": {"properties": {_LONG_NAME: True}}}
    manifest.write_text(json.dumps({"entries": [entry]}))
    argv, named = _LONG_PROPERTY_INPUTS[case]
    paths = {"RING": str(ring_file), "MANIFEST": str(manifest)}
    code, stdout, stderr = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 2 and stdout == "" and stderr.endswith("\n")
    line = stderr[:-1]
    assert line.startswith("error: ") and "\n" not in line
    assert len(line) <= 200 and named in line, line[:300]
    if case.startswith("short"):
        assert line == f"error: {named}"


@pytest.mark.parametrize(
    "preset, message",
    [
        ("ring", "unknown preset kind: 'ring'"),
        ("zmod:x", "modulus must be written in ASCII digits, got 'x'"),
        ("zmod:2:3", "expected zmod:N, got 'zmod:2:3'"),
        ("product:zmod:2,", "expected product:P1,P2[,...], got 'product:zmod:2,'"),
        ("tri:2", "expected tri:K:P, got 'tri:2'"),
        ("quot:gen:1", "expected quot:gen:I1[+I2...]:P, got 'quot:gen:1'"),
        ("quot:both:zmod:4", "unknown quotient mode in 'quot:both:zmod:4'"),
        ("quot:gen:a:zmod:4", "bad generator 'a' in 'quot:gen:a:zmod:4'"),
    ],
)
def test_error_line_quotes_a_short_preset_whole(tmp_path, capsys, preset, message):
    code, stdout, stderr = run(capsys, "build", preset, "-o", str(tmp_path / "x.json"))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


def test_build_refuses_a_preset_nested_past_the_recursion_limit(tmp_path, capsys):
    preset = "tri:1:" * 5000 + "zmod:2"
    code, stdout, stderr = run(capsys, "build", preset, "-o", str(tmp_path / "x.json"))
    assert code == 2 and stdout == ""
    assert stderr == "error: preset is nested too deeply\n"


# deeper than the JSON parser can recurse
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _dorroh_spec(left_action):
    return {
        "kind": "dorroh",
        "base": {"preset": "zmod:2"},
        "bimodule": {"preset": "zmod:2"},
        "left_action": left_action,
        "right_action": [[0, 0], [0, 1]],
    }


@pytest.mark.parametrize(
    "spec",
    [
        {"preset": 5},
        {"preset": "zmod:4", "name": 7},
        {**_dorroh_spec([[0, 0], [0, 1]]), "base": {"preset": ["zmod:2"]}},
        _dorroh_spec([1, 2]),
        _dorroh_spec([[0, 0], [0, "1"]]),
        _dorroh_spec([["0", 0], [0, 1]]),
        _dorroh_spec([[0, 0], [0, True]]),
        _dorroh_spec({"0": [0, 0]}),
        _dorroh_spec([[0, 0]]),
        {**_dorroh_spec([[0, 0], [0, 1]]), "right_action": [[0, 0], [0]]},
        _dorroh_spec([[0, 2], [0, 1]]),
        {**_dorroh_spec([[0, 0], [0, 1]]), "right_action": [[0, -1], [0, 1]]},
        {"kind": "dorrow", "preset": "zmod:2", "nmae": "x"},
        {"preset": "zmod:2", "nmae": "x"},
        '{"preset": "zmod:2", "preset": "zmod:4"}',
        _DEEP_JSON,
    ],
    ids=["preset-int", "name-int", "nested-preset-list", "action-flat", "action-str",
         "action-str-first", "action-bool", "action-object", "left-action-short",
         "right-action-row-short", "left-action-out-of-range", "right-action-negative",
         "unknown-kind", "unknown-key", "repeated-key", "deep-nesting"],
)
def test_build_rejects_malformed_spec(tmp_path, capsys, spec):
    """Each spec is a JSON value, or the file's text where JSON values cannot
    say it."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    out = tmp_path / "r.json"
    code, stdout, stderr = run(capsys, "build", str(spec_path), "-o", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert not out.exists()


# ------------------------------------------------------------------ report

@pytest.fixture()
def z4_file(tmp_path, capsys):
    out = tmp_path / "z4.json"
    assert main(["build", "zmod:4", "-o", str(out)]) == 0
    capsys.readouterr()
    return out


def test_report_json(z4_file, capsys):
    code, stdout, _ = run(capsys, "report", str(z4_file))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["delta"]["consensus"] == [0, 2]
    assert rep["properties"]["uniquely-clean"] is True


def test_report_text(z4_file, capsys):
    code, stdout, _ = run(capsys, "report", str(z4_file), "--format", "text")
    assert code == 0
    assert "delta" in stdout and "uniquely-clean" in stdout


def test_report_missing_file_exits_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "report", str(tmp_path / "nope.json"))
    assert code == 2


def test_report_rejects_invalid_ring_file(tmp_path, capsys):
    bad = {"name": "bad", "order": 2, "zero": 0, "one": 1,
           "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, stderr = run(capsys, "report", str(path))
    assert code == 2
    assert "error" in stderr


@pytest.mark.parametrize(
    "changes",
    [
        {"zero": "0"},
        {"one": None},
        {"add": [[False, True], [True, False]]},
        {"order": True, "zero": 0, "one": 0, "add": [[0]], "mul": [[0]]},
        {"mul": [[0, 0], [0, 7]]},
        {"labels": [None, {"x": 1}]},
        {"name": ["a"]},
    ],
    ids=[
        "zero-string",
        "one-null",
        "bool-entries",
        "order-true",
        "entry-out-of-range",
        "labels-not-strings",
        "name-list",
    ],
)
def test_report_rejects_mistyped_ring_file(tmp_path, capsys, changes):
    ring = {"name": "Z2", "order": 2, "zero": 0, "one": 1,
            "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
    ring.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ring))
    code, stdout, stderr = run(capsys, "report", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


_Z2_FIELDS = (
    '"name": "Z2", "order": 2, "zero": 0, "one": 1, '
    '"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]'
)


@pytest.mark.parametrize(
    "text",
    [
        "{" + _Z2_FIELDS + ', "extra": 1}',
        "{" + _Z2_FIELDS + ', "Order": 2}',
        "{" + _Z2_FIELDS + ', "order": 2}',
        "{" + _Z2_FIELDS + ', "mul": [[0, 0], [0, 0]]}',
        '{"name": "a", ' + _Z2_FIELDS + "}",
        _DEEP_JSON,
    ],
    ids=["extra", "wrong-case", "repeated-order", "repeated-mul", "repeated-name",
         "deep-nesting"],
)
def test_report_rejects_unknown_and_repeated_ring_fields(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, stdout, stderr = run(capsys, "report", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ring data ") and stderr.count("\n") == 1


# Every value below is malformed where it is put, so each drawn ring file must
# be rejected: a wrong JSON type, a wrong shape, or an index out of range.
_NON_INT = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.integers(), max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
_NON_STR = _NON_INT.filter(lambda v: not isinstance(v, str)) | st.integers()
_WRONG_TYPE = {
    "order": _NON_INT,
    "zero": _NON_INT,
    "one": _NON_INT,
    "add": _NON_INT,
    "mul": _NON_INT,
    "labels": _NON_INT.filter(lambda v: v is not None),
    "name": _NON_STR,
}


@st.composite
def _malformed_ring(draw):
    n = draw(st.sampled_from([2, 3]))
    ring = ring_to_json(build_zmod(n))
    out_of_range = st.integers(max_value=-1) | st.integers(min_value=n)
    kind = draw(st.sampled_from(
        ["not-object", "missing", "type", "cell", "rows", "row", "index", "order",
         "label"]
    ))
    if kind == "not-object":
        return draw(_NON_INT.filter(lambda v: not isinstance(v, dict)))
    if kind == "missing":
        del ring[draw(st.sampled_from(["order", "zero", "one", "add", "mul"]))]
    elif kind == "type":
        key = draw(st.sampled_from(sorted(_WRONG_TYPE)))
        ring[key] = draw(_WRONG_TYPE[key])
    elif kind == "cell":
        table = ring[draw(st.sampled_from(["add", "mul"]))]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(_NON_INT | out_of_range)
    elif kind == "rows":
        table = ring[draw(st.sampled_from(["add", "mul"]))]
        if draw(st.booleans()):
            table.pop()
        else:
            table.append(list(range(n)))
    elif kind == "row":
        row = ring[draw(st.sampled_from(["add", "mul"]))][draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(0)
    elif kind == "index":
        ring[draw(st.sampled_from(["zero", "one"]))] = draw(out_of_range)
    elif kind == "order":
        ring["order"] = draw(st.integers().filter(lambda v: v != n))
    else:
        ring["labels"][draw(st.integers(0, n - 1))] = draw(_NON_STR)
    return ring


@settings(max_examples=200)
@given(_malformed_ring())
def test_report_rejects_malformed_ring_json(tmp_path_factory, ring):
    path = tmp_path_factory.mktemp("fuzz") / "bad.json"
    path.write_text(json.dumps(ring))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["report", str(path)])
    assert code == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue().startswith("error: ")
    assert stderr.getvalue().count("\n") == 1


@pytest.mark.parametrize("entry", ["-1", "-8", "5", "10", "1000000000", "true", "1.0"])
def test_report_rejects_an_odd_table_entry(tmp_path, capsys, entry):
    """Z5 with one cell of each table replaced: in [-2n, -n), [-n, 0),
    [n, 2n) and beyond, or not an integer."""
    text = json.dumps(ring_to_json(build_zmod(5)), indent=2)
    for key in ("add", "mul"):
        obj = json.loads(text)
        obj[key][2][3] = "ENTRY"
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(obj, indent=2).replace('"ENTRY"', entry))
        code, stdout, stderr = run(capsys, "report", str(path))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


# ------------------------------------------------------------------- check

def test_check_ring_property_pass(z4_file, capsys):
    code, stdout, _ = run(capsys, "check", str(z4_file), "delta-quasipolar")
    assert code == 0
    assert json.loads(stdout)["holds"] is True


def test_check_ring_property_fail(tmp_path, capsys):
    out = tmp_path / "t2z3.json"
    assert main(["build", "tri:2:zmod:3", "-o", str(out)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(capsys, "check", str(out), "delta-quasipolar")
    assert code == 1
    payload = json.loads(stdout)
    assert payload["holds"] is False
    assert payload["witness"] == 9


def test_check_element_certificate(z4_file, capsys):
    code, stdout, _ = run(
        capsys, "check", str(z4_file), "strongly-j-clean", "--element", "3"
    )
    assert code == 0
    cert = json.loads(stdout)
    assert cert["witnesses"] == {"e": 1, "w": 2}
    assert all(ok for _, ok in cert["checks"])


_QP = ["p is idempotent", "p double-commutes with the element"]
_CLEAN = ["e is idempotent", "u is a unit", "e + u equals the element"]
_J_CLEAN = ["e is idempotent", "w lies in the Jacobson radical", "e + w equals the element"]
_DELTA_CLEAN = ["e is idempotent", "w lies in delta", "e + w equals the element"]
_UNIQUE = "the decomposition is unique"

# (preset, element, property) -> (witnesses, check names, witness_count); the
# element is T2(Z2)'s [[1,1],[0,1]] except where it fails the property
CHECK_ELEMENT_PINS = {
    ("tri:2:zmod:2", 7, "quasipolar"): (
        {"p": 0},
        _QP + ["element plus p is a unit", "element times p is quasinilpotent"],
        None,
    ),
    ("tri:2:zmod:2", 7, "nil-quasipolar"): (
        {"p": 5}, _QP + ["element plus p is nilpotent"], None,
    ),
    ("tri:2:zmod:2", 7, "j-quasipolar"): (
        {"p": 5}, _QP + ["element plus p lies in the Jacobson radical"], None,
    ),
    ("tri:2:zmod:2", 7, "delta-quasipolar"): (
        {"p": 5}, _QP + ["element plus p lies in delta"], None,
    ),
    ("tri:2:zmod:2", 7, "weakly-delta-quasipolar"): (
        {"p": 5},
        ["p is idempotent", "p commutes with the element", "element plus p lies in delta"],
        None,
    ),
    ("tri:2:zmod:2", 7, "clean"): ({"e": 0, "u": 7}, _CLEAN, None),
    ("tri:2:zmod:2", 7, "strongly-clean"): (
        {"e": 0, "u": 7}, _CLEAN + ["e and u commute"], None,
    ),
    ("tri:2:zmod:2", 7, "uniquely-clean"): ({"e": 0, "u": 7}, _CLEAN + [_UNIQUE], 1),
    ("tri:2:zmod:2", 7, "j-clean"): ({"e": 5, "w": 2}, _J_CLEAN, None),
    ("tri:2:zmod:2", 7, "strongly-j-clean"): (
        {"e": 5, "w": 2}, _J_CLEAN + ["e and w commute"], None,
    ),
    ("tri:2:zmod:2", 7, "delta-r-clean"): ({"e": 4, "w": 3}, _DELTA_CLEAN, None),
    ("tri:2:zmod:2", 7, "strongly-delta-r-clean"): (
        {"e": 5, "w": 2}, _DELTA_CLEAN + ["e and w commute"], None,
    ),
    # no element of T2(Z2) is uniquely delta-r-clean
    ("tri:2:zmod:2", 7, "uniquely-delta-r-clean"): None,
    ("zmod:4", 3, "uniquely-delta-r-clean"): ({"e": 1, "w": 2}, _DELTA_CLEAN + [_UNIQUE], 1),
    ("tri:2:zmod:2", 7, "von-neumann-regular"): ({"b": 7}, ["a b a equals a"], None),
    ("tri:2:zmod:2", 7, "strongly-regular"): ({"b": 7}, ["a a b equals a"], None),
    ("tri:2:zmod:2", 7, "strongly-pi-regular"): (
        {"n": 1, "x": 7}, ["the exponent is at least 1", "a^n equals a^(n+1) x"], None,
    ),
    ("tri:2:zmod:2", 7, "exchange"): (
        {"e": 5, "r": 7, "s": 0},
        ["e is idempotent", "a r equals e", "(1 - a) s equals 1 - e"],
        None,
    ),
}


@pytest.mark.parametrize("key", CHECK_ELEMENT_PINS, ids=lambda key: "{}:{}:{}".format(*key))
def test_check_element_payload_is_pinned(tmp_path, capsys, key):
    preset, element, prop = key
    path = tmp_path / "ring.json"
    assert main(["build", preset, "-o", str(path)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(capsys, "check", str(path), prop, "--element", str(element))
    expected = {"holds": False, "element": element, "property": prop}
    if CHECK_ELEMENT_PINS[key] is not None:
        witnesses, names, count = CHECK_ELEMENT_PINS[key]
        expected.update(
            holds=True, witnesses=witnesses, checks=[[name, True] for name in names]
        )
        if count is not None:
            expected["witness_count"] = count
    assert (code, json.loads(stdout)) == (0 if expected["holds"] else 1, expected)


def test_check_element_prints_its_checks_as_json_true(tmp_path, capsys):
    """json.loads reads 1 as equal to True, so the pins above would pass an
    int check; the text must say true."""
    path = tmp_path / "ring.json"
    assert main(["build", "tri:2:zmod:2", "-o", str(path)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "check", str(path), "weakly-delta-quasipolar", "--element", "7"
    )
    checks = json.loads(stdout)["checks"]
    assert code == 0 and len(checks) == 3
    assert all(ok is True for _, ok in checks)
    assert stdout.count("true") == 4  # "holds" and the three checks


def test_check_element_refutation(z4_file, capsys):
    code, stdout, _ = run(
        capsys, "check", str(z4_file), "von-neumann-regular", "--element", "2"
    )
    assert code == 1
    assert json.loads(stdout)["holds"] is False


def test_check_usage_errors(z4_file, capsys):
    code, _, _ = run(capsys, "check", str(z4_file), "sparkly")
    assert code == 2
    code, _, _ = run(capsys, "check", str(z4_file), "boolean", "--element", "1")
    assert code == 2
    code, _, _ = run(capsys, "check", str(z4_file), "clean", "--element", "99")
    assert code == 2


# ------------------------------------------------------------------- delta

def test_delta_command(z4_file, capsys):
    code, stdout, _ = run(capsys, "delta", str(z4_file))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["agree"] is True
    for key in ("r1", "r2", "r3", "r4", "r5"):
        assert payload[key] == [0, 2]


def test_delta_disagreement_exits_1_with_every_route(z4_file, capsys, monkeypatch):
    from ringlab import radicals
    from ringlab.core import ElementSet

    monkeypatch.setattr(radicals, "delta_r5", lambda ring: ElementSet.empty(ring.order))
    code, stdout, _ = run(capsys, "delta", str(z4_file))
    assert code == 1
    payload = json.loads(stdout)
    assert list(payload) == ["error", "r1", "r2", "r3", "r4", "r5", "agree", "consensus"]
    assert payload["error"].startswith("delta characterizations disagree on Z4")
    assert [payload[f"r{i}"] for i in range(1, 6)] == [[0, 2]] * 4 + [[]]
    assert payload["agree"] is False and payload["consensus"] is None


def test_parser_is_built_once_and_handlers_are_read_per_call(z4_file, capsys, monkeypatch):
    """The parser is cached, yet a handler replaced after a first call is the
    one a later call runs."""
    from ringlab import cli

    assert cli._parser() is cli._parser()
    assert run(capsys, "delta", str(z4_file))[0] == 0
    calls = []
    monkeypatch.setattr(cli, "_cmd_delta", lambda args: calls.append(args.ring) or 7)
    assert run(capsys, "delta", str(z4_file))[0] == 7
    assert calls == [str(z4_file)]


# ------------------------------------------------------------------ search

def test_search_found(capsys):
    code, stdout, _ = run(
        capsys, "search", "--hyp", "delta-quasipolar", "--concl", "j-quasipolar"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["found"] is True
    assert payload["ring"] == "Z3"


def test_search_none(capsys):
    code, stdout, _ = run(
        capsys, "search", "--hyp", "j-quasipolar", "--concl", "delta-quasipolar"
    )
    assert code == 1
    assert json.loads(stdout)["found"] is False


def test_search_bad_property_exits_2(capsys):
    code, _, _ = run(capsys, "search", "--hyp", "shiny", "--concl", "clean")
    assert code == 2


# ------------------------------------------------------------ verify-paper

def test_verify_paper_subprocess_exit_zero(verify_cli_run):
    proc, results = verify_cli_run
    assert proc.returncode == 0, proc.stderr
    assert results is not None
    statuses = {r["status"] for r in results}
    assert "violated" not in statuses


def test_verify_paper_text_table(capsys):
    code, stdout, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "holds-on-catalog" in stdout
    assert "disputed-paper-claim" in stdout


def test_verify_paper_custom_catalog(tmp_path, capsys):
    manifest = {"entries": [{"name": "OnlyZ2", "preset": "zmod:2"}]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(manifest))
    code, stdout, _ = run(
        capsys, "verify-paper", "--catalog", str(path), "--format", "json"
    )
    assert code == 0
    results = json.loads(stdout)
    # on a Z2-only catalog nothing is violated and nothing disputed fires
    assert {r["status"] for r in results} <= {"holds-on-catalog", "out-of-scope"}


def test_verify_paper_bad_catalog_exits_2(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text("{not json")
    code, _, stderr = run(capsys, "verify-paper", "--catalog", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "entries",
    [
        [{"name": "a", "preset": "zmod:2"}, {"name": "a", "preset": "zmod:3"}],
        [{"name": "a", "file": 5}],
        [{"name": ["a"], "preset": "zmod:2"}],
        [{"name": "a", "preset": "zmod:2", "nmae": "x"}],
        [{"name": "a", "preset": 2}],
        [{"name": "a", "preset": "zmod:2", "basis": 1}],
        [{"name": "a", "preset": "zmod:2", "expected": [2]}],
        [{"name": "a", "preset": "zmod:2", "file": "a.json"}],
        [["a", "zmod:2"]],
        [{"name": "a", "preset": "zmod:2", "expected": {"ordr": 2}}],
        [{"name": "a", "preset": "zmod:2", "expected": {"order": "2"}}],
        [{"name": "a", "preset": "zmod:2", "expected": {"delta": 5}}],
        [{"name": "a", "preset": "zmod:2", "expected": {"jacobson": "full"}}],
        [{"name": "a", "preset": "zmod:2", "expected": {"properties": [1]}}],
        [{"name": "a", "preset": "zmod:2", "expected": {"properties": {"shiny": True}}}],
        [{"name": "a", "preset": "zmod:2", "expected": {"properties": {"boolean": 1}}}],
        '{"entries": [{"name": "A", "preset": "zmod:2", "preset": "zmod:4"}]}',
        '{"entries": [{"name": "a", "preset": "zmod:2"}], "bogus": 1}',
        _DEEP_JSON,
        [{"name": "a", "preset": "tri:1:" * 1200 + "zmod:2"}],
    ],
    ids=["duplicate-name", "file-int", "name-list", "unknown-key", "preset-int",
         "basis-int", "expected-list", "preset-and-file", "entry-list",
         "expected-unknown-fact", "expected-order-string", "expected-delta-int",
         "expected-jacobson-full", "expected-properties-list",
         "expected-unknown-property", "expected-property-int", "repeated-key",
         "unknown-top-level-key", "deep-nesting", "deep-preset"],
)
def test_verify_paper_rejects_malformed_manifest(tmp_path, capsys, entries):
    """Each case is an entries list, or the file's text where JSON values
    cannot say it."""
    path = tmp_path / "cat.json"
    path.write_text(entries if isinstance(entries, str) else json.dumps({"entries": entries}))
    code, stdout, stderr = run(capsys, "verify-paper", "--catalog", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_verify_paper_reports_each_expected_fact_mismatch(tmp_path, capsys):
    """Wrong expected facts exit 1 with one stderr line each; stdout is the
    one the same catalog gives without them."""
    manifests = {}
    for label, expected in (
        ("plain", None),
        ("right", {"order": 2, "delta": "full", "properties": {"boolean": True}}),
        ("wrong", {"order": 3, "delta": [0], "jacobson": [1],
                   "properties": {"boolean": False}}),
    ):
        entry = {"name": "a", "preset": "zmod:2"}
        if expected is not None:
            entry["expected"] = expected
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"entries": [entry]}))
        manifests[label] = run(capsys, "verify-paper", "--catalog", str(path))
    plain_code, plain_stdout, _ = manifests["plain"]
    assert plain_code == 0
    assert manifests["right"] == (0, plain_stdout, "")
    code, stdout, stderr = manifests["wrong"]
    assert code == 1
    assert stdout == plain_stdout
    assert stderr.splitlines() == [
        "expected fact mismatch: a: order: expected 3, computed 2",
        "expected fact mismatch: a: delta: expected [0], computed [0, 1]",
        "expected fact mismatch: a: jacobson: expected [1], computed [0]",
        "expected fact mismatch: a: property boolean: expected False, computed True",
    ]


# sha256 of `ringlab verify-paper` stdout on the default catalog
GOLDEN_VERIFY_SHA256 = {
    "text": "6ab5f61c44d72d517367340e7ffef022ed1da8c927a7d413b9cc1ec9eb85ec22",
    "json": "6ba9d4ca6bd5886d56ca69d44524719e4ddd660409e6fe9aa17ad9ffdc9e4f13",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_paper_matches_golden_hash(capsys, fmt):
    code, stdout, _ = run(capsys, "verify-paper", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_VERIFY_SHA256[fmt]


# ------------------------------------------------------------ determinism

def test_report_byte_identical_runs(tmp_path, capsys):
    out = tmp_path / "m2z2.json"
    assert main(["build", "mat:2:zmod:2", "-o", str(out)]) == 0
    capsys.readouterr()
    first = run(capsys, "report", str(out))
    second = run(capsys, "report", str(out))
    assert first == second


# sha256 of `ringlab report FILE` stdout (default JSON), one ring file per
# preset written by `ringlab build`
GOLDEN_REPORT_SHA256 = {
    "mat:2:zmod:2": "0f58bcd21e3ebb483d406a830defb2c8877a3717fa3e2e710b4034054e55c954",
    "tri:2:zmod:4": "37f9ffdffdade1284835ec7b4982179302859e47d57b49100c5ed43acf211840",
    "product:tri:2:zmod:2,zmod:2": (
        "2a8c9e74eac32fed6b0e2e49d3d30a39786c88a30ac5fa48f27b1c8cda13beca"
    ),
    "cdtri:3:zmod:2": "a0c76fa5374a27958184b4d3e16032feb736cefc07f57bbc68796219abf8bbe7",
    "zmod:256": "9d027918bbd93677a993edfb70d52a889d61c2c94ce2c96107ba1774331955b0",
    "dorroh:tri:2:zmod:2": (
        "7f84af8b165c3167d41152ab3d245de9b430426e1ecd36fa3a76c3b6b0fcbe64"
    ),
    "quot:gen:2:tri:2:zmod:4": (
        "f308480397eedd21ffecf6c44cd67e7e6bb913b841948cea251020b6916a2006"
    ),
    # order 256: the slowest rings of the report path
    "mat:2:zmod:4": "225e25c65c19f3a3c5ab7bfd2d37a3aba6a14246f36865ac54d65d62e2dfe75f",
    "cdtri:3:zmod:4": "6d5952dc15b5240730f788a8795bea0b20f5c0c848f399aa9db52a53631efaaf",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_REPORT_SHA256))
def test_report_matches_golden_hash(tmp_path, capsys, preset):
    out = tmp_path / "ring.json"
    assert main(["build", preset, "-o", str(out)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(capsys, "report", str(out))
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_REPORT_SHA256[preset]


# ------------------------------------------------------------------- emit
#
# _emit writes lists of ints through one join, so every payload it writes is
# compared with json.dumps(payload, indent=2), the text it stands in for.

# the rings of the report-load benchmark workload, orders 64-256
REPORT_LOAD_RINGS = [
    "tri:3:zmod:2",
    "dorroh:tri:2:zmod:2",
    "tri:2:zmod:4",
    "mat:2:zmod:3",
    "cdtri:4:zmod:2",
    "product:mat:2:zmod:2,zmod:8",
    "product:tri:3:zmod:2,zmod:2",
    "tri:2:zmod:6",
    "mat:2:zmod:4",
    "cdtri:3:zmod:4",
]


def _emitted(capsys, payload) -> str:
    from ringlab import cli

    cli._emit(payload)
    return capsys.readouterr().out


def test_emit_writes_json_dumps_of_every_catalog_report(catalog_rings, capsys):
    for name, ring in catalog_rings.items():
        report = build_report(ring)
        assert _emitted(capsys, report) == json.dumps(report, indent=2) + "\n", name


@pytest.mark.parametrize("preset", REPORT_LOAD_RINGS)
def test_emit_writes_json_dumps_of_a_report_load_report(capsys, preset):
    report = build_report(catalog.build_preset(preset))
    assert _emitted(capsys, report) == json.dumps(report, indent=2) + "\n"


def test_emit_writes_json_dumps_of_every_command_payload(tmp_path, capsys, monkeypatch):
    from ringlab import cli

    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload: (payloads.append(payload), emit(payload)))
    files = {}
    for preset in ("zmod:4", "tri:2:zmod:3"):
        files[preset] = str(tmp_path / f"{preset.replace(':', '_')}.json")
        assert main(["build", preset, "-o", files[preset]]) == 0
    commands = [
        ["verify-paper", "--format", "json"],
        ["delta", files["zmod:4"]],
        ["delta", files["tri:2:zmod:3"]],
        ["check", files["zmod:4"], "delta-quasipolar"],
        ["check", files["tri:2:zmod:3"], "delta-quasipolar"],
        ["check", files["zmod:4"], "strongly-j-clean", "--element", "3"],
        ["check", files["zmod:4"], "uniquely-clean", "--element", "1"],
        ["check", files["tri:2:zmod:3"], "exchange", "--element", "5"],
        ["search", "--hyp", "delta-quasipolar", "--concl", "j-quasipolar"],
        ["search", "--hyp", "j-quasipolar", "--concl", "delta-quasipolar"],
    ]
    for argv in commands:
        capsys.readouterr()
        payloads.clear()
        main(argv)
        stdout = capsys.readouterr().out
        assert len(payloads) == 1, argv
        assert stdout == json.dumps(payloads[0], indent=2) + "\n", argv


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
)
_JSON_KEYS = st.text(max_size=4) | st.integers() | st.booleans() | st.none() | st.floats()


@settings(max_examples=300)
@given(
    st.recursive(
        _JSON_SCALARS,
        lambda inner: (
            st.lists(inner, max_size=4)
            | st.lists(st.integers(), max_size=4)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4)
            | st.dictionaries(_JSON_KEYS, inner, max_size=3)
        ),
        max_leaves=24,
    )
)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example([1, True, 2])
@example([0, None])
@example([False])
@example([1, "2", [3], 4.0])
@example(["quote \" backslash \\ newline \n tab \t", "é€\U0001d4b5", "\x00\x1f\x7f"])
@example({"é\n": [" "], "k": [1, 2, 3]})
@example({1: [2], "1": [3], None: True, 2.5: []})
def test_emit_writes_json_dumps_of_any_value(value):
    from ringlab import cli

    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(value)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"
