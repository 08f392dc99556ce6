"""File round-trips and CLI subcommand behavior (exit codes, JSON reports)."""

import ast
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperscheme as hs
import reference_io
from hyperscheme import io as hio
from hyperscheme import scheme, walks
from hyperscheme.cli import EXIT, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def files(tmp_path, k3_scheme, k3_hypergroup, s3_table):
    paths = {}
    paths["k3"] = tmp_path / "k3.json"
    hio.save(paths["k3"], hio.scheme_to_dict(k3_scheme))
    paths["broken"] = tmp_path / "broken.json"
    hio.save(paths["broken"],
             {"n_points": 3, "relations": [[0, 1, 2], [2, 0, 2], [2, 2, 0]]})
    paths["k3hg"] = tmp_path / "k3hg.json"
    hio.save(paths["k3hg"], hio.hypergroup_to_dict(k3_hypergroup))
    paths["k3gs"] = tmp_path / "k3gs.json"
    hio.save(paths["k3gs"],
             hio.scheme_to_dict(hs.canonical_generalized(k3_scheme)))
    paths["s3"] = tmp_path / "s3.json"
    hio.save(paths["s3"], {"n": 6, "table": s3_table.tolist()})
    k3hg = hio.hypergroup_to_dict(k3_hypergroup)
    malformed = {
        "zero_den": {**k3hg, "conv": [[["1", "0"], ["0", "1"]],
                                      [["0", "1"], ["1/2", "1/0"]]]},
        "identity5": {**k3hg, "identity": 5},
        "short_inv": {**k3hg, "involution": [0]},
        "wrong_inv": {**k3hg, "involution": [1, 0]},
        "rows_2_3": {**k3hg, "conv": [[["1", "0"], ["0", "1"]],
                                      [["0", "1"], ["1/3", "1/3"]]]},
        # row (1, 1) sums to 1 + 1e-10: inside a float tolerance, not exact
        "rows_near_1": {**k3hg, "conv": [
            [["1", "0"], ["0", "1"]], [["0", "1"], ["1/2", "5000000001/10000000000"]]]},
        "n3": {**k3hg, "n": 3},
        "k3hg_float": {**k3hg, "conv": [[[float(Fraction(v)) for v in row] for row in m]
                                        for m in k3hg["conv"]]},
        "group_n3": {"n": 3, "table": [[0, 1], [1, 0]]},
        "list": [],
        # integer fields that numpy would truncate or overflow on
        "label_half": {"n_points": 3, "relations": [[0, 1.5, 1], [1, 0, 1], [1, 1, 0]]},
        "label_huge": {"n_points": 3, "relations": [[0, 2 ** 70, 1], [1, 0, 1], [1, 1, 0]]},
        "identity_half": {**k3hg, "identity": 0.5},
        "involution_half": {**k3hg, "involution": [0, 1.5]},
        "table_huge": {"n": 6, "table": [[2 ** 70, *row[1:]] if i == 0 else row
                                         for i, row in enumerate(s3_table.tolist())]},
        # row (1, 1) misses 1 by 1/(10^400 - 1): a join spreads that e-mass
        # over a Haar weight of 10^400, past the doubles
        "tiny_mass": {**k3hg, "conv": [[["1", "0"], ["0", "1"]],
                                       [["0", "1"], [f"1/{10 ** 400 - 1}", "1/2"]]]},
        # delta_1 * delta_1 = 10^-400 delta_0 + (1 - 10^-400) delta_1 is a
        # hypergroup whose Haar weight 10^400 no double holds
        "huge_haar": {**k3hg, "conv": [[["1", "0"], ["0", "1"]], [
            ["0", "1"], [f"1/{10 ** 400}", f"{10 ** 400 - 1}/{10 ** 400}"]]]},
        "n_list": {**k3hg, "n": [2]},
        "k3hg_plain": {k: v for k, v in k3hg.items() if k != "scheme_derived"},
        "derived_str": {**k3hg, "scheme_derived": "false"},
    }
    # a conv cell that is a JSON list or object, which no set can hold, or
    # a JSON boolean, which is no number
    for name, cell in [("conv_empty", []), ("conv_list", ["1/2"]),
                       ("conv_object", {"x": 1}), ("conv_bool", True)]:
        malformed[name] = hio.hypergroup_to_dict(k3_hypergroup)
        malformed[name]["conv"][1][1][0] = cell
    # kernel-family fields hold JSON numbers: a string is not parsed, and an
    # object or a ragged row is an input error rather than a TypeError
    for name, cell, value in [("omega_str", ("omega_x",), ["1", "1", "1"]),
                              ("omega_null", ("omega_x", 1), None),
                              ("kernel_str", ("kernels", 1, 0, 1), "0.5"),
                              ("kernel_object", ("kernels", 1, 0, 1), {"p": 0.5}),
                              ("kernel_ragged", ("kernels", 1, 0), [0, 0.5]),
                              ("kernel_huge", ("kernels", 1, 0, 1), 10 ** 400)]:
        malformed[name] = hio.load(paths["k3gs"])
        _set(malformed[name], cell, value)
    for name, data in malformed.items():
        paths[name] = tmp_path / f"{name}.json"
        hio.save(paths[name], data)
    # nested deeper than json can parse
    paths["deep"] = tmp_path / "deep.json"
    paths["deep"].write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    return {k: str(v) for k, v in paths.items()}


def test_scheme_roundtrip(k3_scheme, tmp_path):
    gs = hs.canonical_generalized(k3_scheme)
    path = tmp_path / "gs.json"
    hio.save(path, hio.scheme_to_dict(gs))
    back = hio.scheme_from_dict(hio.load(path))
    assert isinstance(back, hs.GeneralizedScheme)
    assert np.array_equal(back.partition.label, gs.partition.label)
    assert np.abs(back.kernels - gs.kernels).max() == 0


def test_a_float_entry_makes_the_tensor_float():
    """A set of the cells keeps one of 0 and 0.0: a file whose only floats
    equal integer cells before them still reads as a float tensor."""
    data = {"n": 2, "identity": 0, "involution": [0, 1],
            "conv": [[[1, 0], [0, 1]], [[0, 1], [1.0, 0.0]]]}
    h = hio.hypergroup_from_dict(data)
    assert not h.is_exact
    assert hio.hypergroup_to_dict(h)["conv"] == [[[1.0, 0.0], [0.0, 1.0]],
                                                 [[0.0, 1.0], [1.0, 0.0]]]


# hypergroup cells: "p/q" strings in lowest terms or not and integers,
# past int64 and negative; a float file adds floats, so that 1, 1.0, "1"
# and -0.0 stand side by side
_EXACT_CELLS = st.one_of(
    st.sampled_from([0, 1, "0", "1", "1/2", "2/4", "-1/3", "-0"]),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70).map(str),
    st.builds("{}/{}".format, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70)))
_FLOAT_CELLS = st.one_of(_EXACT_CELLS, st.sampled_from([1.0, 0.0, -0.0, 0.5]), st.floats())
_HG_FAULTS = ["identity", "involution", "cell", "short row", "long row", "extra plane",
              "list cells"]


@st.composite
def _hypergroup_files(draw):
    """A hypergroup file of n <= 3 with up to two faults among its cells,
    shape, identity and involution."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([_EXACT_CELLS, _FLOAT_CELLS]))
    cells = iter(draw(st.lists(kind, min_size=n ** 3, max_size=n ** 3)))
    conv = [[[next(cells) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    data = {"n": n, "identity": 0, "involution": list(range(n)), "conv": conv}
    faults = draw(st.sampled_from([0, 0, 0, 1, 1, 2]))
    for fault in draw(st.permutations(_HG_FAULTS))[:faults]:
        if fault == "identity":
            data["identity"] = n
        elif fault == "involution":
            data["involution"] = [n] * n
        elif fault == "cell":
            conv[0][0][:1] = [draw(st.sampled_from(
                ["1/0", "x", "1/2/3", None, [], ["1/2"], {"p": 1}]))]
        elif fault == "short row":
            conv[-1][-1].pop()
        elif fault == "long row":
            conv[0][0].append("1")
        elif fault == "extra plane":
            conv.append(conv[0])
        else:       # one-item lists, which numpy reads as a fourth axis
            for row in (row for plane in conv for row in plane):
                row[:] = [[c] for c in row]
    return json.loads(json.dumps(data))


def _read(reader, data):
    """What reader makes of data: the tensor's dtype, bytes, den and fields,
    or the message of the ValueError it raises."""
    try:
        h = reader(data)
    except ValueError as exc:
        return type(exc), str(exc)
    num = h.num.tolist() if h.num.dtype == object else h.num.tobytes()
    return (h.num.dtype, num, h.den, h.is_exact, h.identity, h.involution.tolist(),
            h.scheme_derived)


@settings(max_examples=300)
@given(_hypergroup_files(), st.booleans())
@example({"n": 2, "identity": 0, "involution": [0, 1],
          "conv": [[[[], []], [[], []]], [[[], []], [[], []]]]}, False)
@example({"n": 1, "identity": 0, "involution": [0], "conv": [[[-0.0]]]}, False)
@example({"n": 1, "identity": 0, "involution": [0], "conv": [[[(1, 0)]]]}, False)
@example({"n": 2, "identity": 0, "involution": [0, 1],
          "conv": [[[1, 0], [0, 1]], [[0, 1], [1.0, -0.0]]]}, True)
@example({"n": 1, "identity": 0, "involution": [0], "conv": [[[str(2 ** 64) + "/6"]]]},
         False)
@example({"n": 2, "identity": 0, "involution": [0, 1],
          "conv": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1/2", "1/0"]]]}, False)
@example({"n": 2, "identity": 2, "involution": [0, 1],
          "conv": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1/2/3", {"p": 1}]]]}, False)
def test_hypergroup_reader_matches_the_object_array_reader(data, with_bool):
    """hypergroup_from_dict reads every file as reference_io did, to the
    dtype and bytes of num and the error message, except that a boolean
    cell in a file it read is refused."""
    want = _read(reference_io.hypergroup_from_dict, data)
    assert _read(hio.hypergroup_from_dict, data) == want
    if with_bool and not isinstance(want[0], type):
        data["conv"][-1][-1][-1] = data["conv"][0][0][0] == 0
        with pytest.raises(ValueError, match="conv must hold numbers or \"p/q\" "
                                             "strings, not JSON booleans"):
            hio.hypergroup_from_dict(data)


def test_dumps_refuses_the_keys_json_refuses():
    for key in ((1, 2), Fraction(1, 2)):
        with pytest.raises(TypeError) as want:
            json.dumps({key: 0}, indent=1, default=hio.encode_number)
        with pytest.raises(TypeError) as got:
            hio.dumps({"a": {key: 0}})
        assert str(got.value) == str(want.value)


def test_hypergroup_roundtrip(k3_hypergroup, tmp_path):
    path = tmp_path / "hg.json"
    hio.save(path, hio.hypergroup_to_dict(k3_hypergroup))
    back = hio.hypergroup_from_dict(hio.load(path))
    assert back.is_exact
    assert back.conv == k3_hypergroup.conv
    assert back.identity == k3_hypergroup.identity


def test_scheme_derived_round_trip(k3_hypergroup):
    """The flag survives a file; a hypergroup without it writes no key, so
    its file is as before, and only a JSON boolean reads as the flag."""
    data = hio.hypergroup_to_dict(k3_hypergroup)
    assert data["scheme_derived"] is True
    assert hio.hypergroup_from_dict(data).scheme_derived
    plain = hs.FiniteHypergroup(2, k3_hypergroup.conv, 0, [0, 1])
    assert "scheme_derived" not in hio.hypergroup_to_dict(plain)
    assert not hio.hypergroup_from_dict(hio.hypergroup_to_dict(plain)).scheme_derived
    assert not hio.hypergroup_from_dict({**data, "scheme_derived": False}).scheme_derived
    for bad in ("false", "true", 0, 1, None, [True]):
        with pytest.raises(ValueError, match="scheme_derived must be true or false"):
            hio.hypergroup_from_dict({**data, "scheme_derived": bad})


def test_product_of_flagged_files_is_flagged(files, tmp_path, capsys):
    """product of two scheme-derived files writes a scheme-derived file, so
    dual on it still runs the nonnegativity test."""
    out = tmp_path / "prod.json"
    assert hio.load(files["k3hg"])["scheme_derived"] is True
    assert main(["product", files["k3hg"], files["k3hg"], "--out", str(out)]) == 0
    assert hio.load(out)["scheme_derived"] is True
    assert hio.hypergroup_from_dict(hio.load(out)).scheme_derived
    capsys.readouterr()
    assert main(["product", files["k3hg"], files["k3hg_plain"], "--out", str(out)]) == 0
    assert "scheme_derived" not in hio.load(out)


def test_rational_encoding():
    from fractions import Fraction
    assert hio.encode_number(Fraction(1, 3)) == "1/3"
    assert hio.encode_number(Fraction(4, 1)) == "4"
    assert hio.decode_number("2/7") == Fraction(2, 7)
    x = 0.1234567890123456789
    assert hio.decode_number(hio.encode_number(x)) == x
    # a double is written as itself: subnormal, signed zero, largest, numpy
    for x in (5e-324, -0.0, 1.7976931348623157e308, np.float64(0.1)):
        y = hio.encode_number(x)
        assert type(y) is float and y == x and math.copysign(1, y) == math.copysign(1, x)
    for bad in ("1/0", "0/0", "1/2/3", None, [1]):
        with pytest.raises(ValueError):
            hio.decode_number(bad)


class _Str(str):
    """A str subclass, which json writes as its text."""


# plain cells: "p/q"-like ASCII, or numbers with every float json names
_PLAIN_CELLS = [
    st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?|[ -!#-\[\]-~]{0,3}", fullmatch=True),
    st.one_of(st.integers(), st.floats(),
              st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))]
# what one cell becomes, or what becomes of its row, that json writes
# otherwise or that no plain row holds
_PERTURBATIONS = ['"', "\\", "\x7f", "\x01", "\n", "\u00e9", _Str("1/2"), True, False,
                  np.int64(3), np.float64(0.5), None, "empty row", "ragged row"]


@st.composite
def _plain_blocks(draw):
    """A rectangular nested list of plain cells, all str or all numbers,
    with at most one cell or row perturbed."""
    change = draw(st.sampled_from([None, *_PERTURBATIONS]))
    # a character json escapes goes into a block of str
    kind = 0 if isinstance(change, str) and len(change) == 1 else draw(st.integers(0, 1))
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    cells = iter(draw(st.lists(_PLAIN_CELLS[kind], min_size=math.prod(shape),
                               max_size=math.prod(shape))))

    def nest(dims):
        return [next(cells) for _ in range(dims[0])] if len(dims) == 1 else \
            [nest(dims[1:]) for _ in range(dims[0])]

    block = nest(shape)
    rows = [block]
    while isinstance(rows[0][0], list):
        rows = [r for row in rows for r in row]
    if change is not None:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        _perturb(row, change, draw(st.integers(0, len(row) - 1)))
    return block


def _perturb(row: list, change, k: int):
    """Empty row, lengthen it, or set its cell k to change."""
    if isinstance(change, str) and change == "empty row":
        row.clear()
    elif isinstance(change, str) and change == "ragged row":
        row.append(row[0])
    else:
        row[k] = change


# leaves of every kind json.dumps takes or hands to encode_number, and
# lists of only str or only numbers, alone or in rectangular blocks, which
# dumps writes a block at a time
_JSON_LEAVES = st.one_of(
    st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
    st.fractions(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats().map(np.float64), _plain_blocks())
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(),
                       st.none())


def _json_containers(children):
    return st.one_of(st.lists(children), st.lists(children).map(tuple),
                     st.dictionaries(_JSON_KEYS, children), st.lists(st.text()),
                     st.lists(st.one_of(st.integers(), st.floats())))


@given(st.recursive(_JSON_LEAVES, _json_containers, max_leaves=40))
@example([math.nan, 1, -math.inf, -0.0, math.inf])
@example({math.nan: ["\u00e9", "\ud83d"], 2: (), 1.5: {}, None: [True, 2 ** 70]})
def test_dumps_is_the_json_module_output(obj):
    assert hio.dumps(obj) == json.dumps(obj, indent=1, default=hio.encode_number)


@pytest.mark.parametrize("change", _PERTURBATIONS, ids=repr)
@pytest.mark.parametrize("cells", [["1/2", "-3", "a b"], [1, -0.0, math.nan, 2.5]],
                         ids=["str", "number"])
def test_dumps_writes_a_perturbed_block_as_json_does(cells, change):
    """Every perturbation of a plain block, beside plain blocks, in turn."""
    obj = {"block": [[list(cells) for _ in range(3)] for _ in range(2)]}
    _perturb(obj["block"][1][1], change, 1)
    assert hio.dumps(obj) == json.dumps(obj, indent=1, default=hio.encode_number)


# one run of every subcommand, passing, failing and refused; OUT is a file
JSON_CASES = [
    ["verify", "k3"], ["verify", "k3gs"], ["verify", "broken"],
    ["cosets", "s3", "0,1", "--out", "OUT"], ["cosets", "s3", "0,7"],
    ["characters", "k3hg"], ["characters", "k3hg_float"], ["dual", "k3hg", "1", "1"],
    ["deform", "k3hg", "--alpha", "1,1", "--out", "OUT"],
    ["deform", "k3hg_float", "--alpha", "1,1", "--out", "OUT"],
    ["deform", "k3hg", "--alpha", "1,1e400"],
    ["dtgraph", "--a", "3", "--b", "2", "--grid=-1:1:5"],
    ["dtgraph", "--a", "3", "--b", "2", "--radius", "4", "--report", "psd"],
    ["dtgraph", "--a", "3", "--b", "2", "--report", "ortho"],
    ["dtgraph", "--a", "3", "--b", "2", "--radius", "3", "--report", "deform"],
    ["dtgraph", "--a", "3", "--b", "2", "--report", "pushforward"],
    ["product", "k3hg", "k3hg", "--out", "OUT"], ["join", "k3hg", "k3hg_float"],
    ["join", "k3gs", "k3gs", "--out", "OUT"], ["product", "k3", "k3"],
    ["walk", "k3gs", "--mu", "1:1", "--steps", "2", "--trials", "1000"],
    ["walk", "--dtgraph", "3,2,6,0.2", "--mu", "1:1", "--steps", "2", "--exact"],
    ["walk", "broken", "--mu", "1:1", "--steps", "2"],
]


@pytest.mark.parametrize("argv", JSON_CASES, ids=[" ".join(a) for a in JSON_CASES])
def test_json_output_is_the_json_module_output(files, argv, tmp_path, monkeypatch,
                                               capsys):
    """--json stdout is what json.dumps(report, indent=1,
    default=encode_number) printed, and an --out file what json.dump(data,
    indent=1) and a newline wrote."""
    written = []

    def spy(obj):
        written.append(obj)
        return dumps(obj)

    dumps = hio.dumps
    monkeypatch.setattr(hio, "dumps", spy)
    out = tmp_path / "out.json"
    main([str(out) if a == "OUT" else files.get(a, a) for a in argv] + ["--json"])
    *saved, report = written
    assert capsys.readouterr().out == \
        json.dumps(report, indent=1, default=hio.encode_number) + "\n"
    assert len(saved) == argv.count("OUT")
    if saved:
        assert out.read_bytes() == (json.dumps(saved[0], indent=1) + "\n").encode()


def test_verify_pass(files, capsys):
    assert main(["verify", files["k3"]]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_fail_witness(files, capsys):
    assert main(["verify", files["broken"], "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["results"]["witness"]


def test_verify_generalized_file(files, capsys):
    assert main(["verify", files["k3gs"], "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["kind"] == "generalized"
    assert report["results"]["rigidity"] is True


def test_cosets(files, capsys):
    assert main(["cosets", files["s3"], "0,1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["n_cosets"] == 3
    assert report["results"]["n_double_cosets"] == 2
    assert report["results"]["valency"] == [1, 2]


def test_cosets_bad_subgroup(files, capsys):
    assert main(["cosets", files["s3"], "0,4"]) == 1


@pytest.mark.parametrize("subgroup", ["0,9", "0,-1"])
def test_cosets_index_out_of_range_cmd(files, subgroup, capsys):
    assert main(["cosets", files["s3"], subgroup, "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert "0..5" in report["results"]["message"]


def test_verify_generalized_runs_verify_scheme_once(files, monkeypatch, capsys):
    assert main(["verify", files["k3gs"], "--json"]) == 0
    before = capsys.readouterr().out
    calls = []

    def counted(partition):
        calls.append(partition)
        return verify_scheme(partition)

    verify_scheme = scheme.verify_scheme
    monkeypatch.setattr(scheme, "verify_scheme", counted)
    assert main(["verify", files["k3gs"], "--json"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == before


def test_product_nan_cmd(files, tmp_path, capsys):
    data = hio.load(files["k3hg"])
    data["conv"][1][1][1] = float("nan")
    path = str(tmp_path / "nan.json")
    hio.save(path, data)
    out = str(tmp_path / "prod.json")
    assert main(["product", path, path, "--out", out, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert "finite" in report["results"]["message"]


def _set(data, path, value):
    """Set the entry of nested data that the keys and indices in path name."""
    *keys, last = path
    for key in keys:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize("cell, value, axiom, witness", [
    (("kernels", 1, 0, 0), math.nan, "2", [1, 0, 0]),   # off relation 1: support
    (("kernels", 1, 0, 1), math.nan, "2", [1, 0]),      # on relation 1: row sum
    (("omega_x", 0), math.nan, "5", []),
    (("omega_x", 0), math.inf, "5", []),
])
def test_non_finite_kernel_family_fails(files, tmp_path, cell, value, axiom,
                                        witness, capsys):
    """NaN passes no comparison, so each test of a kernel family is one that
    NaN fails; a construction fails on its input, with the input's witness."""
    data = hio.load(files["k3gs"])
    _set(data, cell, value)
    path = str(tmp_path / "bad.json")
    hio.save(path, data)
    for argv in (["verify", path], ["product", path, files["k3gs"]],
                 ["join", files["k3gs"], path]):
        assert main([*argv, "--json"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["axiom"], results["witness"]) == (axiom, witness)


def test_characters_cmd(files, capsys):
    assert main(["characters", files["k3hg"], "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["plancherel"] == pytest.approx([1 / 3, 2 / 3])
    assert "seed" not in report


def test_dual_cmd(files, capsys):
    assert main(["dual", files["k3hg"], "1", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["coefficients"] == pytest.approx([0.5, 0.5])
    assert report["results"]["nonnegative"] is True


def test_deform_near_a_semicharacter_writes_no_file(files, tmp_path, capsys):
    """Within TOL of alpha = 1 on an exact file, deform used to write a
    tensor whose rows missed 1 and whose own load failed; now the check is
    exact, and nothing is written."""
    out = tmp_path / "d.json"
    assert main(["deform", files["k3hg"], "--alpha", "1,1.0000000001",
                 "--out", str(out), "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["residual"] == pytest.approx(1.5e-10)
    assert not out.exists()


def test_deform_cmd(files, tmp_path, capsys):
    out = str(tmp_path / "deformed.json")
    assert main(["deform", files["k3hg"], "--alpha", "1,1",
                 "--out", out]) == 0
    back = hio.hypergroup_from_dict(hio.load(out))
    assert back.n == 2
    capsys.readouterr()
    assert main(["deform", files["k3hg"], "--alpha", "1,2"]) == 1


@pytest.mark.parametrize("alpha, residual, message", [
    ("1,1/2", 0.5, "semicharacter equation residual 0.5"),
    ("1,-1", 1.0, "alpha0 not strictly positive"),
    ("1,1e400", 1.7976931348623157e+308, "semicharacter equation: residual "
     "exceeds the double range; reported as 1.7976931348623157e+308"),
])
def test_deform_residual_is_a_number(files, alpha, residual, message, capsys):
    assert main(["deform", files["k3hg"], "--alpha", alpha, "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == {"message": message, "residual": residual}
    assert main(["deform", files["k3hg"], "--alpha", alpha]) == 1
    assert f"residual: {residual}\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, decimal, rational", [
    (["walk", "--dtgraph", "3,2,4", "--steps", "2", "--exact"],
     ["--mu", "1:0.5,2:0.5"], ["--mu", "1:1/2,2:1/2"]),
    (["walk", "--dtgraph", "3,2,4", "--steps", "2", "--exact"],
     ["--mu", "1:5e-1,2:.5"], ["--mu", "1:1/2,2:1/2"]),
    (["deform", "k3hg"], ["--alpha", "1.0,1e0"], ["--alpha", "1,1"]),
])
def test_cli_decimals_are_exact_rationals(files, argv, decimal, rational, capsys):
    """A decimal on the command line reads as the rational it names: the
    report equals the one for the rational, apart from the echoed --mu."""
    argv = [files.get(a, a) for a in argv]
    reports = []
    for extra in (decimal, rational):
        assert main([*argv, *extra, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        report["results"].get("params", {}).pop("mu", None)
        reports.append(report)
    assert reports[0] == reports[1]


def test_dtgraph_psd_cmd(capsys):
    assert main(["dtgraph", "--a", "3", "--b", "2", "--report", "psd",
                 "--x", "1.3", "--radius", "6", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["psd"][0]["min_eig"] < -1e-6
    capsys.readouterr()
    assert main(["dtgraph", "--a", "3", "--b", "2", "--report", "psd",
                 "--x", "1.0", "--radius", "4"]) == 0


def test_dtgraph_pushforward_cmd(capsys):
    assert main(["dtgraph", "--a", "3", "--b", "2", "--report", "pushforward",
                 "--deform-c", "0.3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["equal"] is False


def test_product_and_join_cmds(files, tmp_path, capsys):
    out = str(tmp_path / "prod.json")
    assert main(["product", files["k3hg"], files["k3hg"], "--out", out]) == 0
    assert hio.hypergroup_from_dict(hio.load(out)).n == 4
    capsys.readouterr()
    out2 = str(tmp_path / "join.json")
    assert main(["join", files["k3gs"], files["k3gs"], "--out", out2]) == 0
    back = hio.scheme_from_dict(hio.load(out2))
    assert back.partition.n_points == 9


def test_walk_cmd(files, capsys):
    # Hoeffding with a union bound over the 2^K subsets of a K = 2 point law:
    # P(TV >= 0.02) <= 2^K exp(-2 N 0.02^2) <= 1e-9 needs N >= 27 633
    assert main(["walk", files["k3gs"], "--mu", "1:1", "--steps", "2",
                 "--trials", "30000", "--seed", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["tv"] <= 0.02
    assert report["results"]["exact_projection"]["0"] == pytest.approx(0.5)


def test_walk_exact_cmd(files, capsys):
    assert main(["walk", files["k3gs"], "--mu", "1:1", "--steps", "2",
                 "--exact", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["exact_projection"] == pytest.approx(
        {"0": 0.5, "1": 0.5})


def test_walk_exit_guard_cmd(capsys):
    assert main(["walk", "--dtgraph", "3,2,3", "--mu", "1:1", "--steps", "5",
                 "--trials", "10", "--seed", "1"]) == 1


@pytest.mark.parametrize("extra", [
    ["--dtgraph", "1,2,4"],                    # DomainError: a < 2
    ["--dtgraph", "3,2,30"],                   # BallTooLarge
    ["--dtgraph", "3,2,3", "--trials", "0"],
    ["--dtgraph", "3,2,3", "--trials", "-5"],
])
def test_walk_input_error_cmd(extra, capsys):
    assert main(["walk", *extra, "--mu", "1:1", "--steps", "2",
                 "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["results"]["message"]


@pytest.mark.parametrize("source, mu, named", [
    (["--dtgraph", "3,2"], "1:1", "--dtgraph"),     # too few fields
    (["--dtgraph", "3,2,4"], "9:1", "[9]"),         # radius 4 has labels 0..4
    (["k3gs"], "1:1/2,5:1/2", "[5]"),               # K_3 has relations 0, 1
])
def test_walk_malformed_input_cmd(files, source, mu, named, capsys):
    source = [files.get(s, s) for s in source]
    assert main(["walk", *source, "--mu", mu, "--steps", "2", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert named in report["results"]["message"]


def test_walk_not_a_scheme_cmd(files, capsys):
    assert main(["walk", files["broken"], "--mu", "1:1", "--steps", "2",
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"


def test_every_library_exception_has_one_outcome():
    """The CLI maps exceptions by their base alone: a ValueError is an input
    error (exit 2), a CheckFailure a failed check (exit 1), and no class of
    the package may be both or neither."""
    classes = [v for v in vars(hs).values()
               if isinstance(v, type) and issubclass(v, BaseException)]
    assert hs.CheckFailure in classes and hs.AxiomViolation in classes
    for cls in classes:
        if cls is not hs.CheckFailure:
            assert issubclass(cls, ValueError) != issubclass(cls, hs.CheckFailure), cls


def test_usage_error():
    assert main(["bogus"]) == 2


def test_missing_file():
    assert main(["verify", "/nonexistent/path.json"]) == 2


def test_one_parser_serves_every_main_call(files, capsys):
    """main builds its parser once per process: a failed parse, then a walk,
    then a verify in one process print what fresh processes print, with the
    same exit codes."""
    runs = [["walk", "--steps", "two"],
            ["walk", files["k3gs"], "--mu", "1:1", "--steps", "2",
             "--trials", "30000", "--seed", "5", "--json"],
            ["verify", files["k3"], "--json"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, code in zip(runs, (2, 0, 0)):
        assert main(argv) == code
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "hyperscheme.cli", *argv],
                               env=env, capture_output=True, text=True, timeout=120)
        assert (fresh.returncode, fresh.stdout) == (code, out)
    assert build_parser() is build_parser()


def test_walk_runs_convolution_power_once(files, monkeypatch, capsys):
    argv = ["walk", files["k3gs"], "--mu", "1:1", "--steps", "2",
            "--trials", "1000", "--seed", "5", "--json"]
    main(argv)
    before = capsys.readouterr().out
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return convolution_power(*args, **kwargs)

    convolution_power = walks.convolution_power
    monkeypatch.setattr(walks, "convolution_power", counted)
    main(argv)
    assert len(calls) == 1
    assert capsys.readouterr().out == before


@pytest.mark.parametrize("source", ["k3", "k3gs"])
def test_walk_verifies_scheme_once(files, source, monkeypatch, capsys):
    """A walk on a plain scheme file or a kernel-family file verifies the
    partition once, and the canonical kernels of a plain scheme not at all."""
    argv = ["walk", files[source], "--mu", "1:1", "--steps", "2",
            "--trials", "1000", "--json"]
    main(argv)
    before = capsys.readouterr().out
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("verify_scheme", "verify_generalized", "_verify_kernels"):
        monkeypatch.setattr(scheme, name, counted(name, getattr(scheme, name)))
    assert main(argv) == 0
    assert calls == (["verify_scheme"] if source == "k3"
                     else ["verify_scheme", "_verify_kernels"])
    assert capsys.readouterr().out == before


CONTRACT_CASES = [
    (["dtgraph", "--a", "1", "--b", "2"], 2),                       # DomainError
    (["dtgraph", "--a", "3", "--b", "2", "--radius", "30", "--report", "psd"], 2),
    (["dtgraph", "--a", "3", "--b", "2", "--radius", "16", "--report", "psd"], 0),
    (["dtgraph", "--a", "3", "--b", "3", "--report", "pushforward"], 2),
    (["dtgraph", "--a", "3", "--b", "3", "--report", "deform"], 2),  # NonUniqueMinimizer
    (["characters", "zero_den"], 2),
    (["characters", "identity5"], 2),
    (["characters", "short_inv"], 2),
    (["characters", "n3"], 2),
    (["characters", "list"], 2),
    (["characters", "rows_2_3"], 1),
    (["characters", "wrong_inv"], 1),
    (["dual", "k3hg", "0", "9"], 2),
    (["dual", "rows_2_3", "0", "0"], 1),
    (["deform", "k3hg", "--alpha", "1"], 2),
    (["deform", "short_inv", "--alpha", "1,1"], 2),
    (["deform", "wrong_inv", "--alpha", "1,1"], 1),
    (["walk", "--dtgraph", "3,2,4", "--mu", "1:1/0", "--steps", "2"], 2),
    (["walk", "--dtgraph", "3,2,4", "--mu", "1:nan", "--steps", "2"], 2),
    (["walk", "--dtgraph", "3,2,4", "--mu", "1:inf", "--steps", "2"], 2),
    (["deform", "k3hg", "--alpha", "1,1/0"], 2),
    (["walk", "broken", "--mu", "1:1", "--steps", "2"], 1),
    (["cosets", "group_n3", "0"], 2),
    (["product", "k3hg", "k3gs"], 2),                               # mixed kinds
    (["product", "k3", "k3"], 2),                                   # no kernels
    (["verify", "/nonexistent/path.json"], 2),
    (["characters", "rows_near_1"], 1),
    # deformation parameters whose exponentials leave double range
    (["dtgraph", "--a", "3", "--b", "2", "--report", "pushforward",
      "--deform-c", "1e308"], 2),
    (["dtgraph", "--a", "3", "--b", "2", "--report", "pushforward",
      "--deform-c=-800"], 2),
    (["dtgraph", "--a", "3", "--b", "2", "--radius", "2", "--report", "deform",
      "--deform-c", "800"], 2),
    (["dtgraph", "--a", "3", "--b", "2", "--radius", "2", "--report", "deform",
      "--deform-c=-800"], 2),
    (["dtgraph", "--a", "3", "--b", "2", "--radius", "3", "--report", "deform",
      "--deform-c", "300"], 2),
    (["walk", "--dtgraph", "3,2,3,800", "--mu", "1:1", "--steps", "1"], 2),
    (["walk", "--dtgraph", "3,2,3,-800", "--mu", "1:1", "--steps", "1"], 2),
    # a, b and R are integers, not truncated decimals
    (["walk", "--dtgraph", "3.9,2.5,4.7", "--mu", "1:1", "--steps", "2", "--exact"], 2),
    (["walk", "--dtgraph", "3,2,4.0", "--mu", "1:1", "--steps", "2", "--exact"], 2),
    (["walk", "--dtgraph", "3,2,4,0.1,5", "--mu", "1:1", "--steps", "2", "--exact"], 2),
    # a grid with no points
    (["dtgraph", "--a", "3", "--b", "2", "--report", "psd", "--grid", "0:1:0"], 2),
    # dense kernels beyond physical memory are refused before allocation
    (["dtgraph", "--a", "3", "--b", "2", "--radius", "16", "--report", "deform"], 2),
    # a walk reads sparse kernel rows, so it runs, and 10 trials fail the TV
    (["walk", "--dtgraph", "3,2,16", "--mu", "1:1", "--steps", "2", "--trials", "10"], 1),
    # an exact walk builds no kernels at all
    (["walk", "--dtgraph", "3,2,16", "--mu", "1:1", "--steps", "2", "--exact"], 0),
    # nor does it hold anything per label, so R is not bounded by memory
    (["walk", "--dtgraph", "3,2,1000000", "--mu", "1:1", "--steps", "2", "--exact"], 0),
    # alpha0(3) = P_3(x_c) of the deformed family leaves double range
    (["walk", "--dtgraph", "3,2,3,300", "--mu", "1:1", "--steps", "2", "--exact"], 2),
    # at x_c = 1, alpha0(1200)^2 underflows, but the coefficients of
    # g(1200, 1200) are doubles, and so is the law
    (["walk", "--dtgraph", "3,2,1200,-0.34657359027997264", "--mu", "1200:1",
      "--steps", "2", "--exact"], 0),
    # alpha entries past the double range: an exact file fails with the
    # largest double as its residual, a float file refuses the entry
    (["deform", "k3hg", "--alpha", "1,1e400"], 1),
    (["deform", "k3hg", "--alpha", "1,1e300"], 1),
    (["deform", "k3hg", "--alpha", "1,1e200"], 1),
    (["deform", "k3hg", "--alpha", "1,-1e400"], 1),
    (["deform", "k3hg_float", "--alpha", "1,1e400"], 2),
    (["deform", "k3hg_float", "--alpha", "1,-1e400"], 2),
    (["deform", "k3hg_float", "--alpha", "1,1e200"], 1),
    # inputs that contradict or repeat each other, and a negative step count;
    # a third entry is a text the error message must contain
    (["walk", "k3", "--dtgraph", "3,2,4", "--mu", "1:1", "--steps", "2"], 2,
     "scheme file or --dtgraph, not both"),
    (["dtgraph", "--a", "3", "--b", "2", "--report", "psd", "--x", "0.5",
      "--grid", "0:1:3"], 2, "--x or --grid, not both"),
    (["walk", "--dtgraph", "3,2,4", "--mu", "1:1", "--steps", "-1"], 2,
     "steps must be nonnegative"),
    (["walk", "--dtgraph", "3,2,4", "--mu", "1:1/2,1:1/2", "--steps", "2"], 2,
     "label 1 appears twice"),
    # a negative seed, refused by the library before any work
    (["walk", "--dtgraph", "3,2,4", "--mu", "1:1", "--steps", "2", "--seed", "-1"], 2,
     "seed must be a nonnegative integer"),
    # integer fields hold JSON integers in int64, never truncated or overflowed
    (["verify", "label_half"], 2, "relations must hold JSON integers in int64, not 1.5"),
    (["verify", "label_huge"], 2,
     "relations must hold JSON integers in int64, not 1180591620717411303424"),
    (["characters", "identity_half"], 2,
     "identity must hold JSON integers in int64, not 0.5"),
    (["characters", "involution_half"], 2,
     "involution must hold JSON integers in int64, not 1.5"),
    (["cosets", "table_huge", "0,1"], 2,
     "table must hold JSON integers in int64, not 1180591620717411303424"),
    (["verify", "omega_str"], 2, "omega_x must hold JSON numbers, not '1'"),
    (["verify", "omega_null"], 2, "omega_x must hold JSON numbers, not None"),
    (["verify", "kernel_str"], 2, "kernels must hold JSON numbers, not '0.5'"),
    (["verify", "kernel_object"], 2, "kernels must hold JSON numbers, not {'p': 0.5}"),
    (["verify", "kernel_ragged"], 2,
     "kernels must be a rectangular array of JSON numbers"),
    (["walk", "kernel_object", "--mu", "1:1", "--steps", "2", "--exact"], 2,
     "kernels must hold JSON numbers"),
    (["product", "k3gs", "omega_str"], 2, "omega_x must hold JSON numbers"),
    # the inputs of a construction are verified, not only its result
    (["join", "k3hg", "tiny_mass"], 1, "axiom normalization violated, witness (1, 1)"),
    # cells, nesting and Haar weights that no reader or double can hold
    (["characters", "conv_empty"], 2, "conv must hold numbers or \"p/q\" strings"),
    (["characters", "conv_list"], 2, "conv must hold numbers or \"p/q\" strings"),
    (["product", "k3hg", "conv_object"], 2, "conv must hold numbers or \"p/q\" strings"),
    (["characters", "conv_bool"], 2,
     "conv must hold numbers or \"p/q\" strings, not JSON booleans"),
    (["verify", "deep"], 2, "JSON nested too deeply"),
    (["characters", "huge_haar"], 2, "Haar weights must be finite doubles"),
    (["dual", "huge_haar", "0", "1"], 2, "Haar weights must be finite doubles"),
    (["verify", "kernel_huge"], 2, "kernels holds an integer past the doubles"),
    (["characters", "n_list"], 2, "n must be one integer"),
    # a string is not a boolean, though bool() reads "false" as true
    (["dual", "derived_str", "0", "1"], 2, "scheme_derived must be true or false, not 'false'"),
    (["walk", "--mu", "1:1", "--steps", "2"], 2,
     "either a scheme file or --dtgraph is required"),
    # dtgraph reports finite values on a valid radius, and nothing else
    (["dtgraph", "--a", "3", "--b", "2", "--x", "nan"], 2, "need finite values"),
    (["dtgraph", "--a", "3", "--b", "2", "--x", "inf"], 2, "need finite values"),
    (["dtgraph", "--a", "3", "--b", "2", "--grid", "nan:1:3"], 2, "need finite values"),
    (["dtgraph", "--a", "3", "--b", "2", "--x", "1e200"], 2, "leaves double range"),
    (["dtgraph", "--a", "3", "--b", "2", "--x", "0.5", "--radius", "-1"], 2,
     "radius must be nonnegative"),
    # a radius past the ball cap is refused unsized, however large
    (["dtgraph", "--a", "3", "--b", "2", "--radius", "100000", "--x", "0.1",
      "--report", "psd"], 2, "ball has more than 200000 vertices"),
    # the pushforward reads depth 1 only, so a needs no ball beyond radius 1
    (["dtgraph", "--a", "1000", "--b", "2", "--report", "pushforward"], 0),
]


@pytest.mark.parametrize("argv, code, message",
                         [(*row, "")[:3] for row in CONTRACT_CASES],
                         ids=[" ".join(a) for a, *_ in CONTRACT_CASES])
def test_exit_code_contract(files, argv, code, message, capsys):
    argv = [files.get(a, a) for a in argv]
    assert main([*argv, "--json"]) == code
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)           # exactly one JSON document
    assert report["status"] == {0: "pass", 1: "fail", 2: "error"}[code]
    results = report["results"]
    if code == 1 and "tv" in results:    # a walk that ran and missed its TV
        assert results["tv"] > 0.02
    elif code:
        assert results["message"]
        assert message in results["message"]
        if code == 1:   # every other failure here is an axiom's or a semicharacter's
            if argv[0] == "deform" and "residual" in results:
                assert math.isfinite(results["residual"])
            else:
                assert results["axiom"] and results["witness"]
    assert ("seed" in report) == (argv[0] == "walk")


# every integer field of each file kind, as a path into the file's data
INTEGER_FIELDS = {
    "k3": [("n_points",), ("relations", 0, 1)],
    "k3gs": [("n_points",), ("relations", 0, 1)],
    "k3hg": [("n",), ("identity",), ("involution", 1)],
    "s3": [("n",), ("table", 0, 1)],
}
# every subcommand that reads a file of each kind; FILE stands for it
_SCHEME_READERS = [
    ["verify", "FILE"], ["walk", "FILE", "--mu", "1:1", "--steps", "2", "--trials", "10"],
    ["walk", "FILE", "--mu", "1:1", "--steps", "2", "--exact"],
    ["product", "FILE", "k3gs"], ["join", "k3gs", "FILE"],
]
FILE_READERS = {
    "k3": _SCHEME_READERS, "k3gs": _SCHEME_READERS,
    "k3hg": [["characters", "FILE"], ["dual", "FILE", "1", "1"],
             ["deform", "FILE", "--alpha", "1,1"],
             ["product", "FILE", "k3hg"], ["join", "k3hg", "FILE"]],
    "s3": [["cosets", "FILE", "0,1"]],
}


def test_bad_integer_fields_are_refused(files, tmp_path, capsys):
    """Each bad value in each integer field of each file kind, read by every
    subcommand that reads the file: a refusal or a failed check with one
    JSON report, never a traceback, a truncated value or a pass."""
    for kind, fields in INTEGER_FIELDS.items():
        for field in fields:
            for value in (1.5, 2 ** 70, math.nan, math.inf, -1, "x", None):
                data = hio.load(files[kind])
                _set(data, field, value)
                path = str(tmp_path / "bad.json")
                hio.save(path, data)
                for argv in FILE_READERS[kind]:
                    argv = [path if a == "FILE" else files.get(a, a) for a in argv]
                    code = main([*argv, "--json"])
                    out = capsys.readouterr()
                    assert code in (1, 2), (kind, field, value, argv)
                    assert out.err == ""
                    assert json.loads(out.out)["status"] == {1: "fail", 2: "error"}[code]


@pytest.mark.parametrize("argv", [
    ["verify", "k3"], ["cosets", "s3", "0,1"], ["deform", "k3hg", "--alpha", "1,1"],
    ["dtgraph", "--a", "3", "--b", "2"], ["product", "k3hg", "k3hg"],
    ["join", "k3hg", "k3hg"], ["characters", "k3hg"], ["dual", "k3hg", "1", "1"],
])
def test_seed_only_where_randomness_is_involved(files, argv, capsys):
    """Only a walk draws random numbers; --seed elsewhere is a usage error."""
    argv = [files.get(a, a) for a in argv]
    assert main([*argv, "--json"]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)
    assert main([*argv, "--seed", "1"]) == 2


def _entry():
    return st.one_of(
        st.integers(-1, 2),
        st.builds("{}/{}".format, st.integers(-1, 3), st.integers(0, 3)))


@st.composite
def hypergroup_files(draw):
    """The group algebra of Z_n with up to two entries replaced, or else a
    random tensor of a random shape; a random or valid identity and
    involution."""
    n = draw(st.integers(1, 3))
    conv = np.zeros((n, n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        conv[i, j, (i + j) % n] = 1
    for _ in range(draw(st.integers(0, 2))):
        conv[draw(st.tuples(*[st.integers(0, n - 1)] * 3))] = draw(_entry())
    if draw(st.integers(0, 3)) == 0:
        shape = draw(st.tuples(*[st.integers(0, 3)] * 3))
        size = int(np.prod(shape))
        conv = np.array(draw(st.lists(_entry(), min_size=size, max_size=size)),
                        dtype=object).reshape(shape)
    identity = draw(st.one_of(st.just(0), st.integers(-1, n)))
    involution = draw(st.one_of(st.just([-i % n for i in range(n)]),
                                st.permutations(range(n)),
                                st.lists(st.integers(-1, n), max_size=n + 1)))
    return {"n": n, "identity": identity, "involution": list(involution),
            "conv": conv.tolist()}


@given(hypergroup_files())
def test_characters_contract_on_generated_files(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "generated.json")
    hio.save(path, data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["characters", path, "--json"])
    assert code == EXIT[json.loads(out.getvalue())["status"]]


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import hyperscheme
from hyperscheme.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_comparison_has_a_float_literal():
    """Every threshold the library compares with is a named constant: no
    comparison in src/hyperscheme has a float literal operand, negated or
    not."""
    found = []
    for path in sorted((ROOT / "src" / "hyperscheme").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            for side in (node.left, *node.comparators):
                if isinstance(side, ast.UnaryOp) and isinstance(side.op, (ast.USub, ast.UAdd)):
                    side = side.operand
                if isinstance(side, ast.Constant) and isinstance(side.value, float):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_library_and_cli_run_without_scipy(files):
    """numpy is the only third-party runtime dependency: importing the
    package and running every subcommand loads no scipy module.  The test
    process imports scipy for its oracles, so this runs in a fresh one."""
    runs = [
        ["verify", "k3"], ["verify", "k3gs"], ["cosets", "s3", "0,1"],
        ["characters", "k3hg"], ["dual", "k3hg", "1", "1"],
        ["deform", "k3hg", "--alpha", "1,1"],
        ["dtgraph", "--a", "3", "--b", "2", "--report", "psd"],
        ["dtgraph", "--a", "3", "--b", "2", "--report", "ortho"],
        ["dtgraph", "--a", "3", "--b", "2", "--report", "deform"],
        ["product", "k3hg", "k3hg"], ["join", "k3hg", "k3hg"],
        ["product", "k3gs", "k3gs"],
        ["walk", "k3gs", "--mu", "1:1", "--steps", "2", "--trials", "1000"],
        ["walk", "--dtgraph", "3,2,4", "--mu", "1:1", "--steps", "2",
         "--trials", "1000"],
        ["walk", "k3", "--mu", "1:1", "--steps", "2", "--exact"],
    ]
    runs = [[files.get(a, a) for a in argv] for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(runs)
    assert report["scipy"] == []


_NO_MA_SCRIPT = """
import contextlib, io, json, sys
from hyperscheme.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_cli_runs_do_not_import_numpy_ma(files, tmp_path):
    """numpy imports numpy.ma on the first plain np.unique of a process,
    about 8 ms of a cold CLI run, and np.isin calls one on its sort path,
    taken when the indices it looks up spread past its table limit.
    verify, cosets, product, join and deform call neither, so a fresh
    process running them all has not loaded it; the cosets run of Z_208
    over its subgroup 13 Z_208 is one that np.isin sorts."""
    z208 = tmp_path / "z208.json"
    hio.save(z208, {"n": 208, "table": ((np.arange(208)[:, None] + np.arange(208))
                                        % 208).tolist()})
    runs = [["verify", "k3", "--json"], ["verify", "k3gs", "--json"],
            ["cosets", "s3", "0,1", "--json"],
            ["cosets", str(z208), ",".join(map(str, range(0, 208, 13))), "--json"],
            ["product", "k3hg", "k3hg", "--json"], ["join", "k3hg", "k3hg", "--json"],
            ["product", "k3gs", "k3gs", "--json"], ["join", "k3gs", "k3gs", "--json"],
            ["deform", "k3hg", "--alpha", "1,1", "--json"]]
    runs = [[str(files.get(a, a)) for a in argv] for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_MA_SCRIPT, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * len(runs), "numpy.ma": False}


def _run_under_address_limit(argv, limit):
    """Run the CLI with argv and --json in a fresh process whose address
    space is capped at limit bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "hyperscheme.cli", *argv, "--json"],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=300)


def _error_report_under_address_limit(argv, limit):
    """Run the CLI under an address limit; it must print one JSON error
    report, exit 2 and write no traceback.  Returns the report's message."""
    proc = _run_under_address_limit(argv, limit)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)       # exactly one JSON document
    assert report["status"] == "error"
    return report["results"]["message"]


def test_memory_error_is_an_input_error(tmp_path):
    """The 1200-cycle's p alone is 601^3 int64, 1.7 GB, past a 1 GiB address
    space: verify ends in one error report and exit 2, not a traceback."""
    x = np.arange(1200)
    dist = np.abs(x[:, None] - x[None, :])
    path = tmp_path / "c1200.json"
    hio.save(path, {"n_points": 1200,
                    "relations": np.minimum(dist, 1200 - dist).tolist()})
    assert "Unable to allocate" in _error_report_under_address_limit(
        ["verify", str(path)], 2 ** 30)


def test_walk_with_five_labels_fits_an_address_limit():
    """The (3, 2, 11) ball has 6142 vertices, and a dense sphere kernel on
    it would take 288 MiB.  A walk reads the sparse rows of the kernels of
    its step law, so one with five labels fits a 1.5 GiB address space and
    passes."""
    proc = _run_under_address_limit(
        ["walk", "--dtgraph", "3,2,11", "--mu", "1:1/5,2:1/5,3:1/5,4:1/5,5:1/5",
         "--steps", "2", "--trials", "30000"], 3 * 2 ** 29)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


def test_walk_builds_only_its_step_laws_kernels_under_an_address_limit():
    """The same ball with mu = delta_1 builds K_1 alone, which fits the same
    1.5 GiB address space, and the walk passes."""
    proc = _run_under_address_limit(
        ["walk", "--dtgraph", "3,2,11", "--mu", "1:1", "--steps", "2",
         "--trials", "30000"], 3 * 2 ** 29)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


def test_walk_on_the_largest_ball_fits_an_address_limit():
    """(3, 2, 16), n = 196 606, is the largest Gamma(3, 2) ball under the
    vertex cap; one dense kernel on it would need 288 GiB.  A walk there
    reads the rows of K_1 alone and passes in a 1.5 GiB address space."""
    proc = _run_under_address_limit(
        ["walk", "--dtgraph", "3,2,16", "--mu", "1:1", "--steps", "2",
         "--trials", "30000"], 3 * 2 ** 29)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


def test_module_entry_point_has_no_traceback(files):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "hyperscheme.cli", "characters", files["zero_den"]],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("[error] characters")
