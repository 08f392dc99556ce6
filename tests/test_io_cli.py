"""File round-trips and CLI subcommand behavior (exit codes, JSON reports)."""

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
from hypothesis import example, given, strategies as st

import hyperscheme as hs
from hyperscheme import io as hio
from hyperscheme import scheme, walks
from hyperscheme.cli import EXIT, main

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
    }
    # kernel-family fields hold JSON numbers: a string is not parsed, and an
    # object or a ragged row is an input error rather than a TypeError
    for name, cell, value in [("omega_str", ("omega_x",), ["1", "1", "1"]),
                              ("omega_null", ("omega_x", 1), None),
                              ("kernel_str", ("kernels", 1, 0, 1), "0.5"),
                              ("kernel_object", ("kernels", 1, 0, 1), {"p": 0.5}),
                              ("kernel_ragged", ("kernels", 1, 0), [0, 0.5])]:
        malformed[name] = hio.load(paths["k3gs"])
        _set(malformed[name], cell, value)
    for name, data in malformed.items():
        paths[name] = tmp_path / f"{name}.json"
        hio.save(paths[name], data)
    return {k: str(v) for k, v in paths.items()}


def test_scheme_roundtrip(k3_scheme, tmp_path):
    gs = hs.canonical_generalized(k3_scheme)
    path = tmp_path / "gs.json"
    hio.save(path, hio.scheme_to_dict(gs))
    back = hio.scheme_from_dict(hio.load(path))
    assert isinstance(back, hs.GeneralizedScheme)
    assert np.array_equal(back.partition.label, gs.partition.label)
    assert np.abs(back.kernels - gs.kernels).max() == 0


def test_hypergroup_roundtrip(k3_hypergroup, tmp_path):
    path = tmp_path / "hg.json"
    hio.save(path, hio.hypergroup_to_dict(k3_hypergroup))
    back = hio.hypergroup_from_dict(hio.load(path))
    assert back.is_exact
    assert back.conv == k3_hypergroup.conv
    assert back.identity == k3_hypergroup.identity


def test_rational_encoding():
    from fractions import Fraction
    assert hio.encode_number(Fraction(1, 3)) == "1/3"
    assert hio.encode_number(Fraction(4, 1)) == "4"
    assert hio.decode_number("2/7") == Fraction(2, 7)
    x = 0.1234567890123456789
    assert hio.decode_number(hio.encode_number(x)) == x
    for bad in ("1/0", "0/0", "1/2/3", None, [1]):
        with pytest.raises(ValueError):
            hio.decode_number(bad)


# leaves of every kind json.dumps takes or hands to encode_number, and lists
# of only str or only numbers, which dumps joins in one go
_JSON_LEAVES = st.one_of(
    st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
    st.fractions(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats().map(np.float64))
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
    assert report["seed"] is not None


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
    (["walk", "--dtgraph", "3,2,16", "--mu", "1:1", "--steps", "2", "--trials", "10"], 2),
    # an exact walk builds no kernels, so only a simulated one needs the memory
    (["walk", "--dtgraph", "3,2,16", "--mu", "1:1", "--steps", "2", "--exact"], 0),
    # nor does it hold anything per label, so R is not bounded by memory
    (["walk", "--dtgraph", "3,2,1000000", "--mu", "1:1", "--steps", "2", "--exact"], 0),
    # alpha0(3) = P_3(x_c) of the deformed family leaves double range
    (["walk", "--dtgraph", "3,2,3,300", "--mu", "1:1", "--steps", "2", "--exact"], 2),
    # at x_c = 1, alpha0(1200)^2 in the coefficient g(1200, 1200) underflows
    (["walk", "--dtgraph", "3,2,1200,-0.34657359027997264", "--mu", "1200:1",
      "--steps", "2", "--exact"], 2),
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
    # dtgraph reports finite values on a valid radius, and nothing else
    (["dtgraph", "--a", "3", "--b", "2", "--x", "nan"], 2, "need finite values"),
    (["dtgraph", "--a", "3", "--b", "2", "--x", "inf"], 2, "need finite values"),
    (["dtgraph", "--a", "3", "--b", "2", "--grid", "nan:1:3"], 2, "need finite values"),
    (["dtgraph", "--a", "3", "--b", "2", "--x", "1e200"], 2, "leaves double range"),
    (["dtgraph", "--a", "3", "--b", "2", "--x", "0.5", "--radius", "-1"], 2,
     "radius must be nonnegative"),
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
    if code:
        assert report["results"]["message"]
        assert message in report["results"]["message"]
    if code == 1:   # every failure here is an axiom's or a semicharacter's
        results = report["results"]
        if argv[0] == "deform" and "residual" in results:
            assert math.isfinite(results["residual"])
        else:
            assert results["axiom"] and results["witness"]
    assert ("seed" in report) == (argv[0] in ("characters", "dual", "walk"))


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
    ["join", "k3hg", "k3hg"],
])
def test_seed_only_where_randomness_is_involved(files, argv, capsys):
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


def test_memory_error_is_an_input_error(tmp_path):
    """The 1200-cycle's p alone is 601^3 int64, 1.7 GB, past a 1 GiB address
    space: verify ends in one error report and exit 2, not a traceback."""
    x = np.arange(1200)
    dist = np.abs(x[:, None] - x[None, :])
    path = tmp_path / "c1200.json"
    hio.save(path, {"n_points": 1200,
                    "relations": np.minimum(dist, 1200 - dist).tolist()})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    proc = subprocess.run(
        [sys.executable, "-m", "hyperscheme.cli", "verify", str(path), "--json"],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)       # exactly one JSON document
    assert report["status"] == "error"
    assert "Unable to allocate" in report["results"]["message"]


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
