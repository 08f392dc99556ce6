"""File round-trips and CLI subcommand behavior (exit codes, JSON reports)."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        "group_n3": {"n": 3, "table": [[0, 1], [1, 0]]},
        "list": [],
    }
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
]


@pytest.mark.parametrize("argv, code", CONTRACT_CASES,
                         ids=[" ".join(a) for a, _ in CONTRACT_CASES])
def test_exit_code_contract(files, argv, code, capsys):
    argv = [files.get(a, a) for a in argv]
    assert main([*argv, "--json"]) == code
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)           # exactly one JSON document
    assert report["status"] == {0: "pass", 1: "fail", 2: "error"}[code]
    if code:
        assert report["results"]["message"]
    if code == 1:                          # every failure here is an axiom's
        assert report["results"]["axiom"] and report["results"]["witness"]
    assert ("seed" in report) == (argv[0] in ("characters", "dual", "walk"))


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
