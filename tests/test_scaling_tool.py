"""tools/scaling.py reads private library names (scheme._generators,
hypergroup._char_order, dtgraph.ball_size); running the first case of each
curve in-process, through the function its runner calls, makes a rename
fail here instead of in a later measurement."""

import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scaling.py"
WALK = ["first_walk_s", "walk_s", "tracemalloc_peak_mib", "max_rss_mib"]
OLD_NEW = ["old_s", "new_s", "old_peak_mib", "new_peak_mib"]
FIELDS = {
    "ball": ["a", "b", "R", "n", *WALK],
    "width": ["a", "b", "R", "h", "width", "steps", "trials", *WALK, "ns_per_trial_step"],
    "complete": ["complete", "width", "steps", "trials", *WALK, "ns_per_trial_step"],
    "deform": ["a", "b", "R", "n", "c", "ray_s", "deform_s", "max_row_sum_error_s", "walk_s",
               "ray_peak_mib", "deform_peak_mib", "max_row_sum_error_peak_mib",
               "walk_peak_mib"],
    "verify_scheme": ["family", "case", "n", "d", "generators", "s", "peak_mib"],
    "verify_hypergroup": ["family", "case", "d", "generators", *OLD_NEW],
    "characters": ["case", "d", "characters_s", "order_old_s", "order_new_s",
                   "characters_peak_mib"],
    "dumps": ["case", "entries", "old_s", "new_s"],
    "io": ["case", "d", "entries", "file_bytes", "to_dict_s", "dumps_s", "save_s", "load_s",
           "from_dict_s", "to_dict_peak_mib", "dumps_peak_mib", "save_peak_mib",
           "load_peak_mib", "from_dict_peak_mib"],
    "convolution_power": ["case", "t", "atoms", *OLD_NEW],
    "generalized": ["kind", "m1", "m2", "n", "d", "generators", "build_s",
                    "verify_generalized_s", "from_generalized_s", "build_peak_mib",
                    "verify_generalized_peak_mib", "from_generalized_peak_mib", "total_s"],
    "gram_min_eig": ["a", "b", "R", "n", "block", "build_ball_s", "gram_min_eig_s",
                     "build_ball_peak_mib", "gram_min_eig_peak_mib", "min_eig"],
    "from_double_cosets": ["group", "order", "n", "d", "from_double_cosets_s",
                           "verify_scheme_s", "from_double_cosets_peak_mib",
                           "verify_scheme_peak_mib"],
    "ortho": ["a", "b", "m", "nodes", "f_calls", "old_s", "new_s", "cli_s"],
}


@pytest.fixture(scope="module")
def scaling():
    spec = importlib.util.spec_from_file_location("scaling", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_curve_is_checked(scaling):
    assert list(scaling.CURVES) == list(FIELDS)


@pytest.mark.parametrize("curve", FIELDS)
def test_first_case_gives_a_row(scaling, monkeypatch, curve):
    monkeypatch.setattr(scaling, "MIN_SECONDS", 0)
    row = scaling.run_case(curve, scaling.CURVES[curve][0][0])
    assert list(row) == FIELDS[curve]
    measured = [v for k, v in row.items() if k.endswith(("_s", "_mib"))]
    assert measured and all(isinstance(v, float) and v >= 0 for v in measured)


@pytest.mark.parametrize("curve, case", [("verify_hypergroup", ("product", 8, 10)),
                                         ("characters", (12, 14))])
def test_first_product_case_times_the_tensor_without_factors(scaling, monkeypatch,
                                                             curve, case):
    """A product row also times the product's tensor read back without its
    factors."""
    monkeypatch.setattr(scaling, "MIN_SECONDS", 0)
    assert case in scaling.CURVES[curve][0]
    row = scaling.run_case(curve, case)
    extra = ["plain_s", "plain_peak_mib"]
    assert sorted(row) == sorted(FIELDS[curve] + extra)
    assert all(isinstance(row[k], float) and row[k] >= 0 for k in extra)


def test_oracle_once_rows_repeat_the_first_trees_old_fields(scaling, monkeypatch):
    """Under a later SRC a verify_hypergroup case times the library alone, and
    its row takes the old_* fields of the first SRC's row."""
    monkeypatch.setattr(scaling, "MIN_SECONDS", 0)
    case = scaling.CURVES["verify_hypergroup"][0][0]
    first = scaling.run_case("verify_hypergroup", case)
    row = scaling.run_case("verify_hypergroup", case, time_oracle=False)
    assert not any(k.startswith("old_") for k in row)
    merged = scaling._with_oracle(row, first)
    assert list(merged) == FIELDS["verify_hypergroup"]
    assert all(merged[k] == (first[k] if k.startswith("old_") else row[k]) for k in merged)


@pytest.mark.parametrize("argv", [[], ["no-such-curve"]])
def test_missing_or_unknown_curve_is_a_usage_error(scaling, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        scaling.main(argv)
    assert exc.value.code == 2
    assert "from_double_cosets" in capsys.readouterr().err


def test_each_case_runs_three_times_per_tree_in_turn(scaling, monkeypatch, capsys):
    """Trees A and B run one case A, B, A, B, A, B; each float field is the
    median of a tree's three runs, other fields are the first run's, and
    the verify_hypergroup oracle runs once, in A's first run."""
    calls = []

    def fake_run(cmd, env, **kwargs):
        calls.append((env["PYTHONPATH"].split(os.pathsep)[0], cmd[5:]))
        row = {"d": 6, "new_s": float(len(calls))}
        if "--no-oracle" not in cmd:
            row = {"d": 6, "old_s": 100.0, **row}
        return SimpleNamespace(stdout=json.dumps(row))

    monkeypatch.setattr(scaling.subprocess, "run", fake_run)
    monkeypatch.setitem(scaling.CURVES, "verify_hypergroup", ([("dihedral", 6)], None))
    scaling.main(["verify_hypergroup", "A", "B"])
    assert [src for src, _ in calls] == ["A", "B"] * 3
    assert [flags for _, flags in calls] == [[]] + [["--no-oracle"]] * 5
    assert json.loads(capsys.readouterr().out) == {
        "A": [{"d": 6, "old_s": 100.0, "new_s": 3.0}],
        "B": [{"d": 6, "old_s": 100.0, "new_s": 4.0}]}


def test_a_refusal_in_any_run_is_the_row(scaling):
    refused = {"case": ["ball", 3, 2, 17], "refused": "MemoryError: "}
    assert scaling._median_row([{"s": 1.0}, refused, {"s": 2.0}]) == refused


def test_perturbed_cycles_take_the_full_check(scaling):
    """The generalized curve's perturbed C100 lies past the canonical early
    test of the kernel check, and passes the full check."""
    import hyperscheme as hs
    from hyperscheme.scheme import _CANONICAL_DEVIATION

    scheme = hs.verify_scheme(scaling._cycle_partition(100))
    gs = scaling._rectangle_perturbed(scheme, 25)()
    delta = np.abs(gs.W * scheme.valency[scheme.partition.label] - 1.0).max()
    assert 1.5 * _CANONICAL_DEVIATION < delta < 2.5 * _CANONICAL_DEVIATION
    hs.verify_generalized(gs)


def test_rectangle_perturbs_a_relation_of_any_valency(scaling):
    """The rectangle on C100's relation 25 moves the cells (0, 25),
    (50, 75), (0, 75), (50, 25) and their transposes; on K_12's relation 1
    (k = 11) it puts the family 11 RECTANGLE_T from the canonical one, and
    that family passes the full check."""
    import hyperscheme as hs

    scheme = hs.verify_scheme(scaling._cycle_partition(100))
    moved = scaling._rectangle_perturbed(scheme, 25)().W != hs.canonical_generalized(scheme).W
    assert sorted(map(tuple, np.argwhere(moved).tolist())) == sorted(
        [(0, 25), (50, 75), (0, 75), (50, 25), (25, 0), (75, 50), (75, 0), (25, 50)])
    scheme = hs.verify_scheme(scaling._complete_partition(12))
    gs = scaling._rectangle_perturbed(scheme, 1)()
    delta = np.abs(gs.W * scheme.valency[scheme.partition.label] - 1.0).max()
    assert delta == pytest.approx(11 * scaling.RECTANGLE_T, rel=1e-3)
    hs.verify_generalized(gs)
