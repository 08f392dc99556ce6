"""tools/scaling.py reads private library names (scheme._generators,
hypergroup._char_order, dtgraph.ball_size); running the first case of each
curve in-process, through the function its runner calls, makes a rename
fail here instead of in a later measurement."""

import importlib.util
from pathlib import Path

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
    "convolution_power": ["case", "t", "atoms", *OLD_NEW],
    "generalized": ["kind", "m1", "m2", "n", "d", "generators", "build_s",
                    "verify_generalized_s", "from_generalized_s", "build_peak_mib",
                    "verify_generalized_peak_mib", "from_generalized_peak_mib", "total_s"],
    "gram_min_eig": ["a", "b", "R", "n", "block", "build_ball_s", "gram_min_eig_s",
                     "build_ball_peak_mib", "gram_min_eig_peak_mib", "min_eig"],
    "from_double_cosets": ["group", "order", "n", "d", "from_double_cosets_s",
                           "verify_scheme_s", "from_double_cosets_peak_mib",
                           "verify_scheme_peak_mib"],
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


@pytest.mark.parametrize("argv", [[], ["no-such-curve"]])
def test_missing_or_unknown_curve_is_a_usage_error(scaling, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        scaling.main(argv)
    assert exc.value.code == 2
    assert "from_double_cosets" in capsys.readouterr().err
