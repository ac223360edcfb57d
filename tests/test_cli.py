import argparse
import json

import pytest

from holeyhex import arith, asymptotics, matrices, regions
from holeyhex.asymptotics import finite_correlation
from holeyhex.cli import build_parser, main
from holeyhex.matrices import count_region
from holeyhex.regions import validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_formulas(capsys):
    code, out, _ = run(capsys, "formulas", "--which", "box", "--n", "2", "--m", "1")
    assert code == 0
    assert json.loads(out)["value"] == "20"


def test_count_full(capsys):
    code, out, _ = run(capsys, "count", "--n", "10", "--m", "2",
                       "--left=-2,6", "--right=-8,0", "--kind", "full")
    assert code == 0
    payload = json.loads(out)
    expected = count_region(validate(10, 2, [-2, 6], [-8, 0]), "full")
    assert payload["count"] == str(expected.value)
    assert payload["count"].isdigit()


def test_count_deterministic(capsys):
    args = ("count", "--n", "6", "--m", "1", "--left=-2", "--right", "2")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_invalid_spec_exits_2(capsys):
    code, _, err = run(capsys, "count", "--n", "10", "--m", "2",
                       "--left", "1", "--right", "3")
    assert code == 2
    assert "odd" in err


def test_zeta_verb(capsys):
    code, out, _ = run(capsys, "zeta", "--n", "4", "--m", "1",
                       "--left", "0", "--right", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "zeta", "--n", "4", "--m", "1",
                       "--left=-2", "--right", "2")
    assert code == 1


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--xi", "1", "--size", "20",
                       "--separations", "2,4", "--fit")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,xi,det_lower,det_upper,omega,predicted,ratio"
    assert len(lines) == 4 and lines[-1].startswith("# slope=")
    assert lines[1].startswith("20,10,1.0,")


def test_sweep_sizes(capsys):
    code, out, _ = run(capsys, "sweep", "--xi", "1/2", "--n-values", "8,16",
                       "--left=-2", "--right", "2", "--fit")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_sweep_bad_list_leaves_stdout_empty(capsys):
    code, out, err = run(capsys, "sweep", "--size", "20", "--separations", "2,y")
    assert code == 2
    assert out == ""
    assert "'2,y'" in err


@pytest.mark.parametrize("mode", [("--size", "20", "--separations", "2"),
                                  ("--n-values", "20", "--left=-2", "--right=2")])
def test_sweep_without_fit_takes_one_point(capsys, mode):
    code, out, err = run(capsys, "sweep", *mode)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,xi,det_lower,det_upper,omega,predicted,ratio"
    assert len(lines) == 2 and lines[1].startswith("20,10,1.0,")


@pytest.mark.parametrize("mode, named", [
    (("--size", "20", "--separations", "2,2"), "separations, got [2, 2]"),
    (("--size", "20", "--separations", "4,-4"), "separations, got [4, -4]"),
    (("--n-values", "20,20", "--left=-2", "--right=2"), "n values, got [20, 20]"),
])
def test_sweep_fit_needs_two_distinct_points(capsys, mode, named):
    code, out, err = run(capsys, "sweep", *mode, "--fit")
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize("flag, value", [("--max-n", "1"), ("--max-n", "0"),
                                         ("--max-m", "0"), ("--max-p", "-1")])
def test_verify_rejects_empty_ranges(capsys, flag, value):
    code, out, err = run(capsys, "verify", flag, value)
    assert code == 2
    assert out == ""
    assert f"error: {flag} must be at least" in err


@pytest.mark.parametrize("xi", ["1/0", "0", "-1", "-2/3", "abc", ""])
@pytest.mark.parametrize("mode", [("--separations", "2"), ("--n-values", "8", "--left=-2",
                                                           "--right", "2")])
def test_sweep_rejects_a_nonpositive_or_malformed_xi(capsys, xi, mode):
    code, out, err = run(capsys, "sweep", f"--xi={xi}", "--size", "20", *mode)
    assert code == 2
    assert out == ""
    assert err == f"error: --xi must be a positive rational, got '{xi}'\n"


def test_sweep_requires_a_mode(capsys):
    code, _, err = run(capsys, "sweep", "--xi", "1")
    assert code == 2
    assert "separations" in err


@pytest.mark.parametrize("modes", [("--separations=",),
                                   ("--separations", "2", "--n-values", "20", "--left=-2",
                                    "--right=2")])
def test_sweep_takes_exactly_one_mode(capsys, modes):
    code, out, err = run(capsys, "sweep", "--size", "20", *modes)
    assert code == 2
    assert out == ""
    assert err == "error: sweep needs exactly one of --separations and --n-values\n"


@pytest.mark.parametrize("argv, message", [
    (("--separations", "2", "--left=-4"), "a --separations sweep does not take --left"),
    (("--separations", "2", "--right=4"), "a --separations sweep does not take --right"),
    (("--separations", "2", "--scale-holes"),
     "a --separations sweep does not take --scale-holes"),
    (("--size", "20", "--separations", "2", "--left=-4", "--right=4", "--scale-holes", "--fit"),
     "a --separations sweep does not take --left, --right, --scale-holes"),
    (("--n-values", "20", "--left=-2", "--right=2", "--size", "20"),
     "a --n-values sweep does not take --size"),
    (("--n-values", "20,40", "--left=-1", "--right=1", "--scale-holes", "--size", "0", "--fit"),
     "a --n-values sweep does not take --size"),
])
def test_sweep_rejects_the_options_of_the_other_mode(capsys, argv, message):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_every_choices_list_is_the_library_vocabulary():
    verbs = next(action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    found = {(verb, action.option_strings[-1]): action.choices
             for verb, parser in verbs.items() for action in parser._actions
             if action.choices is not None}
    expected = {("correlate", "--model"): asymptotics.MODELS,
                ("sweep", "--model"): asymptotics.MODELS,
                ("zeta", "--kind"): regions.HALVES,
                ("count", "--kind"): matrices.COUNT_KINDS,
                ("formulas", "--which"): arith.PRODUCT_KINDS}
    assert found.keys() == expected.keys()
    for key, vocabulary in expected.items():
        assert found[key] is vocabulary, key


def test_size_sweep_follows_the_model(capsys):
    code, out, err = run(capsys, "sweep", "--n-values", "20,40", "--left=-2", "--right=2",
                         "--model", "free_boundary")
    assert code == 0, err
    rows = [finite_correlation(validate(n, n // 2, [-2], [2]), "free_boundary").csv_row()
            for n in (20, 40)]
    assert out.splitlines()[1:] == rows


def test_free_boundary_size_sweep_needs_mirrored_holes(capsys):
    code, out, err = run(capsys, "sweep", "--n-values", "20,40", "--left=-2", "--right=4",
                         "--model", "free_boundary")
    assert code == 2
    assert out == ""
    assert err == "error: free-boundary model requires R = -L\n"


def test_count_lower_kind(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--m", "1",
                       "--left", "0", "--right", "2", "--kind", "lower")
    assert code == 0
    assert json.loads(out)["count"] == "4"


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--max-m", "1", "--max-p", "1")
    assert code == 0
    assert "0 mismatches" in out


def test_route_mismatch_exits_1(capsys, monkeypatch):
    def mismatch(spec, kind):
        raise matrices.RouteMismatchError("lower: |det Q| = 5 but prefactor * |det E| = 4")
    monkeypatch.setattr(matrices, "count_region", mismatch)
    code, out, err = run(capsys, "count", "--n", "4", "--m", "1",
                         "--left", "0", "--right", "2")
    assert code == 1
    assert out == ""
    assert "|det Q| = 5 but prefactor * |det E| = 4" in err


def test_route_mismatch_on_a_huge_count_exits_1(capsys, monkeypatch):
    # both sides of this mismatch have far more than 4300 decimal digits
    product_formula = matrices.product_formula
    monkeypatch.setattr(matrices, "product_formula",
                        lambda *args: product_formula(*args) + 1)
    code, out, err = run(capsys, "count", "--n", "200", "--m", "100",
                         "--left=-2", "--right=2", "--kind", "lower")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: lower: |det Q| = <")
