import json

from holeyhex import matrices
from holeyhex.cli import main
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


def test_sweep_requires_a_mode(capsys):
    code, _, err = run(capsys, "sweep", "--xi", "1")
    assert code == 2
    assert "separations" in err


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
