import json

import numpy as np
import pytest

from oqrw import cli, core
from oqrw.core import mat2_to_json
from oqrw.distribution import ROUNDOFF_SCALE, Distribution


def _b_c_flags():
    r = 1 / np.sqrt(3)
    B = r * np.array([[1, 1], [0, 1]], dtype=complex)
    C = r * np.array([[1, 0], [-1, 1]], dtype=complex)
    return ["--B", json.dumps(mat2_to_json(B)), "--C", json.dumps(mat2_to_json(C))]


def test_dist_lattice_stdout(capsys):
    assert cli.main(["dist", "--example", "ex5", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    d = Distribution.from_csv_text(out)
    assert d.prob(0) == pytest.approx(3 / 9, abs=1e-12)
    assert d.prob(4) == pytest.approx(1 / 9, abs=1e-12)


def test_dist_methods_agree(capsys):
    rows = {}
    for method in ("lattice", "dual", "cut_unfold"):
        assert cli.main(["dist", "--example", "ex5", "--steps", "6", "--method", method]) == 0
        rows[method] = capsys.readouterr().out
    a = Distribution.from_csv_text(rows["lattice"])
    b = Distribution.from_csv_text(rows["dual"])
    c = Distribution.from_csv_text(rows["cut_unfold"])
    for x in a.sites:
        assert b.prob(int(x)) == pytest.approx(a.prob(int(x)), abs=1e-10)
        assert c.prob(int(x)) == pytest.approx(a.prob(int(x)), abs=1e-10)


def test_dist_inline_matrices_match_example(capsys):
    assert cli.main(["dist", "--example", "ex5", "--steps", "3"]) == 0
    via_example = capsys.readouterr().out
    assert cli.main(["dist", *_b_c_flags(), "--steps", "3"]) == 0
    via_inline = capsys.readouterr().out
    assert via_example == via_inline


def test_dist_json_format(capsys):
    assert cli.main(["dist", "--example", "ex1:p=0.3", "--steps", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    d = Distribution.from_json_dict(doc)
    assert d.total() == pytest.approx(1.0, abs=1e-12)


def test_dist_both_reports_agreement(capsys):
    assert cli.main(["dist", "--example", "ex2:p=0.4", "--steps", "8", "--method", "both"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs"] <= 1e-12
    assert doc["tv_distance"] <= 1e-12
    assert sum(doc["distribution"]["p"]) == pytest.approx(1.0, abs=1e-10)


def test_dist_output_file_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["dist", "--example", "ex3:p=0.4,gamma=0.6", "--steps", "9"]
    assert cli.main([*args, "--out", str(p1)]) == 0
    assert cli.main([*args, "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    Distribution.from_csv(p1)


def test_dist_rho0_flag(capsys):
    rho = json.dumps(mat2_to_json(np.diag([1.0, 0.0])))
    code = cli.main(
        ["dist", "--example", "ex1:p=0.3", "--steps", "5", "--rho0", rho, "--method", "closed_form"]
    )
    assert code == 0
    d = Distribution.from_csv_text(capsys.readouterr().out)
    assert d.items() == [(-5, 1.0)]


def test_sample_reports_and_writes(tmp_path, capsys):
    out = tmp_path / "emp.csv"
    code = cli.main(
        ["sample", "--example", "ex5", "--steps", "6", "--seed", "3", "--traj", "500",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_steps"] == 6 and doc["n_traj"] == 500 and doc["seed"] == 3
    emp = Distribution.from_csv(out)
    assert emp.total() == pytest.approx(1.0, abs=1e-12)
    assert emp.to_json_dict() == doc["distribution"]


def test_sample_requires_seed_and_traj(capsys):
    assert cli.main(["sample", "--example", "ex5", "--steps", "4", "--traj", "10"]) == 2
    assert cli.main(["sample", "--example", "ex5", "--steps", "4", "--seed", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_sample_ignores_config_method(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert cli.main(["init-example", "ex5", "--steps", "4", "--method", "lattice",
                     "--out", str(cfg)]) == 0
    assert json.loads(cfg.read_text())["method"] == "lattice"
    assert cli.main(["sample", "--config", str(cfg), "--seed", "1", "--traj", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_traj"] == 100 and doc["seed"] == 1 and doc["n_steps"] == 4


def test_clt_report(capsys):
    assert cli.main(["clt", "--example", "ex5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == pytest.approx(0.0, abs=1e-12)
    assert doc["sigma2"] == pytest.approx(8 / 9, abs=1e-12)
    np.testing.assert_allclose(
        np.asarray(doc["rho_inf"], dtype=float),
        [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        atol=1e-12,
    )
    assert set(doc["residuals"]) == {"fixed_point", "poisson", "solvability"}


def test_clt_requires_a_pair(capsys):
    assert cli.main(["clt"]) == 2
    assert "error: no Kraus pair given" in capsys.readouterr().err
    assert cli.main(["clt", "--B", "[[[1,0],[0,0]],[[0,0],[1,0]]]"]) == 2
    assert "error: provide both --B and --C" in capsys.readouterr().err


def test_dist_dual_size_guard_is_exit_2(capsys):
    argv = ["dist", "--method", "dual", "--example", "ex5", "--steps", "100000000"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--example", "ex5", "--steps", "100", "--traj", "1", "--seed", "1"],
        ["dist", "--method", "closed_form", "--example", "ex1", "--steps", "100"],
    ],
)
def test_size_guards_are_exit_2(argv, monkeypatch, capsys):
    # a small bound, so that a missing guard cannot allocate much
    monkeypatch.setattr(core, "MAX_SITES", 50)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("example", ["ex3", "ex1:p=0.3"])
def test_dist_dual_accepts_large_n(example, capsys):
    # the FFT roundoff at n = 1e5 reaches -1.1e-12, inside the floor that grows with n
    n = 100_000
    assert cli.main(["dist", "--method", "dual", "--example", example, "--steps", str(n)]) == 0
    d = Distribution.from_csv_text(capsys.readouterr().out)
    assert d.total() == pytest.approx(1.0, abs=1e-8)
    assert d.probs.min() >= ROUNDOFF_SCALE * (n + 1) * np.finfo(float).eps


def test_clt_degenerate_is_exit_3(capsys):
    assert cli.main(["clt", "--example", "ex1"]) == 3
    assert "error" in capsys.readouterr().err


def test_asym_table(capsys):
    assert cli.main(["asym", "--n", "30", "--window", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,p,ratio"
    rows = {int(r.split(",")[0]): float(r.split(",")[2]) for r in lines[1:]}
    assert set(rows) == set(range(-3, 4))
    assert rows[0] == pytest.approx(1 / np.pi, rel=0.05)
    assert abs(rows[1]) < 1e-6 and abs(rows[-1]) < 1e-6


def test_asym_rejects_other_examples(capsys):
    assert cli.main(["asym", "--example", "ex1", "--n", "5"]) == 2
    capsys.readouterr()


def test_compare_command(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    Distribution({0: 1.0}).to_csv(a)
    Distribution({1: 1.0}).to_csv(b)
    assert cli.main(["compare", str(a), str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"max_abs": 1.0, "tv_distance": 1.0}
    assert cli.main(["compare", str(a), str(a)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"max_abs": 0.0, "tv_distance": 0.0}


def test_compare_missing_file(tmp_path, capsys):
    assert cli.main(["compare", str(tmp_path / "nope.csv"), str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


def test_init_example_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    code = cli.main(
        ["init-example", "ex4:eps=0.1", "--steps", "7", "--method", "dual", "--out", str(cfg)]
    )
    assert code == 0
    loaded = cli.RunConfig.from_json_dict(json.loads(cfg.read_text()))
    assert loaded.kraus == {"example": "ex4:eps=0.1"}
    assert loaded.steps == 7 and loaded.method == "dual"
    assert cli.main(["dist", "--config", str(cfg)]) == 0
    base = capsys.readouterr().out
    # a flag overrides the config field it shadows
    assert cli.main(["dist", "--config", str(cfg), "--method", "lattice"]) == 0
    overridden = capsys.readouterr().out
    da = Distribution.from_csv_text(base)
    db = Distribution.from_csv_text(overridden)
    for x in da.sites:
        assert db.prob(int(x)) == pytest.approx(da.prob(int(x)), abs=1e-10)


def test_init_example_rejects_bad_params(tmp_path, capsys):
    assert cli.main(["init-example", "ex3:gamma=2.0", "--out", str(tmp_path / "x.json")]) == 2
    assert not (tmp_path / "x.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--steps", "4", "--seed", "-1"], ["--steps", "-3", "--seed", "1"]])
def test_init_example_refuses_what_dist_refuses(tmp_path, capsys, flags):
    out = tmp_path / "c.json"
    argv = ["init-example", "ex5", "--method", "trajectory", "--traj", "10", *flags, "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--example", "ex5", "--steps", "-1"],
        ["dist", "--example", "nope", "--steps", "3"],
        ["dist", "--example", "ex5", "--B", "[[[1,0],[0,0]],[[0,0],[1,0]]]", "--steps", "3"],
        ["dist", "--B", "[[[1,0],[0,0]],[[0,0],[1,0]]]", "--steps", "3"],
        ["dist", "--example", "ex5"],
        ["dist", "--example", "ex1", "--steps", "3", "--method", "cut_unfold"],
        ["dist", "--example", "ex2", "--steps", "3", "--method", "closed_form"],
        ["dist", *_b_c_flags(), "--steps", "3", "--method", "closed_form"],
        ["dist", "--example", "ex5", "--steps", "20", "--method", "cut_unfold"],
    ],
)
def test_invalid_runs_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_config_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kraus": {"example": "ex5"}, "rho0": cli._IDENTITY_HALF,
                               "steps": 3, "method": "nope"}))
    assert cli.main(["dist", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"kraus": {"example": "ex5"}, "rho0": cli._IDENTITY_HALF,
                               "steps": 3, "method": "lattice", "bogus": 1}))
    assert cli.main(["dist", "--config", str(bad)]) == 2
    bad.write_text("[1, 2]")
    assert cli.main(["dist", "--config", str(bad)]) == 2
    bad.write_text("{not json")
    assert cli.main(["dist", "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field", ["steps", "seed", "traj"])
@pytest.mark.parametrize("value", [3.9, 4.0, True, "4", [4]])
def test_config_integer_fields_refuse_non_integers(tmp_path, capsys, field, value):
    """A non-integer steps, seed or traj is refused with exit 2, never truncated."""
    doc = {"kraus": {"example": "ex5"}, "rho0": cli._IDENTITY_HALF, "steps": 4,
           "method": "trajectory", "seed": 7, "traj": 10}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["dist", "--config", str(cfg)]) == 0
    capsys.readouterr()
    cfg.write_text(json.dumps({**doc, field: value}))
    assert cli.main(["dist", "--config", str(cfg)]) == 2
    assert f"{field} {value!r} is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field",
    [{"kraus": {"example": 5}}, {"output": {"path": 2}}, {"output": {"path": 5}}, {"output": {"format": 1}}],
)
def test_config_string_fields_refuse_other_types(tmp_path, capsys, field):
    """A non-string example, output path or format is refused with exit 2; a
    path such as 2 must not become a file descriptor."""
    doc = {"kraus": {"example": "ex5"}, "rho0": cli._IDENTITY_HALF, "steps": 3, "method": "lattice", **field}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["dist", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a string" in captured.err and "Traceback" not in captured.err


def test_compare_refuses_non_finite_weights(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x,p\n0,1\n")
    for weight in ("nan", "inf"):
        b.write_text(f"x,p\n0,{weight}\n")
        assert cli.main(["compare", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_asym_refuses_a_negative_window(capsys):
    assert cli.main(["asym", "--n", "5", "--window", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_kraus_example_with_extra_keys_rejected():
    from oqrw.exceptions import ParameterError

    with pytest.raises(ParameterError):
        cli._resolve_kraus({"example": "ex5", "B": []})
    with pytest.raises(ParameterError):
        cli._resolve_kraus({"B": []})
