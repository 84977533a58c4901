import json

import numpy as np
import pytest

from oqrw import cli, core
from oqrw.core import mat2_to_json
from oqrw.distribution import Distribution, noise_floor


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


def test_rho0_help_names_the_pair_form_that_runs(capsys):
    with pytest.raises(SystemExit):
        cli.main(["dist", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--rho0 RHO0 initial internal state as JSON [[re,im],...] rows" in help_text
    rho = "[[[0.7,0],[0.2,-0.1]],[[0.2,0.1],[0.3,0]]]"
    assert cli.main(["dist", "--example", "ex5", "--steps", "7", "--method", "dual", "--rho0", rho]) == 0
    d = Distribution.from_csv_text(capsys.readouterr().out)
    assert d.total() == pytest.approx(1.0, abs=1e-12)
    assert cli.main(["dist", "--example", "ex5", "--steps", "7", "--rho0", "[[0.3,0],[0,0.7]]"]) == 2
    assert "[re, im] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("method,example", [("closed_form", "ex1"), ("cut_unfold", "ex5")])
def test_diagonal_start_methods_check_rho0_like_the_engines(method, example, capsys):
    # the diagonal entry 0.5 + 0.3i is not Hermitian; the off-diagonal entries are 0
    rho = "[[[0.5,0.3],[0,0]],[[0,0],[0.5,0]]]"
    for m in ("lattice", method):
        assert cli.main(["dist", "--example", example, "--steps", "4", "--method", m, "--rho0", rho]) == 2
        assert "not Hermitian" in capsys.readouterr().err


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
    assert d.probs.min() >= noise_floor(n)


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
    # the table is defined for ex5 only, so asym takes no --example
    with pytest.raises(SystemExit) as exc:
        cli.main(["asym", "--example", "ex1", "--n", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --example ex1" in capsys.readouterr().err


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
    loaded = cli.check_config(json.loads(cfg.read_text()))
    assert loaded["kraus"] == {"example": "ex4:eps=0.1"}
    assert loaded["steps"] == 7 and loaded["method"] == "dual"
    assert cli.main(["dist", "--config", str(cfg)]) == 0
    base = capsys.readouterr().out
    # a flag overrides the config field it shadows
    assert cli.main(["dist", "--config", str(cfg), "--method", "lattice"]) == 0
    overridden = capsys.readouterr().out
    da = Distribution.from_csv_text(base)
    db = Distribution.from_csv_text(overridden)
    for x in da.sites:
        assert db.prob(int(x)) == pytest.approx(da.prob(int(x)), abs=1e-10)


_EX4_CONFIG = """\
{
  "kraus": {
    "example": "ex4:eps=0.1"
  },
  "rho0": [
    [
      [
        0.5,
        0.0
      ],
      [
        0.0,
        0.0
      ]
    ],
    [
      [
        0.0,
        0.0
      ],
      [
        0.5,
        0.0
      ]
    ]
  ],
  "steps": 7,
  "method": "dual",
  "seed": null,
  "traj": null,
  "output": null
}
"""


def test_init_example_prints_the_fields_in_order(capsys):
    assert cli.main(["init-example", "ex4:eps=0.1", "--steps", "7", "--method", "dual"]) == 0
    assert capsys.readouterr().out == _EX4_CONFIG


def test_init_example_rejects_bad_params(tmp_path, capsys):
    assert cli.main(["init-example", "ex3:gamma=2.0", "--out", str(tmp_path / "x.json")]) == 2
    assert not (tmp_path / "x.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        ["ex5", "--method=trajectory", "--traj=10", "--steps=4", "--seed=-1"],
        ["ex5", "--method=trajectory", "--traj=10", "--steps=-3", "--seed=1"],
        ["ex5", "--method=trajectory", "--traj=0", "--steps=4", "--seed=1"],
        ["ex3", "--method=trajectory", "--steps=5"],
        ["ex1", "--method=cut_unfold", "--steps=5"],
        ["ex2", "--method=closed_form", "--steps=5"],
        ["ex5", "--method=closed_form", "--steps=5"],
    ],
)
def test_init_example_refuses_what_dist_refuses(tmp_path, capsys, flags):
    # init-example refuses the config it would write with the line that
    # dist --config prints for that config, and writes nothing
    example, *options = flags
    config = {"kraus": {"example": example}}
    for option in options:
        key, value = option[2:].split("=")
        config[key] = value if key == "method" else int(value)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["dist", "--config", str(cfg)]) == 2
    refused = capsys.readouterr().err
    assert refused.startswith("error: ") and refused.count("\n") == 1
    out = tmp_path / "c.json"
    assert cli.main(["init-example", *flags, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == refused


@pytest.mark.parametrize("name", ["--B", "--C", "--rho0", "config file"])
def test_a_malformed_json_input_is_named(tmp_path, capsys, name):
    cfg = tmp_path / "run.json"
    cfg.write_text("[[")
    b, c = _b_c_flags()[1::2]
    argv = {
        "--B": ["--B", "[[", "--C", c],
        "--C": ["--B", b, "--C", "[["],
        "--rho0": ["--example", "ex5", "--rho0", "[["],
        "config file": ["--config", str(cfg)],
    }[name]
    assert cli.main(["dist", *argv, "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = f"config file {cfg}" if name == "config file" else name
    assert captured.err == f"error: {named} is not valid JSON: Expecting value: line 1 column 3 (char 2)\n"


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
    """A non-integer steps, seed or traj is refused with exit 2, never
    truncated; the message names the field and the value."""
    doc = {"kraus": {"example": "ex5"}, "rho0": cli._IDENTITY_HALF, "steps": 4,
           "method": "trajectory", "seed": 7, "traj": 10}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["dist", "--config", str(cfg)]) == 0
    capsys.readouterr()
    cfg.write_text(json.dumps({**doc, field: value}))
    assert cli.main(["dist", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    if field == "seed":  # core.check_seed
        assert f"seed {value!r} is not an integer" in err
    else:  # core.check_integer, as trajectory.sample words it
        assert f"{field} must be an integer, got {value!r}" in err


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


@pytest.mark.parametrize("output", [1, [1], [["format", "json"]], False])
@pytest.mark.parametrize("flag", ["--out", "--format"])
def test_config_output_that_is_not_an_object_is_refused_before_the_flags_merge(tmp_path, capsys, output, flag):
    """--out and --format merge into the config's output field only when
    that field is an object or absent, the form check_config requires."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kraus": {"example": "ex5"}, "rho0": cli._IDENTITY_HALF, "steps": 3,
                               "method": "lattice", "output": output}))
    value = str(tmp_path / "out.csv") if flag == "--out" else "json"
    assert cli.main(["dist", "--config", str(cfg), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output must be an object with only 'path' and 'format'\n"
    assert not (tmp_path / "out.csv").exists()


def test_compare_refuses_a_site_beyond_int64(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("x,p\n0,1\n")
    for site in (2**63, -(2**63) - 1):
        b = tmp_path / "b.csv"
        b.write_text(f"x,p\n{site},1\n")
        assert cli.main(["compare", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sites must lie in the int64 range\n"


def test_rho0_that_is_not_a_matrix_is_refused_by_the_parser(capsys):
    assert cli.main(["dist", "--example", "ex5", "--steps", "3", "--rho0", '{"a": 1}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expected a 2x2 matrix of [re, im] pairs")


def test_asym_refuses_a_negative_window(capsys):
    assert cli.main(["asym", "--n", "5", "--window", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_asym_refuses_n_below_one_before_any_engine(monkeypatch, capsys, n):
    monkeypatch.setattr("oqrw.dual.distribution_via_dual", None)
    assert cli.main(["asym", "--n", n, "--window", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --n {n} must be >= 1") and "Traceback" not in captured.err


def test_asym_refuses_a_window_beyond_the_size_guard(monkeypatch, capsys):
    # refused before the law or any row is formed
    monkeypatch.setattr("oqrw.dual.distribution_via_dual", None)
    assert cli.main(["asym", "--n", "5", "--window", str(10**9)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "asym rows" in captured.err
    assert "Traceback" not in captured.err


def test_kraus_example_with_extra_keys_rejected():
    from oqrw.exceptions import ParameterError

    config = {"rho0": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "steps": 3, "method": "lattice"}
    with pytest.raises(ParameterError, match="only the 'example' key"):
        cli.check_config({**config, "kraus": {"example": "ex5", "B": []}})
    with pytest.raises(ParameterError, match="either 'example' or both 'B' and 'C'"):
        cli.check_config({**config, "kraus": {"B": []}})


def test_bool_matrix_entry_is_exit_2(capsys):
    r = "0.7071067811865476"
    B = f"[[[true,0],[0,0]],[[0,0],[{r},0]]]"
    C = f"[[[0,0],[0,0]],[[0,0],[{r},0]]]"
    assert cli.main(["dist", "--B", B, "--C", C, "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a 2x2 matrix of [re, im] pairs, got a bool entry\n"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_code_follows_the_exception_hierarchy(monkeypatch, capsys):
    # a refusal of input is a ValueError (exit 2); any other OqrwError is a
    # numerical guard (exit 3); a new class must take one side or the other
    from oqrw import exceptions

    classes = set(_subclasses(exceptions.OqrwError))
    refusals = {c.__name__ for c in classes if issubclass(c, ValueError)}
    assert refusals == {"ParameterError", "NormalizationError", "UnsupportedExample", "SizeError"}
    for cls in classes | {exceptions.OqrwError, ValueError, OSError}:
        def handler(args, cls=cls):
            raise cls(1.0)

        monkeypatch.setattr(cli, "_cmd_clt", handler)
        code = cli.main(["clt", "--example", "ex5"])
        assert code == (2 if issubclass(cls, (ValueError, OSError)) else 3), cls
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("cls", [KeyError, TypeError])
def test_a_fault_inside_a_handler_is_not_reported_as_bad_input(monkeypatch, capsys, cls):
    def handler(args):
        raise cls("a programming error")

    monkeypatch.setattr(cli, "_cmd_clt", handler)
    with pytest.raises(cls):
        cli.main(["clt", "--example", "ex5"])
    assert capsys.readouterr().err == ""
