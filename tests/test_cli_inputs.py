"""Any JSON value in a run config field, or in the --example, --rho0, --B
and --C flags, ends in exit code 0, 2 or 3 from cli.main, with exactly one
`error:` line on stderr whenever the code is not 0: no exception leaves main.

Drawn sizes are either small (steps and traj up to 64, so a valid draw runs
in milliseconds) or above core.MAX_SITES, where a size guard refuses them
before any work. No drawn object holds the key "path" (free keys come from
an alphabet without "p"), so the only file a run writes is the one named in
this module's temporary directory.
"""

import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oqrw import cli, core
from oqrw.core import mat2_to_json

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abcxyz", max_size=4), inner, max_size=3),
    max_leaves=10,
)
_ENTRY = st.floats() | st.integers(-(2**70), 2**70) | st.booleans()
# 2x2 matrices of [re, im] pairs with any numbers, so that the numeric checks run
_MATRIX = st.lists(st.lists(st.lists(_ENTRY, min_size=2, max_size=2), min_size=2, max_size=2), min_size=2, max_size=2)
_R = 3**-0.5
_EX5 = {"B": [[[_R, 0], [_R, 0]], [[0, 0], [_R, 0]]], "C": [[[_R, 0], [0, 0]], [[-_R, 0], [_R, 0]]]}
_SPECS = ["ex1", "ex1:p=0.3", "ex2:p=0.4", "ex3", "ex3:p=0.5,gamma=0.4", "ex4:eps=0.1,theta=0.7", "ex5", "ex6"]
_HALF = mat2_to_json([[0.5, 0], [0, 0.5]])
_NOT_INT = _JSON.filter(lambda v: type(v) is not int)
_DROP = object()  # a field left out of the config


def _count(least: int, most: int, guarded: bool) -> st.SearchStrategy:
    """A small valid count, one below `least`, one over the size guard when
    the count is guarded, or a JSON value that is not an int."""
    over = st.integers(core.MAX_SITES, 2**70) if guarded else st.nothing()
    return st.integers(least, most) | st.integers(max_value=least - 1) | over | _NOT_INT


# any object over the keys of both forms, with a spec, a matrix or any value
_KRAUS = st.dictionaries(
    st.sampled_from(["example", "B", "C", "a"]), st.sampled_from(_SPECS) | _MATRIX | _JSON, max_size=3
) | _JSON


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_inputs")


def _outputs(out_path: str) -> st.SearchStrategy:
    return (
        st.none()
        | st.fixed_dictionaries({"path": st.just(out_path)}, optional={"format": st.sampled_from(cli.FORMATS) | _JSON})
        | st.fixed_dictionaries({"path": _JSON.filter(lambda v: not isinstance(v, str))})
        | st.dictionaries(st.sampled_from(["format", "a"]), _JSON, max_size=2)
        | _JSON
    )


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code)
    event(f"exit {code}")
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_config_ends_in_a_documented_exit_code(workdir, data):
    # a valid config, with a few of its fields dropped or replaced by any value
    fields = {
        "kraus": (st.sampled_from(_SPECS).map(lambda spec: {"example": spec}) | st.just(_EX5), _KRAUS),
        "rho0": (st.just(_HALF), _MATRIX | _JSON),
        "steps": (st.integers(0, 64), _count(0, 64, guarded=True)),
        "method": (st.sampled_from(cli.METHODS), _JSON),
        "seed": (st.integers(0, 2**64 - 1), st.integers(2**64, 2**70) | _JSON),
        "traj": (st.integers(1, 64), _count(1, 64, guarded=False)),
        "output": (st.none() | st.just({"path": str(workdir / "out")}), _outputs(str(workdir / "out"))),
    }
    config = {key: data.draw(valid, label=key) for key, (valid, _) in fields.items()}
    for key in data.draw(st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True), label="changed"):
        config[key] = data.draw(st.just(_DROP) | fields[key][1], label=key)
    config = {key: value for key, value in config.items() if value is not _DROP}
    if data.draw(st.integers(0, 9), label="whole") == 0:
        config = data.draw(_JSON, label="config")
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    # --out and --format merge into the config's output field
    flags = data.draw(st.lists(st.sampled_from([f"--out={workdir / 'out'}", *(f"--format={f}" for f in cli.FORMATS)]),
                               max_size=2), label="flags")
    _run([data.draw(st.sampled_from(["dist", "sample"])), "--config", str(path), *flags])


def _flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    # the --name=value form, so that a value starting with "-" stays a value
    return (values.map(json.dumps) | st.text(max_size=12)).map(lambda text: f"--{name}={text}")


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["dist", "sample", "clt"]),
    kraus=st.one_of(
        st.builds(lambda spec: [f"--example={spec}"], st.sampled_from(_SPECS) | st.text(max_size=12)),
        st.lists(_flag("B", _MATRIX | _JSON) | _flag("C", _MATRIX | _JSON), max_size=2),
        st.just([f"--B={json.dumps(_EX5['B'])}", f"--C={json.dumps(_EX5['C'])}"]),
    ),
    rho0=st.lists(_flag("rho0", st.just(_HALF) | _MATRIX | _JSON), max_size=1),
    steps=st.integers(0, 64),
)
def test_any_flag_value_ends_in_a_documented_exit_code(command, kraus, rho0, steps):
    if command == "clt":
        argv = [command, *kraus]
    else:
        argv = [command, *kraus, *rho0, f"--steps={steps}", "--seed=0", "--traj=8"]
    _run(argv)
