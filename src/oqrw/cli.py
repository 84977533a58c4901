"""Command-line front end.

Subcommands: dist, sample, clt, asym, compare, init-example. A run is
described by a RunConfig, serializable as a single JSON document; flags
override config fields. Exit codes: 0 success, 2 invalid input or config,
3 a numerical guard tripped (residue/mass checks, degenerate cases).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import catalog, dual, lattice, limits, trajectory
from .core import KrausPair, mat2_from_json, mat2_to_json, validate_kraus_pair
from .distribution import Distribution, compare
from .exceptions import (
    NormalizationError,
    OqrwError,
    ParameterError,
    SizeError,
    UnsupportedExample,
)

METHODS = ("lattice", "dual", "trajectory", "closed_form", "cut_unfold", "both")
FORMATS = ("csv", "json")

_IDENTITY_HALF = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


@dataclass(frozen=True)
class RunConfig:
    kraus: dict
    rho0: list
    steps: int
    method: str
    seed: int | None = None
    traj: int | None = None
    output: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ParameterError("config must be a JSON object")
        known = {"kraus", "rho0", "steps", "method", "seed", "traj", "output"}
        extra = set(data) - known
        if extra:
            raise ParameterError(f"unknown config field(s): {sorted(extra)}")
        missing = {"kraus", "rho0", "steps", "method"} - set(data)
        if missing:
            raise ParameterError(f"config is missing field(s): {sorted(missing)}")
        method = data["method"]
        if method not in METHODS:
            raise ParameterError(f"method {method!r} not in {METHODS}")
        kraus = data["kraus"]
        if isinstance(kraus, dict) and "example" in kraus:
            _json_str("example", kraus["example"])
        output = data.get("output")
        if output is not None:
            if not isinstance(output, dict) or set(output) - {"path", "format"}:
                raise ParameterError("output must be an object with only 'path' and 'format'")
            if "path" in output:
                _json_str("path", output["path"])
            if _json_str("format", output.get("format", "csv")) not in FORMATS:
                raise ParameterError(f"output format must be one of {FORMATS}")
        steps = _json_int("steps", data["steps"])
        if steps < 0:
            raise ParameterError(f"steps {steps} must be >= 0")
        seed, traj = data.get("seed"), data.get("traj")
        if seed is not None:
            trajectory._check_seed(seed)
        if traj is not None:
            traj = _json_int("traj", traj)
        return RunConfig(
            kraus=data["kraus"],
            rho0=data["rho0"],
            steps=steps,
            method=method,
            seed=seed,
            traj=traj,
            output=output,
        )


def _json_int(name: str, value) -> int:
    """value itself when it is an integer; ParameterError for anything else,
    bools and integral floats such as 3.0 included, so nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} {value!r} is not an integer")
    return value


def _json_str(name: str, value) -> str:
    """value itself when it is a string; ParameterError for anything else."""
    if not isinstance(value, str):
        raise ParameterError(f"{name} {value!r} is not a string")
    return value


def _resolve_kraus(kraus: dict) -> tuple[KrausPair, catalog.ExampleSpec | None]:
    if not isinstance(kraus, dict):
        raise ParameterError("kraus must be an object with 'example' or 'B'/'C'")
    if "example" in kraus:
        if set(kraus) != {"example"}:
            raise ParameterError("kraus example form accepts only the 'example' key")
        spec = catalog.parse_example_spec(kraus["example"])
        return catalog.build(spec), spec
    if set(kraus) == {"B", "C"}:
        pair = validate_kraus_pair(mat2_from_json(kraus["B"]), mat2_from_json(kraus["C"]))
        return pair, None
    raise ParameterError("kraus must carry either 'example' or both 'B' and 'C'")


def _diag_of(rho0: np.ndarray) -> tuple[float, float]:
    if abs(rho0[0, 1]) > 1e-12 or abs(rho0[1, 0]) > 1e-12:
        raise ParameterError("this method needs a diagonal rho0")
    return float(rho0[0, 0].real), float(rho0[1, 1].real)


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _render(dist: Distribution, fmt: str) -> str:
    if fmt == "csv":
        return dist.to_csv_text()
    return json.dumps(dist.to_json_dict(), indent=2)


def run(config: RunConfig) -> int:
    """Execute a RunConfig: compute, write artifacts, return the exit code."""
    pair, spec = _resolve_kraus(config.kraus)
    rho0 = mat2_from_json(config.rho0)
    n = config.steps
    out_path = (config.output or {}).get("path")
    fmt = (config.output or {}).get("format", "csv")

    if config.method == "both":
        d_lat = lattice.distribution(lattice.evolve(pair, lattice.initial_state(rho0), n))
        d_dual = dual.distribution_via_dual(pair, rho0, n)
        report = compare(d_lat, d_dual)
        report["distribution"] = d_lat.to_json_dict()
        _emit(json.dumps(report, indent=2), out_path)
        return 0

    if config.method == "lattice":
        dist = lattice.distribution(lattice.evolve(pair, lattice.initial_state(rho0), n))
    elif config.method == "dual":
        dist = dual.distribution_via_dual(pair, rho0, n)
    elif config.method == "closed_form":
        if spec is None:
            raise ParameterError("closed_form needs an example spec, not inline matrices")
        dist = catalog.closed_form(spec, _diag_of(rho0), n)
    elif config.method == "cut_unfold":
        if spec is None or spec.id != "ex5":
            raise ParameterError("cut_unfold applies to the ex5 pair only")
        dist = catalog.cut_unfold_distribution(_diag_of(rho0), n)
    elif config.method == "trajectory":
        if config.seed is None or config.traj is None:
            raise ParameterError("trajectory method requires both seed and traj")
        report = trajectory.sample(pair, rho0, n, config.traj, config.seed)
        if out_path is not None:
            _emit(_render(report.empirical, fmt), out_path)
        sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
        return 0
    else:  # pragma: no cover - guarded by RunConfig validation
        raise ParameterError(f"unknown method {config.method!r}")
    _emit(_render(dist, fmt), out_path)
    return 0


def _kraus_from_args(args) -> dict | None:
    """The 'kraus' config field given by --example or --B/--C, if any."""
    if args.example is not None and (args.B is not None or args.C is not None):
        raise ParameterError("give either --example or --B/--C, not both")
    if args.example is not None:
        return {"example": args.example}
    if args.B is not None or args.C is not None:
        if args.B is None or args.C is None:
            raise ParameterError("provide both --B and --C")
        return {"B": json.loads(args.B), "C": json.loads(args.C)}
    return None


def _config_from_args(args) -> RunConfig:
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ParameterError("config file must hold a JSON object")
    kraus = _kraus_from_args(args)
    if kraus is not None:
        base["kraus"] = kraus
    if args.rho0 is not None:
        base["rho0"] = json.loads(args.rho0)
    base.setdefault("rho0", _IDENTITY_HALF)
    if args.steps is not None:
        base["steps"] = args.steps
    if args.method is not None:
        base["method"] = args.method
    else:
        base.setdefault("method", "lattice")
    if args.seed is not None:
        base["seed"] = args.seed
    if args.traj is not None:
        base["traj"] = args.traj
    if args.out is not None or args.format is not None:
        output = dict(base.get("output") or {})
        if args.out is not None:
            output["path"] = args.out
        if args.format is not None:
            output["format"] = args.format
        base["output"] = output
    if "kraus" not in base:
        raise ParameterError("no Kraus pair given: use --example, --B/--C, or --config")
    if "steps" not in base:
        raise ParameterError("number of steps not given: use --steps or --config")
    return RunConfig.from_json_dict(base)


def _cmd_dist(args) -> int:
    return run(_config_from_args(args))


def _cmd_clt(args) -> int:
    kraus = _kraus_from_args(args)
    if kraus is None:
        raise ParameterError("no Kraus pair given: use --example or --B/--C")
    pair, _ = _resolve_kraus(kraus)
    params = limits.clt_params(pair)
    doc = {
        "m": params.m,
        "sigma2": params.sigma2,
        "rho_inf": mat2_to_json(params.rho_inf),
        "residuals": params.residuals,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_asym(args) -> int:
    spec = catalog.parse_example_spec(args.example)
    if spec.id != "ex5":
        raise ParameterError("the asymptotic ratio table is defined for ex5 only")
    if args.window < 0:
        raise ParameterError(f"window {args.window} must be >= 0")
    pair = catalog.build(spec)
    n2 = 2 * args.n
    dist = dual.distribution_via_dual(pair, np.eye(2) / 2, n2)
    alpha = limits.ex5_alpha(n2)
    lines = ["x,p,ratio"]
    for x in range(-args.window, args.window + 1):
        p = dist.prob(x)
        lines.append(f"{x},{p!r},{p / alpha!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_compare(args) -> int:
    a = Distribution.from_csv(args.a)
    b = Distribution.from_csv(args.b)
    _emit(json.dumps(compare(a, b), indent=2), args.out)
    return 0


def _cmd_init_example(args) -> int:
    spec = catalog.parse_example_spec(args.example)
    catalog.build(spec)  # validate parameters before writing anything
    output = {"path": args.result, "format": args.format} if args.result else None
    data = dict(kraus={"example": spec.text()}, rho0=_IDENTITY_HALF, steps=args.steps, method=args.method,
                seed=args.seed, traj=args.traj, output=output)
    _emit(json.dumps(RunConfig.from_json_dict(data).to_json_dict(), indent=2), args.out)
    return 0


def _add_kraus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", help="catalog spec, e.g. ex1:p=0.3 or ex5")
    p.add_argument("--B", help="inline B matrix as JSON [[re,im],...] rows")
    p.add_argument("--C", help="inline C matrix as JSON [[re,im],...] rows")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    _add_kraus_flags(p)
    p.add_argument("--rho0", help="initial internal state as JSON matrix (default I/2)")
    p.add_argument("--steps", type=int, help="number of walk steps")
    p.add_argument("--seed", type=int, help="RNG seed (trajectory method)")
    p.add_argument("--traj", type=int, help="number of trajectories (trajectory method)")
    p.add_argument("--config", help="JSON RunConfig file; flags override its fields")
    p.add_argument("--out", help="write the result to this path instead of stdout")
    p.add_argument("--format", choices=FORMATS, help="output format (default csv)")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oqrw", description="open quantum random walks on Z")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="time-n distribution by a chosen engine")
    _add_run_flags(p)
    p.add_argument("--method", choices=METHODS, help="engine (default lattice)")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("sample", help="Monte Carlo trajectory sampling")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_dist, method="trajectory")

    p = sub.add_parser("clt", help="drift and CLT variance of a pair")
    _add_kraus_flags(p)
    p.add_argument("--out", help="write the JSON report to this path")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("asym", help="local-limit ratio table p_x^(2n)/alpha_2n for ex5")
    p.add_argument("--example", default="ex5")
    p.add_argument("--n", type=int, required=True, help="half the step count")
    p.add_argument("--window", type=int, default=10, help="report x in [-window, window]")
    p.add_argument("--out", help="write the CSV to this path")
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("compare", help="max-abs and TV distance of two CSV distributions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", help="write the JSON report to this path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("init-example", help="write a RunConfig JSON for a catalog example")
    p.add_argument("example", help="catalog spec, e.g. ex4:eps=0.1,theta=0.7")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--method", choices=METHODS, default="lattice")
    p.add_argument("--seed", type=int)
    p.add_argument("--traj", type=int)
    p.add_argument("--result", help="output path to record inside the config")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out", help="where to write the config (default stdout)")
    p.set_defaults(func=_cmd_init_example)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ParameterError, NormalizationError, UnsupportedExample, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OqrwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
