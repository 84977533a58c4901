"""Command-line front end.

Subcommands: dist, sample, clt, asym, compare, init-example. A run is
described by a run config, serializable as a single JSON document; flags
override config fields. Each handler imports the engines it runs, so a
process pays to import only those. Exit codes, by the rule of
oqrw.exceptions: 0 success, 2 refused input (a ValueError), 3 a numerical
guard tripped (any other OqrwError).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import catalog
from .core import KrausPair, check_integer, check_seed, check_size, mat2_from_json, mat2_to_json, validate_kraus_pair
from .distribution import Distribution, compare
from .exceptions import OqrwError, ParameterError

METHODS = ("lattice", "dual", "trajectory", "closed_form", "cut_unfold", "both")
FORMATS = ("csv", "json")

_IDENTITY_HALF = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def check_config(data) -> dict:
    """The run config held by a JSON object, checked: a dict of the fields
    kraus, rho0, steps, method, seed, traj and output in that order, with
    None for an absent optional field. Every refusal is a ValueError (exit
    code 2): steps >= 0 and traj >= 1 are checked by core.check_integer
    (the builtin, for a bool or 3.0 too) and seed by core.check_seed, as
    trajectory.sample checks them; ParameterError for anything else."""
    if not isinstance(data, dict):
        raise ParameterError("config must be a JSON object")
    fields = ("kraus", "rho0", "steps", "method", "seed", "traj", "output")
    extra = set(data) - set(fields)
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
    check_integer(data["steps"], "steps", 0)
    seed, traj = data.get("seed"), data.get("traj")
    if seed is not None:
        check_seed(seed)
    if traj is not None:
        check_integer(traj, "traj", 1)
    return {key: data.get(key) for key in fields}


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


def _law(method: str, pair: KrausPair, spec: catalog.ExampleSpec | None, rho0, n: int) -> Distribution:
    """The time-n law by one of the exact methods."""
    if method == "lattice":
        from . import lattice

        return lattice.distribution(lattice.evolve(pair, lattice.initial_state(rho0), n))
    if method == "dual":
        from . import dual

        return dual.distribution_via_dual(pair, rho0, n)
    if method == "closed_form":
        if spec is None:
            raise ParameterError("closed_form needs an example spec, not inline matrices")
        return catalog.closed_form(spec, catalog._diag_of(rho0), n)
    if spec is None or spec.id != "ex5":  # cut_unfold, the last exact method
        raise ParameterError("cut_unfold applies to the ex5 pair only")
    return catalog.cut_unfold_distribution(catalog._diag_of(rho0), n)


def run(config: dict) -> int:
    """Execute a run config from check_config: compute, write artifacts,
    return the exit code."""
    pair, spec = _resolve_kraus(config["kraus"])
    rho0 = mat2_from_json(config["rho0"])
    n = config["steps"]
    output = config["output"] or {}
    out_path, fmt = output.get("path"), output.get("format", "csv")

    if config["method"] == "both":
        d_lat = _law("lattice", pair, spec, rho0, n)
        report = compare(d_lat, _law("dual", pair, spec, rho0, n))
        report["distribution"] = d_lat.to_json_dict()
        _emit(json.dumps(report, indent=2), out_path)
        return 0
    if config["method"] == "trajectory":
        if config["seed"] is None or config["traj"] is None:
            raise ParameterError("trajectory method requires both seed and traj")
        from . import trajectory

        report = trajectory.sample(pair, rho0, n, config["traj"], config["seed"])
        if out_path is not None:
            _emit(_render(report.empirical, fmt), out_path)
        sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
        return 0
    _emit(_render(_law(config["method"], pair, spec, rho0, n), fmt), out_path)
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


def _config_from_args(args) -> dict:
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
    for key in ("steps", "method", "seed", "traj"):
        if getattr(args, key) is not None:
            base[key] = getattr(args, key)
    base.setdefault("method", "lattice")
    if args.out is not None or args.format is not None:
        output = base.get("output")
        if output is None or isinstance(output, dict):  # check_config refuses any other value
            output = dict(output or {})
            if args.out is not None:
                output["path"] = args.out
            if args.format is not None:
                output["format"] = args.format
            base["output"] = output
    if "kraus" not in base:
        raise ParameterError("no Kraus pair given: use --example, --B/--C, or --config")
    if "steps" not in base:
        raise ParameterError("number of steps not given: use --steps or --config")
    return check_config(base)


def _cmd_dist(args) -> int:
    return run(_config_from_args(args))


def _cmd_clt(args) -> int:
    kraus = _kraus_from_args(args)
    if kraus is None:
        raise ParameterError("no Kraus pair given: use --example or --B/--C")
    pair, _ = _resolve_kraus(kraus)
    from . import limits

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
    if args.n < 1:
        raise ParameterError(f"--n {args.n} must be >= 1")
    if args.window < 0:
        raise ParameterError(f"window {args.window} must be >= 0")
    check_size(2 * args.window + 1, "asym rows")
    from . import dual, limits

    pair = catalog.build(catalog.ExampleSpec("ex5"))
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
    output = {"path": args.result, "format": args.format} if args.result else None
    data = dict(kraus={"example": spec.text()}, rho0=_IDENTITY_HALF, steps=args.steps, method=args.method,
                seed=args.seed, traj=args.traj, output=output)
    _emit(json.dumps(check_config(data), indent=2), args.out)
    return 0


def _add_kraus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", help="catalog spec, e.g. ex1:p=0.3 or ex5")
    p.add_argument("--B", help="inline B matrix as JSON [[re,im],...] rows")
    p.add_argument("--C", help="inline C matrix as JSON [[re,im],...] rows")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    _add_kraus_flags(p)
    p.add_argument("--rho0", help="initial internal state as JSON [[re,im],...] rows (default I/2)")
    p.add_argument("--steps", type=int, help="number of walk steps")
    p.add_argument("--seed", type=int, help="RNG seed (trajectory method)")
    p.add_argument("--traj", type=int, help="number of trajectories (trajectory method)")
    p.add_argument("--config", help="JSON run config file; flags override its fields")
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
    p.add_argument("--n", type=int, required=True, help="half the step count")
    p.add_argument("--window", type=int, default=10, help="report x in [-window, window]")
    p.add_argument("--out", help="write the CSV to this path")
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("compare", help="max-abs and TV distance of two CSV distributions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", help="write the JSON report to this path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("init-example", help="write a run config JSON for a catalog example")
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
    except (ValueError, OSError) as exc:  # ParameterError and json.JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OqrwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
