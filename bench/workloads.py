"""The two workloads: operations that call oqrw, and the check of each output.

`exact` is built from a large and a small part, `sample-cli` from a
trajectory part and a cold-CLI part; the parts are built separately below.
A workload is a list of operations run in the same order in every pass, so a
slow stretch of the machine falls on all of them alike. An operation calls
oqrw's public functions by their module-qualified names, through the tracer,
and returns plain data. Its check compares that data with a reference from
`reference` or with a property from `checks`; references are computed only
when a check runs, after the timed passes.

Inputs come from the seed; sizes do not, so every seed does the same amount
of work. The one operation that fails on every seed is
`limits.laplace_ratio.peak_underflow`: `laplace_ratio` forms f**n without
scaling by the peak, so f = (1 - x^2)/2 at n = 2000 underflows to 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from oqrw import catalog, cli, core, dual, lattice, limits, trajectory

import checks
import reference as ref
from tracing import NullTracer

# The package namespace re-exports lattice.distribution under the module's name.
distribution = importlib.import_module("oqrw.distribution")

HALF = np.eye(2) / 2
NULL = NullTracer()
FAMILIES = ("ex1", "ex2", "ex3", "ex4", "ex5")
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    run: Callable      # (tracer) -> output
    check: Callable    # (output) -> None; raises checks.CheckError
    known_fault: bool = False


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], None]
    cross_check: Callable[[dict], None] = lambda outputs: None
    yardstick: bool = False   # report times at the yardstick's reference speed (yardstick.py)


# ---- seeded inputs -----------------------------------------------------------


def family_params(rng, ident: str) -> dict[str, float]:
    """Parameters well inside each family's admissible range."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if ident == "ex1":
        return {"p": u(0.2, 0.8)}
    if ident == "ex2":
        return {"p": u(0.2, 0.8), "phi1": u(0, 6.2), "phi2": u(0, 6.2), "phi3": u(0, 6.2)}
    if ident == "ex3":
        return {"p": u(0.3, 0.7), "gamma": u(0.2, 0.7)}
    if ident == "ex4":
        return {"eps": u(0.1, 0.4), "theta": u(0, 3.1)}
    return {}


def spec_text(ident: str, params: dict[str, float]) -> str:
    if not params:
        return ident
    return ident + ":" + ",".join(f"{k}={v!r}" for k, v in params.items())


def random_rho(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    r = z @ z.conj().T
    r = (r + r.conj().T) / 2
    return r / np.trace(r).real


# ---- calls into oqrw ---------------------------------------------------------


def build(tr, text: str):
    spec = tr.call("catalog.parse_example_spec", catalog.parse_example_spec, text)
    return spec, tr.call("catalog.build", catalog.build, spec)


def lattice_law(tr, kp, rho0, n: int):
    s0 = tr.call("lattice.initial_state", lattice.initial_state, rho0)
    s = tr.call("lattice.evolve", lattice.evolve, kp, s0, n)
    d = tr.call("lattice.distribution", lattice.distribution, s)
    return d.sites, d.probs


def dual_law(tr, kp, rho0, n: int):
    d = tr.call("dual.distribution_via_dual", dual.distribution_via_dual, kp, rho0, n)
    if tr.enabled:
        tr.dual_law_counts(d.probs)
    return d.sites, d.probs


def closed_law(tr, spec, diag, n: int):
    d = tr.call("catalog.closed_form", catalog.closed_form, spec, diag, n)
    return d.sites, d.probs


def sample_report(tr, kp, rho0, n: int, n_traj: int, seed: int) -> dict:
    rep = tr.call("trajectory.sample", trajectory.sample, kp, rho0, n, n_traj, seed)
    if tr.enabled:
        tr.count("trajectory.traj_steps", n * n_traj)
    return rep.to_json_dict()


def exact_check(n: int, expect: Callable):
    """Check of an exact law at time n against the reference expect()."""
    def check(law):
        checks.exact_law(law, n, expect())
    return check


def law_moments(law) -> tuple[float, float]:
    x = np.asarray(law[0], dtype=float)
    p = np.asarray(law[1], dtype=float)
    mean = float(x @ p)
    return mean, float((x - mean) ** 2 @ p)


# ---- exact, large part ----------------------------------------------------------

N_LATTICE = 4000
N_DUAL = 100_000
N_EX3 = 3000
# ex3 keeps fixed parameters at n = 3000: the lattice engine prunes sites
# below 1e-16, so its support and its cost change tenfold with p and gamma.
EX3_LARGE = {"p": 0.5, "gamma": 0.5}


def exact_large(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    par3, par4 = EX3_LARGE, family_params(rng, "ex4")
    diag3 = float(rng.uniform(0.2, 0.8))
    rho3 = np.diag([diag3, 1 - diag3])
    rho4 = random_rho(rng)
    _, ex5 = build(NULL, "ex5")
    spec3, ex3 = build(NULL, spec_text("ex3", par3))
    _, ex4 = build(NULL, spec_text("ex4", par4))
    B5, C5 = ref.family_pair("ex5")
    ex3_ref = functools.cache(lambda: ref.dense_law(*ref.family_pair("ex3", **par3), rho3, N_EX3))

    def check_lattice_ex5(law):
        checks.exact_law(law, N_LATTICE, ref.dense_law(B5, C5, HALF, N_LATTICE))
        checks.symmetric(law)

    def check_dual_ex5(law):
        checks.exact_law(law, N_DUAL)
        checks.symmetric(law)
        # Roundoff of a few ulps on each of the 2n + 1 coefficients moves the
        # moments by up to that much times sum |x| and sum x^2.
        ulps = 4 * np.finfo(float).eps
        x = np.arange(-N_DUAL, N_DUAL + 1, dtype=float)
        mean, var = ref.moments(B5, C5, HALF, N_DUAL)
        got_mean, got_var = law_moments(law)
        checks.scalar(got_mean, mean, ulps * np.abs(x).sum(), "mean")
        checks.scalar(got_var, var, ulps * (x * x).sum(), "variance")

    def check_dual_ex4(law):
        checks.exact_law(law, N_DUAL, ref.ex4_law(N_DUAL, par4["eps"], par4["theta"], rho4))

    def cross(outputs):
        checks.close(outputs["lattice.ex3"], outputs["dual.ex3"])

    def warmup():
        lattice_law(NULL, ex5, HALF, 16)
        dual_law(NULL, ex5, HALF, 128)
        lattice_law(NULL, ex3, rho3, 16)
        dual_law(NULL, ex3, rho3, 16)
        closed_law(NULL, spec3, (diag3, 1 - diag3), 16)

    ops = [
        Op("lattice.ex5", lambda tr: lattice_law(tr, ex5, HALF, N_LATTICE), check_lattice_ex5),
        Op("dual.ex5", lambda tr: dual_law(tr, ex5, HALF, N_DUAL), check_dual_ex5),
        Op("dual.ex4", lambda tr: dual_law(tr, ex4, rho4, N_DUAL), check_dual_ex4),
        Op("lattice.ex3", lambda tr: lattice_law(tr, ex3, rho3, N_EX3), exact_check(N_EX3, ex3_ref)),
        Op("dual.ex3", lambda tr: dual_law(tr, ex3, rho3, N_EX3), exact_check(N_EX3, ex3_ref)),
        Op(
            "catalog.closed_form.ex3",
            lambda tr: closed_law(tr, spec3, (diag3, 1 - diag3), N_EX3),
            exact_check(N_EX3, ex3_ref),
        ),
    ]
    return Workload(ops, warmup, cross)


# ---- exact, small part ----------------------------------------------------------

SWEEPS = 24             # lattice + dual queries per catalog family
RANDOM_PAIRS = 48       # lattice + dual queries on core.random_kraus_pair pairs
# Step counts cycled through by the queries; below 64 the dual engine applies
# its symbol one step at a time.
SMALL_N = (8, 12, 17, 24, 31, 40, 47, 55, 63)
ALPHA_N = (20, 100, 300, 600)
LAPLACE_N = (20, 60, 150, 300)
CSV_SIZES = (64, 256, 1024, 4096)
UNDERFLOW_N = 2000


def _pair_ops(label, make_pair, B, C, n, rng) -> list[Op]:
    rho0 = random_rho(rng)
    expect = functools.cache(lambda: ref.dense_law(B, C, rho0, n))
    return [
        Op(f"lattice.{label}", lambda tr: lattice_law(tr, make_pair(tr), rho0, n), exact_check(n, expect)),
        Op(f"dual.{label}", lambda tr: dual_law(tr, make_pair(tr), rho0, n), exact_check(n, expect)),
    ]


def _closed_form_op(i, ident, n, rng) -> Op:
    par = family_params(rng, ident)
    a = float(rng.uniform(0.2, 0.8))
    text = spec_text(ident, par)

    def expect():
        if ident == "ex1":
            return ref.ex1_law(n, par["p"], a, 1 - a)
        if ident == "ex4":
            return ref.ex4_law(n, par["eps"], par["theta"], np.diag([a, 1 - a]))
        return ref.dense_law(*ref.family_pair(ident, **par), np.diag([a, 1 - a]), n)

    def run(tr):
        spec = tr.call("catalog.parse_example_spec", catalog.parse_example_spec, text)
        return closed_law(tr, spec, (a, 1 - a), n)

    return Op(f"catalog.closed_form.{ident}.{i}", run, exact_check(n, expect))


def _cut_unfold_op(n: int, a: float) -> Op:
    def run(tr):
        return tr.call("catalog.cut_unfold_exact", catalog.cut_unfold_exact, (a, 1 - a), n)

    def check(exact):
        if sum(exact.values(), Fraction(0)) != 1:
            raise checks.CheckError("exact rational law does not sum to 1")
        law = (np.array(list(exact), dtype=np.int64), np.array([float(v) for v in exact.values()]))
        checks.exact_law(law, n, ref.dense_law(*ref.family_pair("ex5"), np.diag([a, 1 - a]), n), 1e-12)

    return Op(f"catalog.cut_unfold_exact.{n}", run, check)


def _clt_op(label, make_pair, B, C) -> Op:
    def run(tr):
        out = tr.call("limits.clt_params", limits.clt_params, make_pair(tr))
        return out.m, out.sigma2

    def check(out):
        m, s2 = ref.clt_growth(B, C)
        checks.scalar(out[0], m, 1e-8, "drift m")
        checks.scalar(out[1], s2, 1e-6 * max(1.0, abs(s2)), "sigma^2")

    return Op(f"limits.clt_params.{label}", run, check)


def _alpha_op(n: int) -> Op:
    def check(value):
        expect = ref.alpha(*ref.family_pair("ex5"), n)
        checks.scalar(value, expect, 1e-8 * expect, "alpha")

    return Op(f"limits.ex5_alpha.{n}", lambda tr: tr.call("limits.ex5_alpha", limits.ex5_alpha, n), check)


def _laplace_op(name, f, g, n, expect, tol, known_fault=False) -> Op:
    def run(tr):
        return tr.call("limits.laplace_ratio", limits.laplace_ratio, f, g, (-1.0, 1.0), n)

    return Op(name, run, lambda value: checks.scalar(value, expect(), tol, "ratio"), known_fault)


def _parabola(c: float, x0: float):
    return lambda x: 1.0 - c * (x - x0) ** 2


def seeded_law(rng, size: int):
    sites = np.sort(rng.choice(np.arange(-4 * size, 4 * size), size=size, replace=False))
    return sites, rng.dirichlet(np.ones(size))


def _csv_op(i: int, law) -> Op:
    d = distribution.Distribution(law)

    def run(tr):
        text = tr.call("distribution.Distribution.to_csv_text", distribution.Distribution.to_csv_text, d)
        back = tr.call("distribution.Distribution.from_csv_text", distribution.Distribution.from_csv_text, text)
        cmp = tr.call("distribution.compare", distribution.compare, d, back)
        return text, back.sites, back.probs, cmp

    def check(out):
        text, sites, probs, cmp = out
        rows = [ln.split(",") for ln in text.splitlines()]
        if rows[0] != ["x", "p"]:
            raise checks.CheckError("CSV header is not x,p")
        parsed = (np.array([int(r[0]) for r in rows[1:]]), np.array([float(r[1]) for r in rows[1:]]))
        checks.identical(parsed, law, "CSV text")
        checks.identical((sites, probs), law, "CSV round trip")
        checks.scalar(cmp["max_abs"], 0.0, 0.0, "max_abs of a law with itself")
        checks.scalar(cmp["tv_distance"], 0.0, 0.0, "tv_distance of a law with itself")

    return Op(f"distribution.csv_round_trip.{i}", run, check)


def _compare_op(a, b) -> Op:
    da, db = distribution.Distribution(a), distribution.Distribution(b)

    def check(cmp):
        lo = int(min(a[0].min(), b[0].min()))
        hi = int(max(a[0].max(), b[0].max()))
        diff = np.abs(checks.dense(a, lo, hi) - checks.dense(b, lo, hi))
        checks.scalar(cmp["max_abs"], float(diff.max()), 1e-15, "max_abs")
        checks.scalar(cmp["tv_distance"], float(diff.sum()) / 2, 1e-12, "tv_distance")

    return Op("distribution.compare", lambda tr: tr.call("distribution.compare", distribution.compare, da, db), check)


def _kraus_defect(B, C) -> float:
    B, C = np.asarray(B), np.asarray(C)
    return float(np.max(np.abs(B.conj().T @ B + C.conj().T @ C - np.eye(2))))


def _random_pair_op(seed: int, i: int) -> Op:
    def run(tr):
        kp = tr.call("core.random_kraus_pair", core.random_kraus_pair, np.random.default_rng([seed, 4, i]))
        return kp.B, kp.C

    def check(out):
        checks.scalar(_kraus_defect(*out), 0.0, 1e-12, "Kraus defect")

    return Op(f"core.random_kraus_pair.{i}", run, check)


def _validate_op(label: str, B, C) -> Op:
    def run(tr):
        kp = tr.call("core.validate_kraus_pair", core.validate_kraus_pair, B, C)
        return kp.B, kp.C

    def check(out):
        checks.identical(out, (np.asarray(B, dtype=complex), np.asarray(C, dtype=complex)), "validated pair")
        checks.scalar(_kraus_defect(*out), 0.0, 1e-12, "Kraus defect")

    return Op(f"core.validate_kraus_pair.{label}", run, check)


def exact_small(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []
    pairs = []   # (label, B, C) for the clt and validate queries
    sizes = iter(SMALL_N * (2 * SWEEPS + RANDOM_PAIRS))
    for i in range(SWEEPS):
        for ident in FAMILIES:
            par = family_params(rng, ident)
            text = spec_text(ident, par)
            B, C = ref.family_pair(ident, **par)
            ops += _pair_ops(f"{ident}.{i}", lambda tr, text=text: build(tr, text)[1], B, C, next(sizes), rng)
            if i == 0 and ident != "ex1" and ident != "ex4":   # ex1 and ex4 have no unique invariant state
                ops.append(_clt_op(ident, lambda tr, text=text: build(tr, text)[1], B, C))
    for i in range(RANDOM_PAIRS):
        kp = core.random_kraus_pair(np.random.default_rng([seed, 3, i]))
        B, C = kp.B, kp.C
        make = lambda tr, B=B, C=C: tr.call("core.validate_kraus_pair", core.validate_kraus_pair, B, C)  # noqa: E731
        ops += _pair_ops(f"random.{i}", make, B, C, next(sizes), rng)
        if i < 3:
            ops.append(_clt_op(f"random.{i}", make, B, C))
        pairs.append((f"random.{i}", B, C))
    for i in range(4):
        for ident in ("ex1", "ex3", "ex4"):
            ops.append(_closed_form_op(i, ident, next(sizes), rng))
    ops.append(_cut_unfold_op(14, float(rng.uniform(0.2, 0.8))))
    ops.append(_cut_unfold_op(11, float(rng.uniform(0.2, 0.8))))
    for n in ALPHA_N:
        ops.append(_alpha_op(n))
    for i, n in enumerate(LAPLACE_N):
        c, x0 = float(rng.uniform(0.2, 0.5)), float(rng.uniform(-0.5, 0.5))
        f, g = _parabola(c, x0), (np.exp if i % 2 else np.cos)
        expect = functools.cache(lambda f=f, g=g, n=n: ref.laplace_ratio(f, g, -1.0, 1.0, n))
        ops.append(_laplace_op(f"limits.laplace_ratio.{i}", f, g, n, expect, 1e-9))
    ops.append(
        _laplace_op(
            "limits.laplace_ratio.peak_underflow",
            lambda x: 0.5 - 0.5 * x * x,
            np.cos,
            UNDERFLOW_N,
            lambda: 1.0,
            1.0 / UNDERFLOW_N,   # Laplace error of the ratio, about 1/(4n)
            known_fault=True,
        )
    )
    for i, size in enumerate(CSV_SIZES):
        ops.append(_csv_op(i, seeded_law(rng, size)))
    ops.append(_compare_op(seeded_law(rng, 300), seeded_law(rng, 300)))
    for i in range(3):
        ops.append(_random_pair_op(seed, i))
    for label, B, C in pairs[:3] + [(ident, *ref.family_pair(ident, **family_params(rng, ident))) for ident in FAMILIES]:
        ops.append(_validate_op(label, B, C))

    def warmup():
        _, kp = build(NULL, "ex5")
        lattice_law(NULL, kp, HALF, 8)
        dual_law(NULL, kp, HALF, 8)
        closed_law(NULL, catalog.parse_example_spec("ex3"), (0.5, 0.5), 8)
        catalog.cut_unfold_exact((0.5, 0.5), 4)
        limits.clt_params(kp)
        limits.ex5_alpha(10)
        limits.laplace_ratio(np.cos, np.cos, (-1.0, 1.0), 10)
        d = distribution.Distribution({0: 0.5, 2: 0.5})
        distribution.compare(d, distribution.Distribution.from_csv_text(d.to_csv_text()))
        core.random_kraus_pair(np.random.default_rng(0))

    return Workload(ops, warmup)


# ---- sample-cli, trajectory part -------------------------------------------------

MANY_SHORT = (20, 100_000)   # steps, trajectories: 25 chunks of trajectory.sample
FEW_LONG = (1000, 512)       # one chunk


def _sample_op(name, kp, rho0, shape, seed, expect) -> Op:
    n, n_traj = shape

    def check(rep):
        if (rep["n_steps"], rep["n_traj"], rep["seed"]) != (n, n_traj, seed):
            raise checks.CheckError("report does not echo its inputs")
        law = (np.array(rep["distribution"]["x"]), np.array(rep["distribution"]["p"]))
        checks.mass(law[1], 1e-12)
        checks.nonnegative(law[1], 0.0)
        checks.parity(law[0], law[1], n, 0.0)
        checks.empirical(law, expect(), n_traj)
        mean, var = law_moments(law)
        checks.scalar(rep["mean"], mean, 1e-9 * max(1.0, abs(mean)), "mean")
        checks.scalar(rep["variance"], var, 1e-9 * max(1.0, var), "variance")

    return Op(name, lambda tr: sample_report(tr, kp, rho0, n, n_traj, seed), check)


def sample(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 5])
    par3 = family_params(rng, "ex3")
    _, ex5 = build(NULL, "ex5")
    _, ex3 = build(NULL, spec_text("ex3", par3))
    zero = np.diag([1.0, 0.0])
    B5, C5 = ref.family_pair("ex5")
    B3, C3 = ref.family_pair("ex3", **par3)
    ops = [
        _sample_op("trajectory.sample.many_short", ex5, HALF, MANY_SHORT, seed,
                   lambda: ref.dense_law(B5, C5, HALF, MANY_SHORT[0])),
        # from |0><0| the C branch has probability 0 at every step
        _sample_op("trajectory.sample.few_long.ex3", ex3, zero, FEW_LONG, seed + 1,
                   lambda: ref.dense_law(B3, C3, zero, FEW_LONG[0])),
        _sample_op("trajectory.sample.few_long.ex5", ex5, HALF, FEW_LONG, seed + 2,
                   lambda: ref.dense_law(B5, C5, HALF, FEW_LONG[0])),
    ]

    def warmup():
        trajectory.sample(ex5, HALF, 2, 5000, seed)   # two chunks, so the thread pool starts
        trajectory.sample(ex3, zero, 2, 16, seed)

    return Workload(ops, warmup)


# ---- sample-cli, cold CLI part ---------------------------------------------------


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable          # (stdout, files) -> None
    writes: tuple = ()       # files the command writes, by name in the work directory
    reads: tuple = ()        # files it reads


def parse_csv_law(text: str):
    rows = [ln.split(",") for ln in text.strip().splitlines()]
    if rows[0] != ["x", "p"]:
        raise checks.CheckError("CSV header is not x,p")
    return np.array([int(r[0]) for r in rows[1:]], dtype=np.int64), np.array([float(r[1]) for r in rows[1:]])


def cli_commands(seed: int, workdir: Path) -> list[Command]:
    rng = np.random.default_rng([seed, 6])
    par2, par3 = family_params(rng, "ex2"), EX3_LARGE
    spec2, spec3 = spec_text("ex2", par2), spec_text("ex3", par3)
    sample_seed = int(rng.integers(0, 2**31))
    B2, C2 = ref.family_pair("ex2", **par2)
    B3, C3 = ref.family_pair("ex3", **par3)
    B5, C5 = ref.family_pair("ex5")
    ex3_ref = functools.cache(lambda: ref.dense_law(B3, C3, HALF, N_EX3))
    path = lambda name: str(workdir / name)  # noqa: E731

    def check_ex5(out, files):
        checks.exact_law(parse_csv_law(out), 4, ref.dense_law(B5, C5, HALF, 4), 1e-12)

    def check_dual_csv(out, files):
        checks.exact_law(parse_csv_law(files["dual.csv"]), N_EX3, ex3_ref())

    def check_both(out, files):
        rep = json.loads(out)
        checks.scalar(rep["max_abs"], 0.0, checks.ENGINE_TOL, "engine max_abs")
        law = (np.array(rep["distribution"]["x"]), np.array(rep["distribution"]["p"]))
        checks.exact_law(law, 30, ref.dense_law(B2, C2, HALF, 30))

    def check_clt(out, files):
        rep = json.loads(out)
        m, s2 = ref.clt_growth(B2, C2)
        checks.scalar(rep["m"], m, 1e-8, "drift m")
        checks.scalar(rep["sigma2"], s2, 1e-6 * max(1.0, s2), "sigma^2")

    def check_asym(out, files):
        rows = [ln.split(",") for ln in out.strip().splitlines()]
        if rows[0] != ["x", "p", "ratio"] or len(rows) != 14:
            raise checks.CheckError("asym table has the wrong shape")
        alpha = ref.alpha(B5, C5, 600)
        sites, probs = ref.dense_law(B5, C5, HALF, 600)
        exact = dict(zip(sites.tolist(), probs.tolist()))
        for x, p, ratio in rows[1:]:
            checks.scalar(float(p), exact.get(int(x), 0.0), 1e-12, f"p at {x}")
            checks.scalar(float(ratio), float(p) / alpha, 1e-8 * max(1.0, float(p) / alpha), f"ratio at {x}")

    def check_sample(out, files):
        rep = json.loads(out)
        law = (np.array(rep["distribution"]["x"]), np.array(rep["distribution"]["p"]))
        checks.identical(parse_csv_law(files["emp.csv"]), law, "CSV against the JSON report")
        checks.mass(law[1], 1e-12)
        checks.empirical(law, ref.dense_law(B5, C5, HALF, 20), 2000)

    def check_init(out, files):
        cfg = json.loads(files["run.json"])
        ident, _, tail = cfg["kraus"]["example"].partition(":")
        got = {k: float(v) for k, v in (item.split("=") for item in tail.split(","))}
        if (ident, got, cfg["steps"], cfg["method"]) != ("ex3", par3, N_EX3, "lattice"):
            raise checks.CheckError("config does not hold the requested run")
        if cfg["output"]["path"] != path("replay.csv"):
            raise checks.CheckError("config does not hold the result path")

    def check_replay(out, files):
        checks.exact_law(parse_csv_law(files["replay.csv"]), N_EX3, ex3_ref())

    def check_compare(out, files):
        rep = json.loads(out)
        a, b = parse_csv_law(files["dual.csv"]), parse_csv_law(files["replay.csv"])
        lo, hi = -N_EX3, N_EX3
        diff = np.abs(checks.dense(a, lo, hi) - checks.dense(b, lo, hi))
        checks.scalar(rep["max_abs"], float(diff.max()), 1e-15, "max_abs")
        checks.scalar(rep["tv_distance"], float(diff.sum()) / 2, 1e-12, "tv_distance")
        checks.scalar(rep["max_abs"], 0.0, checks.ENGINE_TOL, "lattice against dual")

    return [
        Command("dist.ex5", ["dist", "--example", "ex5", "--steps", "4"], check_ex5),
        Command("dist.dual_csv", ["dist", "--method", "dual", "--example", spec3, "--steps", str(N_EX3),
                                  "--out", path("dual.csv")], check_dual_csv, writes=("dual.csv",)),
        Command("dist.both", ["dist", "--method", "both", "--example", spec2, "--steps", "30"], check_both),
        Command("clt", ["clt", "--example", spec2], check_clt),
        Command("asym", ["asym", "--n", "300", "--window", "6"], check_asym),
        Command("sample", ["sample", "--example", "ex5", "--steps", "20", "--seed", str(sample_seed),
                           "--traj", "2000", "--out", path("emp.csv")], check_sample, writes=("emp.csv",)),
        Command("init_example", ["init-example", spec3, "--steps", str(N_EX3), "--method", "lattice",
                                 "--result", path("replay.csv"), "--out", path("run.json")],
                check_init, writes=("run.json",)),
        Command("dist.config_replay", ["dist", "--config", path("run.json")], check_replay,
                writes=("replay.csv",), reads=("run.json",)),
        Command("compare", ["compare", path("dual.csv"), path("replay.csv")], check_compare,
                reads=("dual.csv", "replay.csv")),
    ]


def _files(workdir: Path, names) -> dict[str, str]:
    return {name: (workdir / name).read_text() for name in names}


def run_cli_child(cmd: Command, workdir: Path, env: dict) -> tuple[str, dict]:
    """One fresh `python -m oqrw.cli` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "oqrw.cli", *cmd.argv],
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout, _files(workdir, cmd.writes + cmd.reads)


def run_cli_inprocess(tr, cmd: Command, workdir: Path) -> tuple[str, dict]:
    """cli.main(argv) in this process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.main", cli.main, cmd.argv)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return buf.getvalue(), _files(workdir, cmd.writes + cmd.reads)


def output_bytes(cmd: Command, result: tuple[str, dict]) -> int:
    out, files = result
    return len(out.encode()) + sum(len(files[name].encode()) for name in cmd.writes)


def cli_cold(seed: int, workdir: Path) -> Workload:
    commands = cli_commands(seed, workdir)
    src = str(Path(catalog.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    ops = [
        Op(f"cli.{c.name}", lambda tr, c=c: run_cli_child(c, workdir, env), lambda out, c=c: c.check(*out))
        for c in commands
    ]
    return Workload(ops, lambda: None)


# ---- the two workloads ---------------------------------------------------------


def _interleave(small: list[Op], large: list[Op]) -> list[Op]:
    """The small operations in order, with the large ones spread evenly among them."""
    step = len(small) // len(large)
    out: list[Op] = []
    for i, op in enumerate(large):
        out += small[i * step:(i + 1) * step] + [op]
    return out + small[len(large) * step:]


def exact(seed: int, workdir: Path) -> Workload:
    """The large laws spread through the small queries: pass_s follows the
    large laws, call_geomean_ms the hundreds of small queries."""
    large, small = exact_large(seed, workdir), exact_small(seed, workdir)

    def warmup():
        large.warmup()
        small.warmup()

    return Workload(_interleave(small.ops, large.ops), warmup, large.cross_check, yardstick=True)


def sample_cli(seed: int, workdir: Path) -> Workload:
    """The trajectory shapes in this process, spread through the cold CLI commands."""
    traj, cold = sample(seed, workdir), cli_cold(seed, workdir)
    return Workload(_interleave(cold.ops, traj.ops), traj.warmup)


# ---- probe for layers a workload does not call --------------------------------

PROBE_MANY_SHORT = (20, 10_000)
PROBE_FEW_LONG = (1000, 128)


def probe_samples(seed: int) -> list[Op]:
    """Reduced trajectory shapes, for the traced runs of workloads that do not sample."""
    _, ex5 = build(NULL, "ex5")
    B5, C5 = ref.family_pair("ex5")
    return [
        _sample_op("trajectory.sample.many_short", ex5, HALF, PROBE_MANY_SHORT, seed,
                   lambda: ref.dense_law(B5, C5, HALF, PROBE_MANY_SHORT[0])),
        _sample_op("trajectory.sample.few_long.ex5", ex5, HALF, PROBE_FEW_LONG, seed,
                   lambda: ref.dense_law(B5, C5, HALF, PROBE_FEW_LONG[0])),
    ]


WORKLOADS = {"exact": exact, "sample-cli": sample_cli}
