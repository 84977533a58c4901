"""Acceptance checks, one test per criterion.

Each test states its tolerance inline and prints the measured quantities so a
verbose run doubles as a numerical report. Timed criteria use perf_counter
around the minimal body after a warmup call.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oqrw import catalog, dual, lattice, limits, trajectory
from oqrw.catalog import ExampleSpec
from oqrw.core import I2
from oqrw.distribution import compare
from oqrw.exceptions import NonUniqueInvariant

from conftest import brute_force_laws, make_random_pairs

RHO_HALF = np.eye(2, dtype=complex) / 2


def _lattice_law(kp, rho0, n):
    return lattice.distribution(lattice.evolve(kp, lattice.initial_state(rho0), n))


def _dual_law(kp, rho0, n):
    return dual.distribution_via_dual(kp, rho0, n)


def _best_of(fn, repeats=5):
    fn()  # warmup
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_ex5_exact_law_at_n4_under_1ms():
    kp = catalog.build(ExampleSpec("ex5"))
    want = {-4: 1 / 9, -2: 2 / 9, 0: 3 / 9, 2: 2 / 9, 4: 1 / 9}
    errs = {}
    for name, law in (("lattice", _lattice_law), ("dual", _dual_law)):
        d = law(kp, RHO_HALF, 4)
        errs[name] = max(abs(d.prob(x) - p) for x, p in want.items())
        assert sorted(int(x) for x in d.sites) == sorted(want)
        assert errs[name] <= 1e-12
    t_lat = _best_of(lambda: _lattice_law(kp, RHO_HALF, 4))
    t_dual = _best_of(lambda: _dual_law(kp, RHO_HALF, 4))
    print(f"criterion 1: max-abs lattice {errs['lattice']:.3e}, dual {errs['dual']:.3e}; "
          f"best runtimes {t_lat*1e3:.3f} ms / {t_dual*1e3:.3f} ms")
    assert t_lat < 1e-3 and t_dual < 1e-3


def test_criterion_02_engine_equivalence_105_pairs_under_5s():
    pairs = [catalog.build(s) for s in catalog.all_examples()]
    pairs += make_random_pairs(100, seed=2024)
    worst = 0.0
    t0 = time.perf_counter()
    for kp in pairs:
        for n in (1, 5, 12, 30):
            gap = compare(_lattice_law(kp, RHO_HALF, n), _dual_law(kp, RHO_HALF, n))["max_abs"]
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst max-abs {worst:.3e} over {len(pairs)} pairs, {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_brute_force_oracle_matches_both_engines():
    worst = 0.0
    for kp in make_random_pairs(10, seed=404):
        laws = brute_force_laws(kp, RHO_HALF, 12)
        for n in range(1, 13):
            worst = max(worst, compare(laws[n], _lattice_law(kp, RHO_HALF, n))["max_abs"])
            worst = max(worst, compare(laws[n], _dual_law(kp, RHO_HALF, n))["max_abs"])
    print(f"criterion 3: worst deviation from 2^n enumeration {worst:.3e}")
    assert worst <= 1e-11


def test_criterion_04_cut_unfold_exact_and_matches_lattice():
    law4 = catalog.cut_unfold_exact((0.5, 0.5), 4)
    assert law4[4] == Fraction(1, 9)
    assert law4[2] == Fraction(2, 9)
    kp = catalog.build(ExampleSpec("ex5"))
    worst = 0.0
    for n in range(11):
        d = catalog.cut_unfold_distribution((0.5, 0.5), n)
        worst = max(worst, compare(d, _lattice_law(kp, RHO_HALF, n))["max_abs"])
    print(f"criterion 4: P(X4=4)={law4[4]}, P(X4=2)={law4[2]} exactly; "
          f"lattice gap n<=10: {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_05_clt_parameters_three_families():
    got = {}
    out = limits.clt_params(catalog.build(ExampleSpec("ex5")))
    got["ex5"] = (out.m, out.sigma2)
    assert abs(out.m - 0.0) <= 1e-9 and abs(out.sigma2 - 8 / 9) <= 1e-9
    out = limits.clt_params(catalog.build(ExampleSpec("ex3")))
    got["ex3"] = (out.m, out.sigma2)
    assert abs(out.m - (-1.0)) <= 1e-9 and abs(out.sigma2 - 0.0) <= 1e-9
    for p in (0.3, 0.5, 0.7):
        out = limits.clt_params(catalog.build(ExampleSpec("ex2", {"p": p})))
        got[f"ex2:p={p}"] = (out.m, out.sigma2)
        assert abs(out.m - 0.0) <= 1e-9
        assert abs(out.sigma2 - p / (1 - p)) <= 1e-9
    print("criterion 5: " + "; ".join(f"{k} (m, s2)={v}" for k, v in got.items()))


def test_criterion_06_ex1_degeneracy_detected_and_refused():
    kp = catalog.build(ExampleSpec("ex1"))
    report = limits.invariant_states(kp)
    print(f"criterion 6: ex1 fixed-space dimension {report.fixed_space_dim}")
    assert report.fixed_space_dim >= 2
    with pytest.raises(NonUniqueInvariant):
        limits.clt_params(kp)


def test_criterion_07_clt_shape_at_n4000_under_30s():
    kp = catalog.build(ExampleSpec("ex5"))
    n = 4000
    t0 = time.perf_counter()
    d = _dual_law(kp, RHO_HALF, n)
    ratio = d.variance() / n
    ts = np.linspace(-3.0, 3.0, 61)
    phi = dual.characteristic_function(kp, RHO_HALF, n, ts, scale=math.sqrt(n))
    target = np.exp(-(4.0 / 9.0) * ts**2)
    char_err = float(np.max(np.abs(phi - target)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: var/n = {ratio:.6f}, char-fn error {char_err:.3e}, {elapsed:.2f} s")
    assert abs(ratio - 8 / 9) <= 0.02
    assert char_err <= 0.01
    assert elapsed < 30.0


def test_criterion_08_local_limit_ratio_at_n300():
    kp = catalog.build(ExampleSpec("ex5"))
    n = 300
    d = _dual_law(kp, RHO_HALF, 2 * n)
    alpha = limits.ex5_alpha(2 * n)
    center = d.prob(0) / alpha
    odd_worst = max(abs(d.prob(x)) / alpha for x in range(-9, 10, 2))
    print(f"criterion 8: p0/alpha = {center:.6f} (1/pi = {1/math.pi:.6f}), "
          f"worst odd ratio {odd_worst:.3e}")
    assert abs(center - 1 / math.pi) <= 0.05 / math.pi
    assert odd_worst < 1e-3 * (1 / math.pi)


def test_criterion_09_trajectory_tv_and_byte_identical_rerun():
    kp = catalog.build(ExampleSpec("ex5"))
    exact = _dual_law(kp, RHO_HALF, 20)
    rep1 = trajectory.sample(kp, RHO_HALF, 20, 100_000, seed=20240)
    rep2 = trajectory.sample(kp, RHO_HALF, 20, 100_000, seed=20240)
    tv = compare(rep1.empirical, exact)["tv_distance"]
    print(f"criterion 9: TV(empirical, exact) = {tv:.5f}")
    assert tv <= 0.02
    assert rep1.empirical == rep2.empirical
    assert rep1.empirical.to_csv_text().encode() == rep2.empirical.to_csv_text().encode()


def test_criterion_10_sigma2_gauge_invariance():
    cases = {}
    for ident in ("ex2", "ex5"):
        kp = catalog.build(ExampleSpec(ident))
        out = limits.clt_params(kp)
        cases[ident] = (kp, out.rho_inf, out.L, out.m, out.sigma2)
    kp4 = catalog.build(ExampleSpec("ex4"))
    m4, L4 = limits.solve_poisson(kp4, RHO_HALF)
    cases["ex4"] = (kp4, RHO_HALF, L4, m4, limits.clt_variance(kp4, RHO_HALF, L4, m4))
    worst = 0.0
    for ident, (kp, rho, L, m, base) in cases.items():
        for c in (-1.0, 1.0, 10.0):
            shift = abs(limits.clt_variance(kp, rho, L + c * I2, m) - base)
            worst = max(worst, shift)
    print(f"criterion 10: worst sigma2 shift under L -> L + cI: {worst:.3e}")
    assert worst < 1e-9


def test_criterion_11_laplace_ratio_converges():
    f = lambda x: 1.0 - x * x
    g = lambda x: x + 2.0
    r100 = limits.laplace_ratio(f, g, (-1.0, 1.0), 100)
    r1600 = limits.laplace_ratio(f, g, (-1.0, 1.0), 1600)
    print(f"criterion 11: |r(100)-2| = {abs(r100-2):.3e}, |r(1600)-2| = {abs(r1600-2):.3e}")
    assert abs(r1600 - 2.0) < 0.01
    assert abs(r1600 - 2.0) < abs(r100 - 2.0)


def test_criterion_12_closed_forms_and_drift_concentration():
    rho0 = (0.25, 0.75)
    worst = 0.0
    for text in ("ex1:p=0.3", "ex3:p=0.4,gamma=0.6", "ex4:eps=0.2"):
        spec = catalog.parse_example_spec(text)
        kp = catalog.build(spec)
        for n in range(21):
            exact = catalog.closed_form(spec, rho0, n)
            worst = max(worst, compare(exact, _lattice_law(kp, np.diag(rho0), n))["max_abs"])
    assert worst <= 1e-11
    masses = [limits.drift_concentration_check(ExampleSpec("ex3"), (0.5, 0.5), 1.0, n) for n in (50, 100, 200)]
    print(f"criterion 12: closed-form gap {worst:.3e}; tail masses {masses}")
    assert masses[0] > masses[1] > masses[2]
