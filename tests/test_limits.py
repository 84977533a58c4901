import math

import numpy as np
import pytest

from oqrw import catalog, core, limits
from oqrw.core import I2, KrausPair, apply_channel, random_kraus_pair
from oqrw.exceptions import (
    DegenerateMax,
    NoInvariantState,
    NonUniqueInvariant,
    ParameterError,
    SizeError,
)

from conftest import make_random_pairs


def _pair(text):
    return catalog.build(catalog.parse_example_spec(text))


# ---- invariant states -------------------------------------------------------


def test_invariant_state_ex5():
    rep = limits.invariant_states(_pair("ex5"))
    assert rep.fixed_space_dim == 1
    np.testing.assert_allclose(rep.rho_inf, I2 / 2, atol=1e-12)
    assert rep.residual <= 1e-10


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_invariant_state_ex2(p):
    kp = _pair(f"ex2:p={p}")
    rep = limits.invariant_states(kp)
    assert rep.fixed_space_dim == 1
    fixed = apply_channel(kp, rep.rho_inf)
    np.testing.assert_allclose(fixed, rep.rho_inf, atol=1e-10)
    # the channel wipes out coherences in one step, so rho_inf is diagonal
    assert abs(rep.rho_inf[0, 1]) <= 1e-10


def test_invariant_state_ex3_is_pure_upper():
    rep = limits.invariant_states(_pair("ex3"))
    assert rep.fixed_space_dim == 1
    np.testing.assert_allclose(rep.rho_inf, np.diag([1.0, 0.0]), atol=1e-9)


@pytest.mark.parametrize("text", ["ex1", "ex4", "ex1:p=0.3", "ex4:eps=0.3"])
def test_degenerate_fixed_space_reported(text):
    rep = limits.invariant_states(_pair(text))
    assert rep.fixed_space_dim >= 2
    assert rep.rho_inf is None and rep.residual is None


def test_no_invariant_state():
    dead = KrausPair(np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex))
    with pytest.raises(NoInvariantState):
        limits.invariant_states(dead)


def test_random_pairs_have_invariant_or_degenerate():
    for kp in make_random_pairs(20, seed=7):
        rep = limits.invariant_states(kp)
        if rep.fixed_space_dim == 1:
            assert rep.residual <= 1e-10


# ---- Poisson equation and CLT parameters ------------------------------------


def test_clt_params_ex5():
    out = limits.clt_params(_pair("ex5"))
    assert out.m == pytest.approx(0.0, abs=1e-12)
    assert out.sigma2 == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert max(out.residuals.values()) <= 1e-10
    np.testing.assert_allclose(out.L, out.L.conj().T, atol=1e-12)


def test_clt_params_ex3_degenerate_variance():
    out = limits.clt_params(_pair("ex3"))
    assert out.m == pytest.approx(-1.0, abs=1e-12)
    assert out.sigma2 == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_clt_params_ex2(p):
    out = limits.clt_params(_pair(f"ex2:p={p}"))
    assert out.m == pytest.approx(0.0, abs=1e-10)
    assert out.sigma2 == pytest.approx(p / (1.0 - p), abs=1e-10)


def _moment_growth(kp, n):
    """The growth of the mean and the variance from step n to n + 1 from I/2,
    by the 12x12 moment map on (sum_x rho_x, sum_x x rho_x, sum_x x^2 rho_x)
    in Pauli coordinates. A step sends rho_x to B rho_x B* at x - 1 and to
    C rho_x C* at x + 1, so with S = M_B + M_C and D = M_C - M_B the map is
    [[S, 0, 0], [D, S, 0], [S, 2D, S]]; coordinate 0 is the trace."""
    MB, MC = core.branch_maps(kp)
    S, D, Z = MB + MC, MC - MB, np.zeros((4, 4))
    step = np.block([[S, Z, Z], [D, S, Z], [S, 2 * D, S]])
    mu = np.linalg.matrix_power(step, n) @ np.concatenate([core.to_pauli(I2 / 2), np.zeros(8)])
    (mean0, second0), (mean1, second1) = mu[[4, 8]], (step @ mu)[[4, 8]]
    return mean1 - mean0, (second1 - mean1**2) - (second0 - mean0**2)


def test_clt_params_of_a_slowly_mixing_pair():
    """A random pair whose channel has the second eigenvalue 0.99345: the
    moment growth from I/2 has not settled to 1e-7 by n = 2000 (the variance
    growth is still 5.7e-7 low there), but from n = 4000 on it gives the m and
    sigma^2 of clt_params."""
    kp = random_kraus_pair(np.random.default_rng([2324, 3, 0]))
    MB, MC = core.branch_maps(kp)
    second = sorted(np.abs(np.linalg.eigvals(MB + MC)))[-2]
    assert 0.993 < second < 0.994
    out = limits.clt_params(kp)
    assert out.m == pytest.approx(-0.2057633403, abs=1e-10)
    assert out.sigma2 == pytest.approx(1.16465997, abs=1e-8)
    assert abs(_moment_growth(kp, 2000)[1] - out.sigma2) > 1e-7
    for n in (4000, 5000):
        m, sigma2 = _moment_growth(kp, n)
        assert abs(m - out.m) <= 1e-10
        assert abs(sigma2 - out.sigma2) <= 1e-8


@pytest.mark.parametrize("text", ["ex1", "ex4"])
def test_clt_params_refuses_degenerate(text):
    with pytest.raises(NonUniqueInvariant):
        limits.clt_params(_pair(text))


def test_poisson_residual_small_for_unique_case():
    kp = _pair("ex5")
    rho = limits.invariant_states(kp).rho_inf
    m, L = limits.solve_poisson(kp, rho)
    assert limits.poisson_residual(kp, L, m) <= 1e-12


def test_drift_matches_one_step_mean(ex5_pair, rho_half):
    # for ex5 the invariant state is the initial state, so the drift equals
    # the mean displacement of the very first step
    from oqrw.lattice import distribution, evolve, initial_state

    d = distribution(evolve(ex5_pair, initial_state(rho_half), 1))
    assert limits.drift(ex5_pair, rho_half) == pytest.approx(d.mean(), abs=1e-14)


def test_sigma2_gauge_invariance_catalog():
    for text in ("ex2", "ex5", "ex3:p=0.4,gamma=0.6"):
        kp = _pair(text)
        rho = limits.invariant_states(kp).rho_inf
        m, L = limits.solve_poisson(kp, rho)
        base = limits.clt_variance(kp, rho, L, m)
        for c in (-1.0, 1.0, 10.0):
            shifted = limits.clt_variance(kp, rho, L + c * I2, m)
            assert abs(shifted - base) < 1e-9


def test_sigma2_gauge_invariance_random():
    rng = np.random.default_rng(123)
    for _ in range(5):
        kp = random_kraus_pair(rng)
        rep = limits.invariant_states(kp)
        if rep.fixed_space_dim != 1:
            continue
        m, L = limits.solve_poisson(kp, rep.rho_inf)
        base = limits.clt_variance(kp, rep.rho_inf, L, m)
        for c in (-1.0, 1.0, 10.0):
            assert abs(limits.clt_variance(kp, rep.rho_inf, L + c * I2, m) - base) < 1e-9


def test_ex4_blocks_give_unit_variance():
    # ex4 has a degenerate fixed space and its Poisson equation is genuinely
    # inconsistent: the right-hand side -4*eps*a*X is itself fixed by the
    # channel, so lstsq projects it away entirely and returns L = 0. The
    # residual reports the inconsistency; the variance formula still evaluates.
    kp = _pair("ex4:eps=0.35")
    rho = I2 / 2
    m, L = limits.solve_poisson(kp, rho)
    assert m == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(L, np.zeros((2, 2)), atol=1e-10)
    eps = 0.35
    a = math.sqrt(0.5 - eps * eps)
    assert limits.poisson_residual(kp, L, m) == pytest.approx(4 * eps * a, abs=1e-10)
    assert limits.clt_variance(kp, rho, L, m) == pytest.approx(1.0, abs=1e-10)


# ---- Laplace-type ratio ------------------------------------------------------


def test_laplace_ratio_converges_to_g_at_max():
    f = lambda x: 1.0 - x * x
    g = lambda x: x + 2.0
    r = limits.laplace_ratio(f, g, (-1.0, 1.0), 400)
    assert abs(r - 2.0) < 0.01


def test_laplace_ratio_constant_g_is_exact():
    r = limits.laplace_ratio(np.cos, lambda x: np.ones_like(x), (-1.0, 1.0), 7)
    assert r == pytest.approx(1.0, abs=1e-14)


def test_laplace_ratio_off_center_maximizer():
    f = lambda x: np.cos(x - 0.5)
    g = lambda x: x
    r = limits.laplace_ratio(f, g, (-1.0, 2.0), 3000)
    assert r == pytest.approx(0.5, abs=0.01)


def test_laplace_ratio_peak_below_one_does_not_underflow():
    # f^n underflows to 0 everywhere at n = 2000 unless scaled by its peak
    n = 2000
    r = limits.laplace_ratio(lambda x: 0.5 - 0.5 * x * x, np.cos, (-1.0, 1.0), n)
    assert abs(r - 1.0) < 1.0 / n


def test_laplace_ratio_rejects_two_peaks():
    with pytest.raises(DegenerateMax):
        limits.laplace_ratio(lambda x: np.cos(2 * x), lambda x: x + 2.0, (-np.pi, np.pi), 10)


def test_laplace_ratio_rejects_plateau():
    with pytest.raises(DegenerateMax):
        limits.laplace_ratio(np.ones_like, lambda x: x, (0.0, 1.0), 4)


def test_laplace_ratio_refuses_complex_values():
    with pytest.raises(ValueError, match="f has complex values"):
        limits.laplace_ratio(lambda x: np.cos(x) + 0.1j * x, np.cos, (-1.0, 1.0), 10)
    with pytest.raises(ValueError, match="g has complex values"):
        limits.laplace_ratio(np.cos, lambda x: 1j * x, (-1.0, 1.0), 10)


def test_laplace_ratio_broadcasts_a_scalar_result():
    # a constant f is a plateau whether it comes as a scalar or as an array
    for f in (lambda x: 1.0, np.ones_like):
        with pytest.raises(DegenerateMax):
            limits.laplace_ratio(f, lambda x: x, (0.0, 1.0), 4)
    assert limits.laplace_ratio(np.cos, lambda x: 2.5, (-1.0, 1.0), 7) == pytest.approx(2.5, abs=1e-14)


def test_laplace_ratio_refuses_a_shape_that_does_not_broadcast():
    with pytest.raises(ValueError, match="does not broadcast"):
        limits.laplace_ratio(lambda x: np.ones(3), np.cos, (-1.0, 1.0), 4)
    with pytest.raises(ValueError, match="does not broadcast"):
        limits.laplace_ratio(np.cos, lambda x: np.stack([x, x]), (-1.0, 1.0), 4)


def test_laplace_ratio_rejects_zero_f():
    with pytest.raises(DegenerateMax):
        limits.laplace_ratio(np.zeros_like, lambda x: x, (0.0, 1.0), 2)


def test_laplace_ratio_input_validation():
    f = lambda x: 1.0 - x * x
    g = lambda x: x + 2.0
    with pytest.raises(ValueError):
        limits.laplace_ratio(f, g, (1.0, -1.0), 5)
    with pytest.raises(ValueError):
        limits.laplace_ratio(f, g, (-1.0, 1.0), -2)


@pytest.mark.parametrize(
    "f,g,interval,message",
    [
        (lambda x: np.log(x + 0.5), np.cos, (-1.0, 1.0), "f is not finite"),
        (np.cos, lambda x: np.log(x + 0.5), (-1.0, 1.0), "g is not finite"),
        (np.cos, np.cos, (-np.inf, 1.0), "interval ends must be finite"),
        (np.cos, np.cos, (-1.0, np.inf), "interval ends must be finite"),
    ],
)
def test_laplace_ratio_refuses_non_finite_input(f, g, interval, message):
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(ValueError, match=message):
        limits.laplace_ratio(f, g, interval, 10)


# ---- local-limit scale and drift concentration -------------------------------


def test_ex5_alpha_positive_and_decaying():
    values = [limits.ex5_alpha(n) for n in (2, 8, 32, 128)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ex5_alpha_matches_sqrt_decay():
    # Laplace approximation with lam1(0) = 1 and lam1''(0) = -8/9 gives
    # alpha_n ~ sqrt(2 pi / (n * 8/9)) = sqrt(9 pi / (4 n))
    n = 400
    assert limits.ex5_alpha(n) == pytest.approx(math.sqrt(9 * math.pi / (4 * n)), rel=0.01)


def test_ex5_alpha_near_the_largest_float_gives_no_warning():
    # the tail's exponent overflows to -inf there, which is a weight of 0;
    # the setting of the test suite turns any warning into an error
    assert limits.ex5_alpha(2**1023) == pytest.approx(math.sqrt(9 * math.pi / (4 * 2.0**1023)), rel=1e-12)
    bits = {10: "0x1.a1978602c60bep-1", 600: "0x1.bc5adad832d03p-4", 10**6: "0x1.5c7a7f02f206ep-9"}
    assert {n: limits.ex5_alpha(n).hex() for n in bits} == bits


@pytest.mark.parametrize("n", [1, 2, 8, 32, 128, 600, 4000, 100000])
def test_ex5_alpha_matches_adaptive_quadrature(n):
    from scipy.integrate import quad

    expect, _ = quad(
        lambda k: catalog.ex5_lambda1(k) ** n, -np.pi / 2, np.pi / 2, points=[0.0], epsrel=1e-13, limit=400
    )
    assert limits.ex5_alpha(n) == pytest.approx(expect, rel=1e-11)


@pytest.mark.parametrize("n", [3_000_000, 10_000_000])
def test_ex5_alpha_keeps_the_peak_at_large_n(n):
    # adaptive quadrature over the whole interval misses the peak of width
    # 1/sqrt(n) here; the Laplace asymptote is exact to O(1/n)
    assert limits.ex5_alpha(n) == pytest.approx(math.sqrt(9 * math.pi / (4 * n)), rel=1e-5)


@pytest.mark.parametrize("n", [10**9, 10**11, 10**13, 10**30])
def test_ex5_alpha_stays_on_the_asymptote_at_huge_n(n):
    # the Laplace asymptote is exact to O(1/n); 1 - lambda_1 formed without
    # cancellation keeps the n-th power's error from growing with n, down to
    # a relative 1e-15 of double precision. 10**30 does not fit an int64.
    assert abs(limits.ex5_alpha(n) / math.sqrt(9 * math.pi / (4 * n)) - 1) <= max(1 / n, 1e-15)


def test_ex5_alpha_refuses_an_n_beyond_a_float():
    with pytest.raises(ParameterError, match="too large for a float"):
        limits.ex5_alpha(10**400)
    assert limits.ex5_alpha(600).hex() == "0x1.bc5adad832d03p-4"  # as before the guard


def test_ex5_alpha_requires_positive_n():
    with pytest.raises(ValueError):
        limits.ex5_alpha(0)


def _spec(text):
    return catalog.parse_example_spec(text)


def test_drift_concentration_zero_for_stuck_start():
    assert limits.drift_concentration_check(_spec("ex3"), (1.0, 0.0), 0.5, 40) == 0.0
    # at n = 0 all mass sits at the start, also where pt = qt = 0, for every alpha
    for alpha in (0.5, 0.0, -3.0):
        assert limits.drift_concentration_check(_spec("ex3:p=0.5,gamma=1.0"), (0.5, 0.5), alpha, 0) == 0.0


def test_drift_concentration_decreases():
    masses = [limits.drift_concentration_check(_spec("ex3"), (0.5, 0.5), 1.0, n) for n in (50, 100, 200)]
    assert masses[0] > masses[1] > masses[2]


def test_drift_concentration_is_the_tail_of_the_closed_form():
    # the tail is summed before the floor: the floored law's tail is short of
    # it by at most the mass that closed_form drops
    for text, ab, n in (("ex3", (0.5, 0.5), 200), ("ex3:p=0.4,gamma=0.6", (0.25, 0.75), 63),
                        ("ex3:p=0.9,gamma=0.2", (0.0, 1.0), 1000)):
        spec = _spec(text)
        law = catalog.closed_form(spec, ab, n)
        dropped = 1.0 - law.total()
        for alpha in (0.5, 0.75, 1.0):
            got = limits.drift_concentration_check(spec, ab, alpha, n)
            tail = float(law.probs[law.sites + n > 0.5 * n**alpha].sum())
            assert tail <= got <= tail + abs(dropped) + 1e-15


def test_drift_concentration_keeps_the_exact_tail_below_the_floor():
    # from I/2 at alpha = 1 the floored law would give 3.97e-12 at n = 200
    # and 0 at n = 1000
    spec = _spec("ex3")
    assert limits.drift_concentration_check(spec, (0.5, 0.5), 1.0, 200) == pytest.approx(4.04e-12, rel=1e-2)
    assert limits.drift_concentration_check(spec, (0.5, 0.5), 1.0, 1000) == pytest.approx(1.7e-56, rel=1e-1)


def test_drift_concentration_window_too_wide_for_a_float_holds_all_mass():
    # 10.0 ** 400.0 overflows a float
    assert limits.drift_concentration_check(_spec("ex3"), (0.5, 0.5), 400.0, 10) == 0.0


def test_drift_concentration_refuses_bad_n_and_alpha(monkeypatch):
    spec, ab = _spec("ex3"), (0.5, 0.5)
    with pytest.raises(ValueError, match="n must be >= 0"):
        limits.drift_concentration_check(spec, ab, 0.5, -1)
    with pytest.raises(ValueError, match="alpha"):
        limits.drift_concentration_check(spec, ab, float("nan"), 10)
    # n + 1 coefficients are checked against the bound read at call time
    monkeypatch.setattr(core, "MAX_SITES", 9)
    limits.drift_concentration_check(spec, ab, 0.5, 8)
    with pytest.raises(SizeError):
        limits.drift_concentration_check(spec, ab, 0.5, 9)


@pytest.mark.parametrize("alpha", ["1", None, 1 + 0j])
def test_drift_concentration_refuses_an_alpha_that_is_not_real(alpha):
    with pytest.raises(ParameterError, match="alpha must be a real number"):
        limits.drift_concentration_check(_spec("ex3"), (0.5, 0.5), alpha, 10)


def test_drift_concentration_rejects_wrong_shape():
    for text in ("ex1", "ex5"):
        with pytest.raises(ParameterError, match="ex3"):
            limits.drift_concentration_check(_spec(text), (0.5, 0.5), 1.0, 10)
    with pytest.raises(ParameterError):
        limits.drift_concentration_check(_spec("ex3"), (0.7, 0.7), 1.0, 10)
