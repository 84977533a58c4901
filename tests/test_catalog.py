import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from oqrw import catalog, core
from oqrw.catalog import ExampleSpec
from oqrw.distribution import MASS_TOL, Distribution, compare, noise_floor
from oqrw.exceptions import ParameterError, SizeError, UnsupportedExample
from oqrw.lattice import distribution, evolve, initial_state


def _law(kp, rho0, n):
    return distribution(evolve(kp, initial_state(np.asarray(rho0, dtype=complex)), n))


# ---- parsing and construction ------------------------------------------------


def test_parse_round_trip():
    spec = catalog.parse_example_spec("ex3:p=0.4,gamma=0.6")
    assert spec == ExampleSpec("ex3", {"p": 0.4, "gamma": 0.6})
    assert catalog.parse_example_spec(spec.text()) == spec
    assert catalog.parse_example_spec("ex5").params == {}


@pytest.mark.parametrize(
    "text",
    ["ex9", "ex1:q=0.5", "ex1:p", "ex1:p=abc", "ex2:phi4=1"],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(ParameterError):
        catalog.parse_example_spec(text)


def test_all_examples_cover_catalog():
    ids = [s.id for s in catalog.all_examples()]
    assert ids == ["ex1", "ex2", "ex3", "ex4", "ex5"]
    for spec in catalog.all_examples():
        catalog.build(spec)  # every default instance is a valid pair


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("ex1:p=1.2", "0 <= p <= 1"),
        ("ex3:gamma=0", "min(sqrt(2p), sqrt(2q))"),
        ("ex3:p=0.1,gamma=0.9", "min(sqrt(2p), sqrt(2q))"),
        ("ex4:eps=0.9", "sqrt(1/2)"),
        ("ex4:eps=0.5", "< 1/2"),
    ],
)
def test_build_rejects_out_of_range(text, fragment):
    with pytest.raises(ParameterError, match="violates"):
        try:
            catalog.build(catalog.parse_example_spec(text))
        except ParameterError as err:
            assert fragment in str(err)
            raise


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(0.0, 1.0),
    f1=st.floats(-math.pi, math.pi),
    f2=st.floats(-math.pi, math.pi),
    f3=st.floats(-math.pi, math.pi),
)
def test_ex2_coin_is_unitary(p, f1, f2, f3):
    spec = ExampleSpec("ex2", {"p": p, "phi1": f1, "phi2": f2, "phi3": f3})
    B, C = catalog.build(spec)
    U = B + C
    np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.7, -2.1])
def test_ex4_pair_commutes(theta):
    B, C = catalog.build(ExampleSpec("ex4", {"eps": 0.3, "theta": theta}))
    np.testing.assert_allclose(B @ C, C @ B, atol=1e-14)
    np.testing.assert_allclose(B @ B.conj().T, B.conj().T @ B, atol=1e-14)


# ---- closed forms --------------------------------------------------------


def test_closed_form_trivial_cases():
    spec = ExampleSpec("ex1")
    assert catalog.closed_form(spec, (0.5, 0.5), 0) == catalog.closed_form(spec, (1, 0), 0)
    with pytest.raises(ValueError):
        catalog.closed_form(spec, (0.5, 0.5), -1)
    with pytest.raises(ParameterError):
        catalog.closed_form(spec, (0.5, 0.6), 3)


@pytest.mark.parametrize("ident", ["ex2", "ex5"])
def test_closed_form_unsupported(ident):
    with pytest.raises(UnsupportedExample):
        catalog.closed_form(ExampleSpec(ident), (0.5, 0.5), 3)


@pytest.mark.parametrize(
    "ident,params",
    [
        ("ex1", {"p": 1.5}),
        ("ex1", {"p": -0.5}),
        ("ex4", {"eps": 0.0}),
        ("ex3", {"gamma": 0.0}),
        ("ex4", {"eps": 0.9}),
        ("ex3", {"gamma": 2.0}),
    ],
)
def test_closed_form_refuses_what_build_refuses(ident, params):
    spec = ExampleSpec(ident, params)
    with pytest.raises(ParameterError) as built:
        catalog.build(spec)
    with pytest.raises(ParameterError) as closed:
        catalog.closed_form(spec, (0.5, 0.5), 6)
    assert str(closed.value) == str(built.value)


def test_nan_diagonal_is_refused():
    nan = float("nan")
    with pytest.raises(ParameterError, match="rho0 diagonal"):
        catalog.cut_unfold_exact((nan, nan), 4)
    with pytest.raises(ParameterError, match="rho0 diagonal"):
        catalog.closed_form(ExampleSpec("ex1"), (nan, nan), 4)


def test_ex1_upper_start_sticks():
    d = catalog.closed_form(ExampleSpec("ex1", {"p": 0.3}), (1.0, 0.0), 9)
    assert d.items() == [(-9, 1.0)]


def test_ex1_lower_start_is_binomial():
    n = 12
    d = catalog.closed_form(ExampleSpec("ex1", {"p": 0.5}), (0.0, 1.0), n)
    for l in range(n + 1):
        assert d.prob(n - 2 * l) == pytest.approx(binom.pmf(l, n, 0.5), abs=1e-15)


def test_binom_pmf_matches_scipy():
    # degenerate r included: the log-space form must not warn on log(0)
    with np.errstate(all="raise", under="ignore"):
        for r in (0.0, 1e-9, 0.1, 0.3, 0.5, 0.77, 1.0):
            for j in (0, 1, 2, 12, 100, 999, 3000):
                want = binom.pmf(np.arange(j + 1), j, r)
                assert np.abs(catalog._binom_pmf(j, r) - want).max() <= 1e-13


@pytest.mark.parametrize(
    "text,rho0",
    [
        ("ex1:p=0.3", (0.25, 0.75)),
        ("ex1:p=0", (0.5, 0.5)),
        ("ex3:p=0.4,gamma=0.6", (0.25, 0.75)),
        ("ex3:p=0.5,gamma=1.0", (0.3, 0.7)),  # pt = qt = 0 branch
        ("ex4:eps=0.2", (0.25, 0.75)),
        ("ex4:eps=0.35,theta=1.0471975511965976", (0.6, 0.4)),
    ],
)
def test_closed_forms_match_lattice(text, rho0):
    spec = catalog.parse_example_spec(text)
    kp = catalog.build(spec)
    for n in (1, 2, 5, 11, 20):
        exact = catalog.closed_form(spec, rho0, n)
        engine = _law(kp, np.diag(rho0), n)
        assert compare(exact, engine)["max_abs"] <= 1e-11


EX3_CASES = [(0.5, 0.5), (0.4, 0.6), (0.5, 1.0), (0.99, 0.1), (0.3, 0.2), (0.7, 0.7), (0.1, 0.4)]


def _ex3_double_sum(p, gamma, a, b, n):
    """ex3 law at time n as the sum over the jump time j, in Fractions:
    entry i is the mass at x = 2i - n."""
    g2 = Fraction(gamma) ** 2
    pt, qt = Fraction(p) - g2 / 2, 1 - Fraction(p) - g2 / 2
    ptp = [pt**k for k in range(n + 1)]
    qtp = [qt**k for k in range(n + 1)]
    coeff = [Fraction(0)] * (n + 1)
    coeff[0] += a
    for j in range(n):  # j moves in the b-sector, then the jump
        for R in range(j + 1):  # R of them to the right
            coeff[1 + R] += b * g2 * math.comb(j, R) * ptp[j - R] * qtp[R]
    for R in range(n + 1):  # never jumps
        coeff[R] += b * math.comb(n, R) * ptp[n - R] * qtp[R]
    return coeff


@pytest.mark.parametrize("p,gamma", EX3_CASES)
def test_ex3_tail_form_matches_double_sum(p, gamma):
    a, b = 0.25, 0.75
    for n in (1, 2, 3, 10, 25, 60):
        d = catalog.closed_form(ExampleSpec("ex3", {"p": p, "gamma": gamma}), (a, b), n)
        floor = noise_floor(n)
        for i, exact in enumerate(_ex3_double_sum(p, gamma, Fraction(a), Fraction(b), n)):
            got = d.prob(2 * i - n)
            if got == 0.0:  # dropped by the roundoff floor
                assert exact < floor
            else:
                assert abs(got - float(exact)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(
    p=st.floats(0.01, 0.99),
    frac=st.floats(0.01, 1.0),
    a=st.floats(0.0, 1.0),
    n=st.integers(1, 300),
)
def test_ex3_closed_form_matches_lattice_property(p, frac, a, n):
    gamma = frac * min(math.sqrt(2 * p), math.sqrt(2 * (1.0 - p)))
    spec = ExampleSpec("ex3", {"p": p, "gamma": gamma})
    exact = catalog.closed_form(spec, (a, 1.0 - a), n)
    engine = _law(catalog.build(spec), np.diag([a, 1.0 - a]), n)
    assert compare(exact, engine)["max_abs"] <= 1e-12


def test_ex3_closed_form_near_the_site_limit():
    d = catalog.closed_form(ExampleSpec("ex3"), (0.5, 0.5), 999_999)
    assert abs(d.total() - 1) <= MASS_TOL


def test_ex3_mass_is_conserved_at_large_n():
    d = catalog.closed_form(ExampleSpec("ex3", {"p": 0.5, "gamma": 0.5}), (0.5, 0.5), 300)
    assert d.total() == pytest.approx(1.0, abs=1e-12)


# ---- ex5 spectrum --------------------------------------------------------


def _explicit_symbol(k):
    from oqrw.dual import dual_symbol

    return dual_symbol(catalog.build(ExampleSpec("ex5")), k)


def test_spectrum_at_zero():
    sp = catalog.ex5_spectrum(0.0)
    assert sp.xi == pytest.approx((math.sqrt(5) + 1) / 2, abs=1e-14)
    assert sp.lam[1].real == pytest.approx(1.0, abs=1e-14)
    assert sp.lam[0].real == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_spectrum_at_pi():
    sp = catalog.ex5_spectrum(math.pi)
    assert sp.s == pytest.approx(-1.0, abs=1e-14)
    assert sp.lam[1].real == pytest.approx(-1.0, abs=1e-14)


def _sorted_eigs(arr):
    # sort on rounded keys so that 1e-17 noise cannot reorder coincident parts
    arr = np.asarray(arr, dtype=complex)
    return arr[np.lexsort((np.round(arr.imag, 8), np.round(arr.real, 8)))]


@pytest.mark.parametrize("k", [0.0, 0.3, 1.0, math.pi / 2, 2.5, math.pi])
def test_spectrum_matches_symbol_eigenvalues(k):
    sp = catalog.ex5_spectrum(k)
    got = _sorted_eigs(np.linalg.eigvals(_explicit_symbol(k)))
    want = _sorted_eigs(sp.lam)
    np.testing.assert_allclose(got, want, atol=1e-10)
    # each closed-form eigenvalue annuls the characteristic polynomial
    coeffs = np.poly(_explicit_symbol(k))
    for lam in sp.lam:
        assert abs(np.polyval(coeffs, lam)) <= 1e-10


def test_spectrum_structure():
    for k in (0.2, 1.3, 2.9):
        sp = catalog.ex5_spectrum(k)
        assert sp.lam[3] == sp.lam[2].conjugate()
        assert abs(sp.lam[0]) <= 2.0 / 3.0 + 1e-14
        assert abs(sp.lam[2]) <= math.sqrt(2.0 / 3.0) + 1e-14
        assert sp.A == (sp.lam[1] - sp.lam[0], sp.lam[2] - sp.lam[0], sp.lam[3] - sp.lam[0])


def test_lambda1_antiperiodic():
    ks = np.linspace(-math.pi, math.pi, 41)
    np.testing.assert_allclose(
        catalog.ex5_lambda1(ks + math.pi), -catalog.ex5_lambda1(ks), atol=1e-10
    )


def test_lambda1_vectorized_agrees_with_scalar():
    ks = np.array([0.0, 0.4, 1.7, 3.0])
    scalar = [catalog.ex5_spectrum(k).lam[1].real for k in ks]
    np.testing.assert_allclose(catalog.ex5_lambda1(ks), scalar, atol=1e-13)


def test_lambda1_curvature_at_zero():
    h = 1e-4
    second = (catalog.ex5_lambda1(h) - 2 * catalog.ex5_lambda1(0.0) + catalog.ex5_lambda1(-h)) / h**2
    assert second == pytest.approx(-8.0 / 9.0, abs=1e-5)


def test_power_traces():
    assert catalog.ex5_power_traces(0) == 2.0
    assert catalog.ex5_power_traces(1) == 1.0
    assert catalog.ex5_power_traces(4) == pytest.approx(18.0 / 81.0, abs=1e-15)
    B, C = catalog.build(ExampleSpec("ex5"))
    for l in range(21):
        for M in (B, C):
            Ml = np.linalg.matrix_power(M, l)
            got = np.trace(Ml.conj().T @ Ml).real
            assert abs(got - catalog.ex5_power_traces(l)) <= 1e-12
    with pytest.raises(ValueError):
        catalog.ex5_power_traces(-1)


# ---- cutting / unfolding ---------------------------------------------------


# A word of length L with a B innermost run is an (L-1)-bit cut mask: bit t
# marks a run boundary after letter t+1, counted from the outer end.
# _cut_unfold_tables(n) returns, for L = 1..n, the integer pairs V[L][mask]
# = (A, B), with trace (a A + b B) / 3^L, and the displacements D[L][mask].
# The C-innermost word with the same runs has the swapped pair and the
# negated displacement.

HALF = Fraction(1, 2)


def _trace(pair, n, a, b):
    A, B = pair
    return (a * A + b * B) / 3**n


def _word(L, mask, inner_b):
    """(pair, displacement) of one word of length L, read from the tables."""
    V, D = catalog._cut_unfold_tables(L)
    (A, B), x = V[L][mask].tolist(), int(D[L][mask])
    return ((A, B), x) if inner_b else ((B, A), -x)


def test_displacement_alternates_from_inner_run():
    assert _word(4, 1, False)[1] == 2  # (1, 3)
    assert _word(4, 1, True)[1] == -2
    assert _word(4, 6, True)[1] == -2  # (2, 1, 1)
    assert _word(4, 7, False)[1] == 0  # (1, 1, 1, 1)


def test_tables_match_the_words_letter_by_letter():
    # an independent evaluation: W = M_L ... M_1 with the innermost letter
    # leftmost, in the integer forms B' = [[1,1],[0,1]] and C' = [[1,0],[-1,1]],
    # so that 3^L W*W = W'^T W' and (A, B) is its diagonal
    letters = {True: np.array([[1, 1], [0, 1]]), False: np.array([[1, 0], [-1, 1]])}
    V, D = catalog._cut_unfold_tables(10)
    for L in range(1, 11):
        for mask in range(1 << (L - 1)):
            # letter L is B; the type flips across every set bit
            is_b = [True] * L
            for i in range(L - 2, -1, -1):
                is_b[i] = is_b[i + 1] != bool(mask >> i & 1)
            W = np.eye(2, dtype=np.int64)
            for b in is_b:
                W = letters[b] @ W
            G = W.T @ W
            assert V[L][mask].tolist() == [G[0, 0], G[1, 1]]
            assert D[L][mask] == sum(-1 if b else 1 for b in is_b)


def test_pairs_stay_in_int64_headroom():
    # each pair is 3^L times a diagonal entry of W*W <= I
    V, _ = catalog._cut_unfold_tables(catalog.CUT_UNFOLD_MAX_STEPS)
    for L in range(1, catalog.CUT_UNFOLD_MAX_STEPS + 1):
        assert V[L].dtype == np.int64 and V[L].shape == (1 << (L - 1), 2)
        assert V[L].min() >= 0 and V[L].max() <= 3**L


def test_pairs_sum_to_the_identity():
    # unitality: summed over all 2^L words, the mirror included, W*W sums to I
    V, D = catalog._cut_unfold_tables(catalog.CUT_UNFOLD_MAX_STEPS)
    for L in range(1, catalog.CUT_UNFOLD_MAX_STEPS + 1):
        assert (V[L] + V[L][:, ::-1]).sum(axis=0).tolist() == [3**L, 3**L]
        assert np.all((D[L] + L) % 2 == 0) and np.abs(D[L]).max() <= L


def _ex5_lattice_exact(a, n):
    """Exact ex5 law by the lattice recursion on Fraction 2x2 blocks, with
    B rho B* = 1/3 [[1,1],[0,1]] rho [[1,0],[1,1]] moving left and
    C rho C* = 1/3 [[1,0],[-1,1]] rho [[1,-1],[0,1]] moving right."""

    def mul(X, Y):
        return [[X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in range(2)] for i in range(2)]

    def conj(M, rho):
        return mul(mul(M, rho), [[M[0][0], M[1][0]], [M[0][1], M[1][1]]])

    def add(X, Y):
        return [[X[i][j] + Y[i][j] for j in range(2)] for i in range(2)]

    B, C, zero = [[1, 1], [0, 1]], [[1, 0], [-1, 1]], [[0, 0], [0, 0]]
    fa = Fraction(a)
    blocks = {0: [[fa, Fraction(0)], [Fraction(0), 1 - fa]]}
    for _ in range(n):
        nxt = {}
        for x, rho in blocks.items():
            nxt[x - 1] = add(nxt.get(x - 1, zero), conj(B, rho))
            nxt[x + 1] = add(nxt.get(x + 1, zero), conj(C, rho))
        blocks = {x: [[v / 3 for v in row] for row in rho] for x, rho in nxt.items()}
    law = {x: rho[0][0] + rho[1][1] for x, rho in sorted(blocks.items())}
    return {x: v for x, v in law.items() if v}


@pytest.mark.parametrize("a", [0.0, 0.37, 0.5, 1.0])
def test_cut_unfold_equals_exact_lattice(a):
    for n in range(catalog.CUT_UNFOLD_MAX_STEPS + 1):
        assert catalog.cut_unfold_exact((a, 1.0 - a), n) == _ex5_lattice_exact(a, n)


def test_cut_and_unfold_mechanics():
    # (1, 3) with a B innermost run is mask 1 at L = 4, top bit t = 0, m = 3:
    # cutting the run leaves (1,) with a C innermost run and weight 11/27;
    # unfolding merges it into (4,), again C innermost, with weight -1. Both
    # single runs appear as swaps of the B-innermost pairs (1, 2) and (1, 17).
    a, b = Fraction(1, 3), Fraction(2, 3)
    V, _ = catalog._cut_unfold_tables(4)
    cut, unfolded = tuple(V[1][0, ::-1].tolist()), tuple(V[4][0, ::-1].tolist())
    assert cut == (2, 1) and unfolded == (17, 1)
    pair = tuple(V[4][1].tolist())
    assert pair == (11 * 2 - 17, 11 * 1 - 1)
    val = _trace(pair, 4, a, b)
    assert val == Fraction(11, 27) * _trace(cut, 1, a, b) - _trace(unfolded, 4, a, b)
    assert val == Fraction(25, 243)


def test_worked_contributions_at_n4():
    # the four length-4 words landing at x = -2, evaluated with rho0 = I/2:
    # (1, 3), (1, 1, 2) and (2, 1, 1) with a B innermost run, and (3, 1) with
    # a C innermost run; mirror words land at +2 with the same weights
    cases = {
        (1, True): Fraction(5, 54),
        (4, False): Fraction(5, 54),
        (3, True): Fraction(1, 54),
        (6, True): Fraction(1, 54),
    }
    for (mask, inner_b), expected in cases.items():
        pair, x = _word(4, mask, inner_b)
        assert x == -2
        assert _trace(pair, 4, HALF, HALF) == expected
    assert sum(cases.values()) == Fraction(2, 9)


def test_manual_shortening_equals_evaluator():
    # cut minus unfold, applied once, reduces (1,3) to single runs whose
    # traces are (a + b(l^2+1))/3^l for a B run and the swap for a C run
    a = b = HALF
    trace_c1 = (a * 2 + b) / 3
    trace_c4 = (a * 17 + b) / 81
    manual = Fraction(11, 27) * trace_c1 - trace_c4
    assert manual == _trace(_word(4, 1, True)[0], 4, a, b)


def test_exact_law_at_n4():
    law = catalog.cut_unfold_exact((0.5, 0.5), 4)
    assert law == {
        -4: Fraction(1, 9),
        -2: Fraction(2, 9),
        0: Fraction(3, 9),
        2: Fraction(2, 9),
        4: Fraction(1, 9),
    }


def test_exact_mass_and_symmetry():
    for n in range(11):
        law = catalog.cut_unfold_exact((0.5, 0.5), n)
        assert sum(law.values()) == 1
        assert all(law[x] == law[-x] for x in law)


@pytest.mark.parametrize("a", [0.5, 0.6, 0.8, 0.987654321, 1.0])
def test_swapped_start_mirrors_the_law(a):
    # 1 - a is exact in floating point for a in [1/2, 1], so the two starts
    # are exactly (a, b) and (b, a)
    assert Fraction(1 - a) == 1 - Fraction(a)
    for n in range(catalog.CUT_UNFOLD_MAX_STEPS + 1):
        law = catalog.cut_unfold_exact((a, 1 - a), n)
        swapped = catalog.cut_unfold_exact((1 - a, a), n)
        assert swapped == {-x: v for x, v in law.items()}


def test_exact_law_asymmetric_start_sums_to_one():
    law = catalog.cut_unfold_exact((0.25, 0.75), 9)
    assert sum(law.values()) == 1
    assert any(law[x] != law.get(-x, Fraction(0)) for x in law)


def test_cut_unfold_matches_lattice():
    kp = catalog.build(ExampleSpec("ex5"))
    rho0 = np.diag([0.3, 0.7])
    for n in (1, 2, 3, 6, 10):
        d = catalog.cut_unfold_distribution((0.3, 0.7), n)
        assert compare(d, _law(kp, rho0, n))["max_abs"] <= 1e-11


def test_cut_unfold_distribution_fills_the_parity_class(monkeypatch):
    """cut_unfold_distribution passes finalize a dense array over the sites
    -n, -n + 2, ..., n, with 0 where cut_unfold_exact has no site: the law is
    the one built from the dict's own sites and floats, floored alike."""
    gappy = {-6: Fraction(1, 4), -2: Fraction(1, 2), 4: Fraction(1, 4) - Fraction(1, 10**17), 6: Fraction(1, 10**17)}
    real = catalog.cut_unfold_exact
    for exact_law, n in ((lambda diag, n: gappy, 6), (real, 5), (real, 12)):
        monkeypatch.setattr(catalog, "cut_unfold_exact", exact_law)
        exact = exact_law((0.3, 0.7), n)
        floor = noise_floor(n)
        want = Distribution({x: float(v) for x, v in exact.items() if float(v) >= floor})
        assert catalog.cut_unfold_distribution((0.3, 0.7), n) == want
    assert catalog.cut_unfold_distribution((0.3, 0.7), 6) != Distribution({x: float(v) for x, v in gappy.items()})


def test_cut_unfold_size_guard():
    with pytest.raises(SizeError):
        catalog.cut_unfold_exact((0.5, 0.5), catalog.CUT_UNFOLD_MAX_STEPS + 1)
    with pytest.raises(ValueError):
        catalog.cut_unfold_exact((0.5, 0.5), -1)


def test_closed_form_size_guard(monkeypatch):
    # n + 1 coefficients over the bound: refused before the array is allocated
    monkeypatch.setattr(core, "MAX_SITES", 10)
    for ident in ("ex1", "ex3", "ex4"):
        catalog.closed_form(ExampleSpec(ident), (0.5, 0.5), 9)
        with pytest.raises(SizeError):
            catalog.closed_form(ExampleSpec(ident), (0.5, 0.5), 10)


# ---- ex2 correlated-walk recurrence ------------------------------------------


def test_ex2_diagonal_recurrence():
    # with B supported on the first column and C on the second, the diagonal
    # entries of the site blocks satisfy the two-channel recurrence
    #   p1'(x) = p p1(x+1) + q p2(x-1)
    #   p2'(x) = q p1(x+1) + p p2(x-1)
    p = 0.3
    kp = catalog.build(ExampleSpec("ex2", {"p": p}))
    s = initial_state(np.diag([0.4, 0.6]).astype(complex))
    for _ in range(6):
        nxt = evolve(kp, s, 1)
        old = {s.lo + 2 * i: core.from_pauli(h) for i, h in enumerate(s.rows)}
        zero = np.zeros((2, 2))
        for i, h in enumerate(nxt.rows):
            x = nxt.lo + 2 * i
            p1 = old.get(x + 1, zero)[0, 0].real
            p2 = old.get(x - 1, zero)[1, 1].real
            want = np.array([p * p1 + (1 - p) * p2, (1 - p) * p1 + p * p2])
            got = np.diag(core.from_pauli(h)).real
            np.testing.assert_allclose(got, want, atol=1e-14)
        s = nxt
