"""Named walk families with closed-form distributions and spectral data.

Five parameterized Kraus pairs are provided:

    ex1    diagonal pair, B=diag(1, sqrt(p)), C=diag(0, sqrt(q))
    ex2    unitary-coin pair (U = B + C unitary), a correlated walk
    ex3    lazy drift pair with off-diagonal coupling gamma
    ex4    commuting pair whose law is a mixture of two binomials
    ex5    the (1/sqrt 3) upper/lower triangular pair

ex1/ex3/ex4 have exact finite-sum laws (`closed_form`), whose raw weights
before the noise floor also give limits.drift_concentration_check its ex3
tail. ex5 has an exact combinatorial evaluator (`cut_unfold_distribution`,
integers over 3^n) and explicit dual-symbol eigenvalues (`ex5_spectrum`).
These serve as oracles for the generic engines; the engines never call into
this module or into limits (tests/test_imports.py checks both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import KrausPair, check_integer, check_size, density_matrix, validate_kraus_pair
from .distribution import Distribution, finalize
from .exceptions import ParameterError, SizeError, UnsupportedExample

_DEFAULTS: dict[str, dict[str, float]] = {
    "ex1": {"p": 0.5},
    "ex2": {"p": 0.5, "phi1": 0.0, "phi2": 0.0, "phi3": 0.0},
    "ex3": {"p": 0.5, "gamma": 0.5},
    "ex4": {"eps": 0.2, "theta": 0.0},
    "ex5": {},
}

CUT_UNFOLD_MAX_STEPS = 14
CLOSED_FORM_FAMILIES = ("ex1", "ex3", "ex4")  # the families closed_form has a law for


@dataclass(frozen=True)
class ExampleSpec:
    """A catalog identifier plus parameter overrides."""

    id: str
    params: dict[str, float] = field(default_factory=dict)

    def text(self) -> str:
        if not self.params:
            return self.id
        body = ",".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{self.id}:{body}"


def parse_example_spec(text: str) -> ExampleSpec:
    """Parse 'ex3:p=0.5,gamma=0.4' style strings. The example id, its keys
    and their ranges are checked by _merged_params, as build checks them."""
    ident, _, tail = text.strip().partition(":")
    params: dict[str, float] = {}
    if tail:
        for item in tail.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep:
                raise ParameterError(f"malformed parameter {item!r}; expected key=value")
            try:
                params[key] = float(val)
            except ValueError:
                raise ParameterError(f"parameter {key!r} has non-numeric value {val!r}") from None
    spec = ExampleSpec(ident, params)
    _merged_params(spec)
    return spec


def _merged_params(spec: ExampleSpec) -> dict[str, float]:
    """The parameters of spec over its family's defaults, in the family's
    ranges: build and closed_form both take them from here."""
    allowed = _DEFAULTS.get(spec.id)
    if allowed is None:
        raise ParameterError(f"unknown example {spec.id!r}; expected one of {sorted(_DEFAULTS)}")
    extra = set(spec.params) - set(allowed)
    if extra:
        raise ParameterError(
            f"unknown parameter(s) {sorted(extra)} for {spec.id}; allowed: {sorted(allowed) or 'none'}"
        )
    par = {**allowed, **spec.params}
    if "p" in par and not 0.0 <= par["p"] <= 1.0:
        raise ParameterError(f"p={par['p']} violates 0 <= p <= 1")
    if spec.id == "ex3":
        gamma = par["gamma"]
        cap = min(math.sqrt(2 * par["p"]), math.sqrt(2 * (1.0 - par["p"])))
        if not 0.0 < gamma <= cap:
            raise ParameterError(
                f"gamma={gamma} violates 0 < gamma <= min(sqrt(2p), sqrt(2q)) = {cap:.6g}"
            )
    if spec.id == "ex4":
        eps = par["eps"]
        if not 0.0 < eps <= math.sqrt(0.5):
            raise ParameterError(f"eps={eps} violates 0 < eps <= sqrt(1/2)")
        if not 2 * eps * math.sqrt(0.5 - eps * eps) < 0.5:
            raise ParameterError(f"eps={eps} violates 2*eps*sqrt(1/2 - eps^2) < 1/2")
    return par


def build(spec: ExampleSpec) -> KrausPair:
    """Construct the literal matrices of the requested example."""
    par = _merged_params(spec)
    if spec.id == "ex1":
        p = par["p"]
        B = np.diag([1.0, math.sqrt(p)])
        C = np.diag([0.0, math.sqrt(1.0 - p)])
    elif spec.id == "ex2":
        p = par["p"]
        sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
        f1, f2, f3 = par["phi1"], par["phi2"], par["phi3"]
        # U = B + C is unitary iff the second column is (up to the free
        # phases) the orthogonal complement of the first, which forces the
        # relative sign of c22.
        b11 = sp * np.exp(1j * f1)
        b21 = sq * np.exp(1j * f2)
        c12 = sq * np.exp(1j * f3)
        c22 = -sp * np.exp(1j * (f2 + f3 - f1))
        B = np.array([[b11, 0], [b21, 0]])
        C = np.array([[0, c12], [0, c22]])
    elif spec.id == "ex3":
        p, gamma = par["p"], par["gamma"]
        pt = p - gamma**2 / 2
        qt = (1.0 - p) - gamma**2 / 2
        B = np.array([[1.0, 0.0], [0.0, math.sqrt(max(pt, 0.0))]])
        C = np.array([[0.0, gamma], [0.0, math.sqrt(max(qt, 0.0))]])
    elif spec.id == "ex4":
        eps, theta = par["eps"], par["theta"]
        a = math.sqrt(0.5 - eps * eps)
        off = eps * np.exp(1j * theta)
        B = np.array([[a, off], [off, a]])
        C = np.array([[a, -off], [-off, a]])
    elif spec.id == "ex5":
        r = 1.0 / math.sqrt(3.0)
        B = r * np.array([[1.0, 1.0], [0.0, 1.0]])
        C = r * np.array([[1.0, 0.0], [-1.0, 1.0]])
    else:  # pragma: no cover - guarded by _merged_params
        raise ParameterError(f"unknown example {spec.id!r}")
    return validate_kraus_pair(B, C)


def all_examples() -> list[ExampleSpec]:
    """Default instance of every catalog entry."""
    return [ExampleSpec(ident) for ident in _DEFAULTS]


# -- closed forms ------------------------------------------------------------


def _check_diag(rho0_diag) -> tuple[float, float]:
    a, b = (float(v) for v in rho0_diag)
    if not (a >= 0 and b >= 0 and abs(a + b - 1.0) <= 1e-12):  # written so that NaN fails
        raise ParameterError(f"rho0 diagonal ({a}, {b}) must be nonnegative and sum to 1")
    return a, b


def _diag_of(rho0) -> tuple[float, float]:
    """The diagonal of rho0, checked by core.density_matrix as the engines check it."""
    rho0 = density_matrix(rho0)
    if abs(rho0[0, 1]) > 1e-12 or abs(rho0[1, 0]) > 1e-12:
        raise ParameterError("this method needs a diagonal rho0")
    return float(rho0[0, 0].real), float(rho0[1, 1].real)


def closed_form(spec: ExampleSpec, rho0_diag, n: int) -> Distribution:
    """Exact time-n law for ex1/ex3/ex4 started from diag(a, b) at the origin.

    ex1:  p_x = a [x=-n] + b sum_l C(n,l) p^l q^(n-l) [x=n-2l]
    ex3:  the a-sector sticks at -n; the b-sector walkers that jump after R
          right moves land at 2R + 2 - n, weighted by one binomial tail
    ex4:  equal mixture of Binomial(n, lam+) and Binomial(n, lam-) where
          lam+- = 1/2 +- 2 eps a(eps) cos(theta)

    ex2 and ex5 have no finite closed form here; use the lattice or dual
    engines (or cut_unfold_distribution for ex5). The weights of
    _closed_form_weights pass through distribution.finalize, like the
    engines' laws.
    """
    return finalize(-n, _closed_form_weights(spec, rho0_diag, n), n)


def _closed_form_weights(spec: ExampleSpec, rho0_diag, n: int) -> np.ndarray:
    """The n + 1 raw weights of closed_form, before the floor: entry i is the
    mass at x = 2i - n.

    ex3: a b-sector walker that jumps after R right moves ends at 2R + 2 - n
    at any jump time j. With s = 1 - pt >= gamma^2/2 > 0, the sum over j is
    a tail: sum_j C(j,R) pt^(j-R) qt^R = qt^R s^-(R+1) P(Binomial(n, s) > R).
    """
    par = _merged_params(spec)
    a, b = _check_diag(rho0_diag)
    check_integer(n, "n", 0)
    if spec.id not in CLOSED_FORM_FAMILIES:
        raise UnsupportedExample(f"{spec.id} has no closed-form law; use the engines")
    check_size(n + 1, "closed-form coefficients")
    if n == 0:
        return np.ones(1)

    coeff = np.zeros(n + 1)
    if spec.id == "ex1":
        coeff[0] += a
        coeff += b * _binom_pmf(n, par["p"])[::-1]
    elif spec.id == "ex4":
        eps, theta = par["eps"], par["theta"]
        shift = 2 * eps * math.sqrt(0.5 - eps * eps) * math.cos(theta)
        coeff += (0.5 * _binom_pmf(n, 0.5 + shift) + 0.5 * _binom_pmf(n, 0.5 - shift))[::-1]
    else:
        gamma = par["gamma"]
        pt = par["p"] - gamma**2 / 2
        qt = (1.0 - par["p"]) - gamma**2 / 2
        coeff[0] += a
        s = 1.0 - pt
        tail = np.cumsum(_binom_pmf(n, s)[::-1])[::-1]  # tail[k] = P(Binomial(n, s) >= k)
        coeff[1:] += b * gamma**2 / s * (qt / s) ** np.arange(n) * tail[1:]
        w = pt + qt
        if w > 0:  # the walkers that never jump
            coeff += (b * w**n * _binom_pmf(n, pt / w))[::-1]
    return coeff


def _binom_pmf(j: int, r: float) -> np.ndarray:
    """Binomial(j, r) probabilities of l = 0..j, formed in log space.

    log(pmf_l / pmf_m) is summed outward from the mode m over the log ratios
    log(pmf_(l+1) / pmf_l), which keeps the partial sums small where the mass
    is, and the weights are normalized to sum to 1. The bulk of the law is
    then accurate to a few ulps, and large j neither overflows nor underflows
    where the law has mass.
    """
    x = np.zeros(j + 1)
    if r <= 0.0 or r >= 1.0:
        x[0 if r <= 0.0 else j] = 1.0  # degenerate: log r or log(1 - r) is -inf
        return x
    l = np.arange(j)
    ratio = np.log((j - l) / (l + 1.0)) + (math.log(r) - math.log1p(-r))
    m = min(int((j + 1) * r), j)
    x[m + 1 :] = np.cumsum(ratio[m:])
    x[:m] = -np.cumsum(ratio[:m][::-1])[::-1]
    w = np.exp(x)
    return w / w.sum()


# -- ex5 spectrum ------------------------------------------------------------


@dataclass(frozen=True)
class Ex5Spectrum:
    """Eigendata of the ex5 dual symbol at momentum k.

    xi is the real cube root (2 cos k + sqrt(4 cos^2 k + 1))^(1/3); the
    radicand exceeds 1 for every real k, so no branch handling is needed.
    s = xi - 1/xi lies in [-1, 1]. The four eigenvalues, written through s:

        lam0 = s(s^2+3)/6 = 2cos(k)/3
        lam1 = s(s^2+5)/6
        lam2 = s(s^2+2)/6 + i sqrt(3)/6 sqrt(s^2+4),  lam3 = conj(lam2)

    A holds the gaps lam_j - lam0 for j = 1, 2, 3.
    """

    k: float
    xi: float
    s: float
    u: float
    lam: tuple[complex, complex, complex, complex]
    A: tuple[complex, complex, complex]


def ex5_spectrum(k: float) -> Ex5Spectrum:
    k = float(k)
    u = math.cos(k)
    xi = (2 * u + math.sqrt(4 * u * u + 1)) ** (1.0 / 3.0)
    s = xi - 1.0 / xi
    lam0 = complex(s * (s * s + 3) / 6)
    lam1 = complex(s * (s * s + 5) / 6)
    lam2 = complex(s * (s * s + 2) / 6, math.sqrt(3) / 6 * math.sqrt(s * s + 4))
    lam3 = lam2.conjugate()
    lam = (lam0, lam1, lam2, lam3)
    return Ex5Spectrum(k, xi, s, u, lam, (lam1 - lam0, lam2 - lam0, lam3 - lam0))


def _ex5_gap(k) -> np.ndarray | float:
    """1 - lam1, vectorized over k, without cancellation. As s^3 + 3s = 4u,
    1 - lam1 = (2d + e)/3 with d = 1 - u = 2 sin^2(k/2) and e = 1 - s, and
    e = 4d/(6 - 3e + e^2): one step of that from e0 = 1 - s is good to ulps."""
    u = np.cos(k)
    xi = np.cbrt(2 * u + np.sqrt(4 * u * u + 1))
    e0 = 1 - (xi - 1.0 / xi)
    d = 2 * np.sin(np.asarray(k) / 2) ** 2
    return (2 * d + 4 * d / (6 - 3 * e0 + e0 * e0)) / 3


def ex5_lambda1(k) -> np.ndarray | float:
    """Dominant eigenvalue branch lam1, vectorized over k."""
    return 1 - _ex5_gap(k)


def ex5_power_traces(l: int) -> float:
    """Tr(B*^l B^l) = Tr(C*^l C^l) = (l^2 + 2) / 3^l for the ex5 pair."""
    check_integer(l, "l", 0)
    return (l * l + 2) / 3.0**l


# -- cutting / unfolding -----------------------------------------------------
#
# Expanding the n-th dual power of the ex5 pair gives one term per word in
# B, C. Because B*^m B^m + C*^m C^m = ((m^2+2)/3^m) I, the innermost run of a
# word (m letters) can be either cut away (weight (m^2+2)/3^m) or unfolded
# into the surrounding run with flipped type (weight -1). Repeating until one
# run remains reduces the word to weighted single-power traces: integer
# combinations of a and b over 3^L for a word of length L.
#
# A word of length L with a B innermost run is an (L-1)-bit cut mask: bit t
# marks a run boundary after letter t+1, counted from the outer end. For the
# top set bit t the innermost run has m = L-1-t letters; cutting it leaves the
# length-(t+1) word of mask - 2^t, unfolding it the length-L word with bit t
# cleared, both with a C innermost run. By induction from the single runs, a
# C-innermost word has the swapped pair and the negated displacement of the
# B-innermost word with the same runs, so only B-innermost words are stored:
# one int64 array per length, filled mask range by mask range. That is still
# exponential in n (2^(n-1) words at length n), hence CUT_UNFOLD_MAX_STEPS.


def _cut_unfold_tables(n: int) -> tuple[list, list]:
    """Integer pairs V[L] (shape (2^(L-1), 2), trace (a A + b B)/3^L) and
    displacements D[L] of the B-innermost words of length L = 1..n, indexed
    by cut mask. Index 0 of both lists is unused."""
    V: list = [None]
    D: list = [None]
    for L in range(1, n + 1):
        v = np.empty((1 << (L - 1), 2), dtype=np.int64)
        d = np.empty(1 << (L - 1), dtype=np.int64)
        v[0], d[0] = (1, L * L + 1), -L
        for t in range(L - 1):  # masks [2^t, 2^(t+1)) have top bit t
            m = L - 1 - t
            v[1 << t : 2 << t] = (m * m + 2) * V[t + 1][:, ::-1] - v[: 1 << t, ::-1]
            d[1 << t : 2 << t] = -m - D[t + 1]
        V.append(v)
        D.append(d)
    return V, D


def cut_unfold_exact(rho0_diag, n: int) -> dict[int, Fraction]:
    """Exact rational law at time n, keyed by site."""
    check_integer(n, "n", 0)
    if n > CUT_UNFOLD_MAX_STEPS:
        raise SizeError(f"n={n} exceeds the enumeration bound {CUT_UNFOLD_MAX_STEPS}")
    a, _ = _check_diag(rho0_diag)
    fa = Fraction(a)
    fb = 1 - fa
    if n == 0:
        return {0: Fraction(1)}
    V, D = _cut_unfold_tables(n)
    S = np.zeros((2 * n + 1, 2), dtype=np.int64)  # row x + n: summed pairs at x
    np.add.at(S, D[n] + n, V[n])
    S = S + S[::-1, ::-1]  # the C-innermost words: swapped pairs at -x
    out = {x: (fa * A + fb * B) / 3**n for x, (A, B) in enumerate(S.tolist(), start=-n)}
    return {x: v for x, v in out.items() if v}


def cut_unfold_distribution(rho0_diag, n: int) -> Distribution:
    """The law of cut_unfold_exact in floats, through distribution.finalize:
    dense over the sites -n, -n + 2, ..., n of its parity class, with 0 where
    cut_unfold_exact has no site."""
    exact = cut_unfold_exact(rho0_diag, n)
    return finalize(-n, [float(exact.get(x, 0)) for x in range(-n, n + 1, 2)], n)
