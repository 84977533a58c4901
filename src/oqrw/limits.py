"""Invariant states, central limit parameters, and asymptotic helpers.

The CLT for the walk reads (X_n - nm)/sqrt(n sigma^2) -> N(0, 1) whenever the
channel rho -> B rho B* + C rho C* has a unique invariant state rho_inf. The
drift is

    m = Tr(C rho_inf C*) - Tr(B rho_inf B*)

and the variance involves the solution L of the Poisson equation

    L - (B* L B + C* L C) = C*C - B*B - m I.

Both are solved on the real Pauli coordinates of core: rho_inf is the
eigenvector of the channel matrix M_B + M_C at eigenvalue 1, divided by its
coordinate 0 (the trace), and L solves the real system with I - (M_B + M_C).T,
since the adjoint channel is the transpose of the channel.

`clt_params` packages the whole pipeline behind the uniqueness check;
`solve_poisson` and `clt_variance` are the individual pieces, usable when the
invariant state is degenerate but a particular rho_inf is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .catalog import ExampleSpec, _closed_form_weights, _ex5_gap
from .core import (
    I2,
    KrausPair,
    apply_adjoint_channel,
    apply_channel,
    branch_maps,
    check_integer,
    check_real,
    from_pauli,
    to_pauli,
)
from .exceptions import DegenerateMax, NoInvariantState, NonUniqueInvariant, ParameterError

EIGENVALUE_ONE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
SIMPSON_PANELS = 2**14
ALPHA_GAUSS_NODES = 32
ALPHA_PEAK_PANELS = 64
ALPHA_TAIL_PANELS = 8


@dataclass(frozen=True)
class InvariantReport:
    """Fixed-space diagnosis of the channel."""

    fixed_space_dim: int
    rho_inf: np.ndarray | None
    residual: float | None


@dataclass(frozen=True)
class CltParams:
    rho_inf: np.ndarray
    m: float
    L: np.ndarray
    sigma2: float
    residuals: dict[str, float]


def invariant_states(kp: KrausPair) -> InvariantReport:
    """Diagnose the fixed space of rho -> B rho B* + C rho C*.

    Counts eigenvalues of the real 4x4 channel matrix M_B + M_C of
    core.branch_maps within 1e-9 of 1. When the fixed space is
    one-dimensional the report carries the invariant density matrix and the
    sup-norm residual of the fixed-point equation; otherwise rho_inf is None.
    Raises NoInvariantState when no eigenvalue is near 1, or when the fixed
    vector is not a state to within RESIDUAL_TOL.
    """
    vals, vecs = np.linalg.eig(sum(branch_maps(kp)))
    near_one = np.abs(vals - 1.0) <= EIGENVALUE_ONE_TOL
    dim = int(near_one.sum())
    if dim == 0:
        raise NoInvariantState("channel has no eigenvalue within 1e-9 of 1")
    if dim > 1:
        return InvariantReport(dim, None, None)
    # a real eigenvalue of a real matrix has a real eigenvector
    h = vecs[:, near_one][:, 0].real
    if abs(h[0]) < 1e-12:
        raise NoInvariantState("fixed vector is traceless, not a state")
    h = h / h[0]
    # the smaller eigenvalue of from_pauli(h): roundoff puts a pure state such as ex3's |0><0| at
    # about -1e-15, below the -eps that core.density_matrix allows a start state
    low = (1 - math.hypot(*h[1:])) / 2
    if low < -RESIDUAL_TOL:
        raise NoInvariantState(f"fixed vector is not a state: min eigenvalue {low:.3e}")
    rho = from_pauli(h)
    residual = float(np.max(np.abs(apply_channel(kp, rho) - rho)))
    if residual > RESIDUAL_TOL:
        raise NoInvariantState(f"fixed-point residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return InvariantReport(1, rho, residual)


def drift(kp: KrausPair, rho_inf: np.ndarray) -> float:
    """Mean displacement per step in the stationary regime."""
    B, C = kp
    right = np.trace(C @ rho_inf @ C.conj().T).real
    left = np.trace(B @ rho_inf @ B.conj().T).real
    return float(right - left)


def solve_poisson(kp: KrausPair, rho_inf: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares solution L of L - adjoint_channel(L) = C*C - B*B - m I.

    Returns (m, L) with L Hermitian. The system is singular (the identity is
    always fixed by the adjoint channel) so the minimum-norm solution is
    taken; the variance is invariant under L -> L + c I, making the gauge
    choice irrelevant. When the fixed space is degenerate the equation may be
    inconsistent and the returned L only minimizes the residual; callers that
    care should check it via `poisson_residual`.
    """
    m = drift(kp, rho_inf)
    A = np.eye(4) - sum(branch_maps(kp)).T
    sol, *_ = np.linalg.lstsq(A, to_pauli(_poisson_rhs(kp, m)), rcond=None)
    return m, from_pauli(sol)


def _poisson_rhs(kp: KrausPair, m: float) -> np.ndarray:
    """The right-hand side C*C - B*B - m I of the Poisson equation."""
    B, C = kp
    return C.conj().T @ C - B.conj().T @ B - m * I2


def poisson_residual(kp: KrausPair, L: np.ndarray, m: float) -> float:
    return float(np.max(np.abs(L - apply_adjoint_channel(kp, L) - _poisson_rhs(kp, m))))


def clt_variance(kp: KrausPair, rho_inf: np.ndarray, L: np.ndarray, m: float) -> float:
    """Variance parameter sigma^2 of the CLT.

    sigma^2 = Tr((B rho B* + C rho C*)) - m^2
              + 2 Tr((C rho C* - B rho B*) L) - 2 m Tr(rho L)

    evaluated at rho = rho_inf. Adding c I to L leaves the value unchanged.
    """
    B, C = kp
    b_part = B @ rho_inf @ B.conj().T
    c_part = C @ rho_inf @ C.conj().T
    total = np.trace(b_part + c_part).real
    cross = 2 * np.trace((c_part - b_part) @ L).real
    gauge = 2 * m * np.trace(rho_inf @ L).real
    return float(total - m * m + cross - gauge)


def clt_params(kp: KrausPair) -> CltParams:
    """Drift and diffusion parameters under the uniqueness hypothesis.

    Raises NonUniqueInvariant when the fixed space of the channel is not
    one-dimensional; in that case compute rho_inf by other means and call
    `solve_poisson` / `clt_variance` directly.
    """
    report = invariant_states(kp)
    if report.fixed_space_dim != 1:
        raise NonUniqueInvariant(
            f"fixed space has dimension {report.fixed_space_dim}; "
            "CLT parameters need a unique invariant state"
        )
    rho_inf = report.rho_inf
    m, L = solve_poisson(kp, rho_inf)
    res = poisson_residual(kp, L, m)
    if res > EIGENVALUE_ONE_TOL:
        raise NonUniqueInvariant(f"Poisson equation inconsistent (residual {res:.3e})")
    solvability = abs(np.trace(rho_inf @ _poisson_rhs(kp, m)))
    sigma2 = clt_variance(kp, rho_inf, L, m)
    residuals = {
        "fixed_point": report.residual,
        "poisson": res,
        "solvability": float(solvability),
    }
    return CltParams(rho_inf, m, L, sigma2, residuals)


def laplace_ratio(f, g, interval: tuple[float, float], n: int) -> float:
    """Ratio (integral f^n g) / (integral f^n) by composite Simpson.

    As n grows the ratio converges to g at the maximizer of |f|, provided
    that maximizer is unique in the closed interval. The integrand is
    evaluated on a fixed grid of 2^14 panels; a plateau of near-maximal |f|
    values wider than a few grid points raises DegenerateMax since the limit
    is then a weighted average, not a point value. The interval ends are
    checked by core.check_real. f and g are called on the grid; a scalar
    result stands for that value at every point, and complex or non-finite
    values raise ValueError.
    """
    lo, hi = (check_real(end, "interval ends") for end in interval)
    if not hi > lo:
        raise ValueError("interval must satisfy lo < hi")
    check_integer(n, "n", 0)
    x = np.linspace(lo, hi, SIMPSON_PANELS + 1)
    fx, gx = _on_grid(f, x, "f"), _on_grid(g, x, "g")
    mag = np.abs(fx)
    peak = mag.max()
    if peak == 0:
        raise DegenerateMax("f vanishes identically on the grid")
    near = np.flatnonzero(mag >= peak - 1e-9 * (peak - mag.min() + 1e-300))
    if near[-1] - near[0] != near.size - 1 or near.size > 3:
        raise DegenerateMax(
            f"{near.size} grid points attain the maximum of |f|; "
            "the concentration limit needs an isolated maximizer"
        )
    w = np.ones(SIMPSON_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    fn = (fx / peak) ** n  # scaled by the peak so that f^n cannot underflow
    denom = float(np.sum(w * fn))
    if denom == 0:
        raise DegenerateMax("integral of f^n vanishes on the grid")
    return float(np.sum(w * fn * gx)) / denom


def _on_grid(h, x: np.ndarray, name: str) -> np.ndarray:
    """h(x) as real floats on the grid, a scalar broadcast to every point;
    ValueError for complex values, a shape that does not broadcast to the
    grid's, or a value that is not finite."""
    hx = np.asarray(h(x))
    if np.iscomplexobj(hx):
        raise ValueError(f"{name} has complex values on the grid")
    try:
        hx = np.broadcast_to(hx, x.shape)
    except ValueError:
        raise ValueError(f"{name} has shape {hx.shape}, which does not broadcast to the grid's {x.shape}") from None
    hx = np.asarray(hx, dtype=float)
    if not np.isfinite(hx).all():
        raise ValueError(f"{name} is not finite on the grid")
    return hx


@cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], read-only
    since every caller shares them. Formed on first use and kept: importing
    numpy.polynomial takes about 5 ms of every start of the command line, and
    forming the rule costs about three times one use of it."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def ex5_alpha(n: int) -> float:
    """integral of lambda_1(k)^n over [-pi/2, pi/2].

    lambda_1 is the dominant eigenvalue branch of the dual symbol of the
    (1/sqrt 3)-pair; see `catalog.ex5_lambda1`. Decays like sqrt(9 pi / (4 n)).

    The integrand is even and peaks at k = 0 with a width of about 1/sqrt(n),
    so twice the integral over [0, pi/2] is taken by Gauss-Legendre rules on
    `ALPHA_PEAK_PANELS` panels over [0, min(pi/2, 40/sqrt(n))], where the
    peak lies, and `ALPHA_TAIL_PANELS` panels over the rest; past 40/sqrt(n)
    the integrand is below exp(-700). lambda_1^n is formed as
    exp(n log1p(-gap)) from the gap 1 - lambda_1 of `catalog._ex5_gap`, which
    has no cancellation, so its relative error does not grow with n. An n
    beyond the largest float (about 1.8e308) raises ParameterError.
    """
    check_integer(n, "n", 1)
    cut = min(np.pi / 2, 40 / math.sqrt(check_real(n, "n")))
    edges = np.concatenate(
        [np.linspace(0, cut, ALPHA_PEAK_PANELS + 1), np.linspace(cut, np.pi / 2, ALPHA_TAIL_PANELS + 1)[1:]]
    )
    t, w = _gauss_legendre(ALPHA_GAUSS_NODES)
    half = np.diff(edges)[:, None] / 2
    k = (edges[:-1, None] + half) + half * t
    with np.errstate(over="ignore"):  # near the largest float n overflows the tail's exponent to -inf, a weight of 0
        power = np.exp(n * np.log1p(-_ex5_gap(k)))
    return float(2 * np.sum(half * w * power))


def drift_concentration_check(spec: ExampleSpec, rho0_diag, alpha: float, n: int) -> float:
    """Mass outside the window of radius n^alpha around the ballistic point.

    Takes the arguments of catalog.closed_form, for the lazy-drift family ex3
    only (any other spec raises ParameterError), and sums the tail of its raw
    weights before the noise floor, so the reported tail mass is exact rather
    than truncated. The walk drifts to -n; everything at distance more than
    0.5 * n^alpha from -n is summed, and a window too wide for a float holds
    all the mass. alpha is checked by core.check_real; the rest raise the
    errors of closed_form.
    """
    if spec.id != "ex3":
        raise ParameterError(f"the drift window needs the lazy-drift family ex3, not {spec.id}")
    alpha = check_real(alpha, "alpha")
    weights = _closed_form_weights(spec, rho0_diag, n)  # mass at x = 2i - n, at distance 2i from -n
    if n == 0:
        return 0.0  # all mass sits at the ballistic point
    try:
        window = 0.5 * float(n) ** alpha
    except OverflowError:
        return 0.0
    return float(weights[2 * np.arange(n + 1) > window].sum())
