"""Reference results computed apart from the oqrw package.

Nothing here imports oqrw: every law, moment and integral is derived again
from the definition of the walk, with numpy and math only, so that a fault in
one of the package's engines cannot hide in its own reference. All of these
run after the timed passes, outside every metric.

Conventions: a 2x2 block is vectorized row-major, vec(A) = A.reshape(4), so
vec(M A N) = kron(M, N.T) vec(A). B moves the walker one site left, C one
site right. A law is a pair (sites, probs) of numpy arrays sorted by site.
"""

from __future__ import annotations

import math

import numpy as np

SIMPSON_PANELS = 2**14


def family_pair(ident: str, **par) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus pair (B, C) of a catalog family, written out from its definition."""
    if ident == "ex1":
        p = par["p"]
        return np.diag([1.0, math.sqrt(p)]), np.diag([0.0, math.sqrt(1 - p)])
    if ident == "ex2":
        # unitary coin U = B + C: B keeps the first column of U, C the second
        sp, sq = math.sqrt(par["p"]), math.sqrt(1 - par["p"])
        f1, f2, f3 = par["phi1"], par["phi2"], par["phi3"]
        ph = lambda t: complex(math.cos(t), math.sin(t))  # noqa: E731
        B = np.array([[sp * ph(f1), 0], [sq * ph(f2), 0]])
        C = np.array([[0, sq * ph(f3)], [0, -sp * ph(f2 + f3 - f1)]])
        return B, C
    if ident == "ex3":
        g = par["gamma"]
        pt, qt = par["p"] - g * g / 2, 1 - par["p"] - g * g / 2
        return np.diag([1.0, math.sqrt(pt)]), np.array([[0.0, g], [0.0, math.sqrt(qt)]])
    if ident == "ex4":
        a = math.sqrt(0.5 - par["eps"] ** 2)
        e = par["eps"] * complex(math.cos(par["theta"]), math.sin(par["theta"]))
        return np.array([[a, e], [e, a]]), np.array([[a, -e], [-e, a]])
    if ident == "ex5":
        r = 1 / math.sqrt(3)
        return r * np.array([[1.0, 1.0], [0.0, 1.0]]), r * np.array([[1.0, 0.0], [-1.0, 1.0]])
    raise ValueError(f"unknown family {ident!r}")


def branch_superops(B, C) -> tuple[np.ndarray, np.ndarray]:
    """4x4 matrices of rho -> B rho B* and rho -> C rho C* on row-major vec."""
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    return np.kron(B, B.conj()), np.kron(C, C.conj())


def dense_law(B, C, rho0, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Law at time n from rho0 at site 0, by the vec-form recurrence.

    The state at time t lives on the sites -t, -t+2, ..., t as a dense
    (t+1, 4) array; a step is two (m, 4) @ (4, 4) products written into
    shifted slices. Nothing is pruned, so roundoff-sized sites stay in.
    """
    SB, SC = branch_superops(B, C)
    SBt, SCt = SB.T.copy(), SC.T.copy()
    v = np.asarray(rho0, dtype=complex).reshape(1, 4)
    for t in range(n):
        w = np.empty((t + 2, 4), dtype=complex)
        w[:-1] = v @ SBt          # x -> x - 1 keeps the index
        w[-1] = 0
        w[1:] += v @ SCt          # x -> x + 1 moves up one index
        v = w
    return np.arange(-n, n + 1, 2, dtype=np.int64), (v[:, 0] + v[:, 3]).real


def _log_binomial_pmf(n: int, q: float) -> np.ndarray:
    """log P(L = l), L ~ Binomial(n, q), for l = 0..n, through math.lgamma."""
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    l = np.arange(n + 1, dtype=float)
    return lg[n] - lg - lg[::-1] + l * math.log(q) + (n - l) * math.log1p(-q)


def binomial_walk(n: int, q_left: float) -> tuple[np.ndarray, np.ndarray]:
    """Law of a walk that steps left with probability q_left, 0 < q_left < 1."""
    probs = np.exp(_log_binomial_pmf(n, q_left))   # index l = number of left steps
    return np.arange(-n, n + 1, 2, dtype=np.int64), probs[::-1].copy()


def ex1_law(n: int, p: float, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """ex1 from diag(a, b): |0> always steps left, |1> steps left with probability p."""
    sites, probs = binomial_walk(n, p)
    probs = b * probs
    probs[0] += a
    return sites, probs


def ex4_law(n: int, eps: float, theta: float, rho0) -> tuple[np.ndarray, np.ndarray]:
    """ex4 as a mixture of two binomial walks.

    B = a I + e X and C = a I - e X (e = eps e^{i theta}, a = sqrt(1/2 - eps^2))
    share the eigenvectors (1, +-1)/sqrt 2, so the walk splits into two
    classical walks that step left with probability |a +- e|^2, weighted by
    the diagonal of rho0 in that basis.
    """
    a = math.sqrt(0.5 - eps * eps)
    e = eps * complex(math.cos(theta), math.sin(theta))
    rho0 = np.asarray(rho0, dtype=complex)
    sites = np.arange(-n, n + 1, 2, dtype=np.int64)
    probs = np.zeros(n + 1)
    for sign in (1.0, -1.0):
        v = np.array([1.0, sign]) / math.sqrt(2.0)
        weight = float((v @ rho0 @ v).real)
        probs += weight * binomial_walk(n, abs(a + sign * e) ** 2)[1]
    return sites, probs


def moments(B, C, rho0, n: int) -> tuple[float, float]:
    """Exact mean and variance at time n, by powering a 12x12 moment map.

    With M_k(t) = sum_x x^k rho_x(t) and S = S_B + S_C, D = S_C - S_B:
    M0' = S M0, M1' = S M1 + D M0, M2' = S M2 + 2 D M1 + S M0.
    """
    SB, SC = branch_superops(B, C)
    S, D = SB + SC, SC - SB
    Z = np.zeros((4, 4), dtype=complex)
    T = np.block([[S, Z, Z], [D, S, Z], [S, 2 * D, S]])
    start = np.concatenate([np.asarray(rho0, dtype=complex).reshape(4), np.zeros(8)])
    M = np.linalg.matrix_power(T, n) @ start
    mean = (M[4] + M[7]).real
    second = (M[8] + M[11]).real
    return float(mean), float(second - mean * mean)


def clt_growth(B, C, n: int = 4000) -> tuple[float, float]:
    """Drift m and CLT variance sigma^2 as the per-step growth of mean and variance.

    For a channel with a unique invariant state the mean and variance grow
    like m t + c and sigma^2 t + c' up to terms that decay geometrically, so
    the growth from step n to n + 1 gives m and sigma^2 once n is past the
    mixing time. The growth at n/2 must agree, or the reference is refused.
    """
    rho0 = np.eye(2) / 2
    est = []
    for t in (n // 2, n):
        m0, v0 = moments(B, C, rho0, t)
        m1, v1 = moments(B, C, rho0, t + 1)
        est.append((m1 - m0, v1 - v0))
    (ma, sa), (mb, sb) = est
    if abs(ma - mb) > 1e-9 or abs(sa - sb) > 1e-7 * max(1.0, abs(sb)):
        raise ValueError("moment growth has not converged; the pair mixes too slowly")
    return mb, sb


def simpson(values: np.ndarray, h: float) -> float:
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ values) * h / 3.0


def dual_top_eigenvalue(B, C, k: np.ndarray) -> np.ndarray:
    """Largest real part among the eigenvalues of the dual symbol at each k.

    The symbol X -> e^{ik} B* X B + e^{-ik} C* X C is built here on
    column-major vec, vec(M X N) = kron(N.T, M) vec(X); eigenvalues do not
    depend on the vec convention.
    """
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    PB = np.kron(B.T, B.conj().T)
    PC = np.kron(C.T, C.conj().T)
    phase = np.exp(1j * np.asarray(k, dtype=float))[:, None, None]
    return np.linalg.eigvals(phase * PB + PC / phase).real.max(axis=1)


def alpha(B, C, n: int) -> float:
    """Integral of the dominant dual eigenvalue to the n-th power over [-pi/2, pi/2]."""
    k = np.linspace(-np.pi / 2, np.pi / 2, SIMPSON_PANELS + 1)
    lam = dual_top_eigenvalue(B, C, k)
    return simpson(lam**n, np.pi / SIMPSON_PANELS)


def laplace_ratio(f, g, lo: float, hi: float, n: int, panels: int = 256, nodes: int = 16) -> float:
    """(integral f^n g) / (integral f^n) by composite Gauss-Legendre on (f / max|f|)^n."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = (edges[1:] - edges[:-1])[:, None] / 2
    x = ((edges[1:] + edges[:-1])[:, None] / 2 + half * t).ravel()
    weights = (half * w).ravel()
    fx = np.asarray(f(x), dtype=float)
    fn = (fx / np.abs(fx).max()) ** n
    return float(weights @ (fn * g(x))) / float(weights @ fn)
