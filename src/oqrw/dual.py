"""Distribution of the walk through the dual process and Fourier inversion.

The dual symbol at momentum k is the 4x4 superoperator
e^{ik} L_{B*} R_B + e^{-ik} L_{C*} R_C; applying its n-th power to vec(I)
gives Y_n(k), and

    p_x = (1/2pi) integral over (-pi, pi] of e^{ikx} Tr(rho0 Y_n(k)) dk.

Tr(rho0 Y_n(k)) is a trigonometric polynomial of degree at most n, so an
N-point discrete Fourier sum with N = 2n+2 >= 2n+1 evaluates the integral
exactly up to rounding. The coefficients p_x are real, so the trace at 2pi - k
is the conjugate of the trace at k: only the n+2 nodes in [0, pi] are evolved,
and a real inverse FFT recovers p. A few mirrored nodes in (pi, 2pi) are
evolved as well, to check that symmetry. The initial state never enters the
k-evolution; it appears only in the final trace.
"""

from __future__ import annotations

import numpy as np

from .core import I2, KrausPair, check_size, density_matrix, devectorize
from .distribution import Distribution, finalize
from .exceptions import ResidueError

SYMMETRY_TOL = 1e-9
SYMMETRY_PROBES = 8


def dual_symbol(kp: KrausPair, k) -> np.ndarray:
    """The one-step dual superoperator at momentum k, a 4x4 array.

    For an array of momenta the symbols are stacked: shape k.shape + (4, 4).
    """
    B, C = kp
    # L_{B*} R_B = kron(B*, B^T); the e^{+ik} factor goes with the B part.
    phase = np.exp(1j * np.asarray(k, dtype=float))[..., None, None]
    return phase * np.kron(B.conj().T, B.T) + np.kron(C.conj().T, C.T) / phase


def _check_steps(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    check_size(2 * n + 2, "Fourier nodes")


def _power_vecs(symbols: np.ndarray, n: int) -> np.ndarray:
    """vec(Y_n) at every node: the n-th power of each stacked symbol applied
    to vec(I), by square-and-multiply.

    The vectors accumulate the powers S^(2^i) for the set bits of n, one
    matrix-vector product per bit; only the squarings are batched 4x4
    products. Powers of one symbol commute, so the order does not matter.
    """
    v = np.broadcast_to(I2.reshape(4), (symbols.shape[0], 4)).astype(complex)
    base = symbols
    while n:
        if n & 1:
            v = np.einsum("nij,nj->ni", base, v)
        n >>= 1
        if n:
            base = base @ base
    return v


def dual_power(kp: KrausPair, k: float, n: int) -> np.ndarray:
    """Y_n(k) as a 2x2 matrix."""
    _check_steps(n)
    return devectorize(_power_vecs(dual_symbol(kp, [k]), n)[0])


def _probe_indices(n: int) -> np.ndarray:
    """Grid indices j in [1, n] whose mirrored nodes 2pi - k_j are checked:
    at most SYMMETRY_PROBES of them, spread evenly over (0, pi)."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)  # the grid {0, pi} has no interior node
    return np.unique(np.rint(np.linspace(1, n, SYMMETRY_PROBES)).astype(np.int64))


def _invert_traces(phi: np.ndarray, mirrored: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert half-grid samples of the trace polynomial to site probabilities.

    phi[j] = Tr(rho0 Y_n(k_j)) at the n+2 nodes k_j = 2pi j / (2n+2) in
    [0, pi]; mirrored holds the trace at 2pi - k_j for j in _probe_indices(n).
    Returns the raw (sites, p) for x in [-n, n], roundoff included; raises
    ResidueError if a mirrored value differs from conj(phi[j]) by more than
    SYMMETRY_TOL. Negative coefficients are left to distribution.finalize.
    """
    defect = float(np.max(np.abs(mirrored - phi[_probe_indices(n)].conj()), initial=0.0))
    if defect > SYMMETRY_TOL:
        raise ResidueError(f"conjugate-symmetry defect {defect:.3e} exceeds {SYMMETRY_TOL}")
    size = 2 * n + 2
    sites = np.arange(-n, n + 1, dtype=np.int64)
    return sites, np.fft.irfft(phi, size)[np.mod(sites, size)]


def distribution_via_dual(kp: KrausPair, rho0, n: int) -> Distribution:
    """Exact walk distribution at time n by dual evolution plus inversion,
    checked and floored by distribution.finalize."""
    _check_steps(n)
    rho0 = density_matrix(rho0)
    size = 2 * n + 2
    index = np.concatenate([np.arange(n + 2), size - _probe_indices(n)])
    v = _power_vecs(dual_symbol(kp, 2 * np.pi * index / size), n)
    phi = v @ rho0.T.reshape(4)  # Tr(rho0 Y) = vec(rho0^T) . vec(Y)
    return finalize(*_invert_traces(phi[: n + 2], phi[n + 2 :], n), n)


def characteristic_function(kp: KrausPair, rho0, n: int, t, scale: float = 1.0):
    """E[e^{i t X_n / scale}] from the exact distribution.

    t may be a scalar or an array (the distribution is computed once).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    d = distribution_via_dual(kp, rho0, n)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.exp(1j * np.outer(t_arr, d.sites.astype(float) / scale)) @ d.probs
    return complex(vals[0]) if np.isscalar(t) or np.ndim(t) == 0 else vals
