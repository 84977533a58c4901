"""Distribution of the walk through the dual process and Fourier inversion.

The dual symbol at momentum k is the 4x4 superoperator
e^{ik} L_{B*} R_B + e^{-ik} L_{C*} R_C; applying its n-th power to vec(I)
gives Y_n(k), and

    p_x = (1/2pi) integral over (-pi, pi] of e^{ikx} Tr(rho0 Y_n(k)) dk.

Tr(rho0 Y_n(k)) is a trigonometric polynomial of degree at most n, so an
N-point discrete Fourier sum with N >= 2n+1 evaluates the integral exactly up
to rounding. The initial state never enters the k-evolution; it appears only
in the final trace.
"""

from __future__ import annotations

import numpy as np

from .core import I2, MAX_SITES, KrausPair, density_matrix, devectorize
from .distribution import NEGATIVE_TOL, Distribution
from .exceptions import ResidueError, SizeError

IMAG_RESIDUE_TOL = 1e-9


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
    if 2 * n + 2 > MAX_SITES:
        raise SizeError(f"{2 * n + 2} Fourier nodes exceed the limit {MAX_SITES}")


def _power_vecs(symbols: np.ndarray, n: int) -> np.ndarray:
    """vec(Y_n) at every node: the n-th power of each stacked symbol applied
    to vec(I), by square-and-multiply (log n batched matmuls).

    Conjugate symmetry between the k and -k nodes is preserved exactly.
    """
    power = None
    base = symbols
    while n:
        if n & 1:
            power = base if power is None else base @ power
        n >>= 1
        if n:
            base = base @ base
    v = np.broadcast_to(I2.reshape(4), (symbols.shape[0], 4)).astype(complex)
    return v if power is None else np.einsum("nij,nj->ni", power, v)


def dual_power(kp: KrausPair, k: float, n: int) -> np.ndarray:
    """Y_n(k) as a 2x2 matrix."""
    _check_steps(n)
    return devectorize(_power_vecs(dual_symbol(kp, [k]), n)[0])


def _invert_traces(phi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert grid samples of the trace polynomial to site probabilities.

    phi[j] = Tr(rho0 Y_n(k_j)) on the N-point grid. Returns (sites, p) for
    x in [-n, n]; raises ResidueError if any imaginary residue exceeds 1e-9
    or any real coefficient lies below NEGATIVE_TOL.
    """
    coeff = np.fft.ifft(phi)
    sites = np.arange(-n, n + 1, dtype=np.int64)
    p = coeff[np.mod(sites, phi.size)]
    worst = float(np.max(np.abs(p.imag), initial=0.0))
    if worst > IMAG_RESIDUE_TOL:
        raise ResidueError(f"imaginary residue {worst:.3e} exceeds {IMAG_RESIDUE_TOL}")
    lowest = float(np.min(p.real, initial=0.0))
    if lowest < NEGATIVE_TOL:
        raise ResidueError(f"negative coefficient {lowest:.3e} below {NEGATIVE_TOL}")
    return sites, p.real


def distribution_via_dual(kp: KrausPair, rho0, n: int) -> Distribution:
    """Exact walk distribution at time n by dual evolution plus inversion."""
    _check_steps(n)
    rho0 = density_matrix(rho0)
    nodes = 2 * np.pi * np.arange(2 * n + 2) / (2 * n + 2)
    v = _power_vecs(dual_symbol(kp, nodes), n)
    phi = v @ rho0.T.reshape(4)  # Tr(rho0 Y) = vec(rho0^T) . vec(Y)
    sites, p = _invert_traces(phi, n)
    keep = p >= 1e-16
    return Distribution((sites[keep], p[keep]))


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
