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
# nodes powered together: a (4, 4, 2048) complex base, its square and one
# product term take 1.5 MB, which stays in a typical core's L2 cache through
# the squarings; of chunks of 1024 to 4096 nodes, 1536 and 2048 were fastest
# at n = 1e5 on a 2-CPU Xeon with 2 MB of L2 per core
_NODE_CHUNK = 2048


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


def _power_vecs(kp: KrausPair, k: np.ndarray, n: int) -> np.ndarray:
    """vec(Y_n) at each momentum of the 1-d array k, shape (len(k), 4): the
    n-th power of the dual symbol applied to vec(I), by square-and-multiply.

    The nodes are powered _NODE_CHUNK at a time, in structure-of-arrays form:
    a chunk's symbols are one contiguous (4, 4, m) array, a squaring is four
    broadcast products summed over the inner index, and the chunk stays in
    cache through all its squarings. The vectors accumulate the powers
    S^(2^i) for the set bits of n; powers of one symbol commute, so the order
    does not matter. Each node's arithmetic is the same for any chunking.
    """
    out = np.empty((len(k), 4), dtype=complex)
    for lo in range(0, len(k), _NODE_CHUNK):
        base = np.ascontiguousarray(dual_symbol(kp, k[lo : lo + _NODE_CHUNK]).transpose(1, 2, 0))
        square, term = np.empty_like(base), np.empty_like(base)
        v = np.repeat(I2.reshape(4, 1), base.shape[2], axis=1)
        bits = n
        while bits:
            if bits & 1:
                v = base[:, 0] * v[0] + base[:, 1] * v[1] + base[:, 2] * v[2] + base[:, 3] * v[3]
            bits >>= 1
            if bits:
                np.multiply(base[:, 0, None], base[None, 0], out=square)
                for j in range(1, 4):
                    square += np.multiply(base[:, j, None], base[None, j], out=term)
                base, square = square, base
        out[lo : lo + _NODE_CHUNK] = v.T
    return out


def dual_power(kp: KrausPair, k: float, n: int) -> np.ndarray:
    """Y_n(k) as a 2x2 matrix."""
    _check_steps(n)
    return devectorize(_power_vecs(kp, np.array([k], dtype=float), n)[0])


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
    v = _power_vecs(kp, 2 * np.pi * index / size, n)
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
