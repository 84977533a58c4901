"""Distribution of the walk through the dual process and Fourier inversion.

The dual symbol at momentum k is the 4x4 superoperator
e^{ik} L_{B*} R_B + e^{-ik} L_{C*} R_C on row-major vecs, vec(A) = A.reshape(4);
applying its n-th power to vec(I) gives Y_n(k), and

    p_x = (1/2pi) integral over (-pi, pi] of e^{ikx} Tr(rho0 Y_n(k)) dk.

Every step moves the walker by +-1, so p_x = 0 unless x = n (mod 2), and

    psi(k) = e^{-ikn} Tr(rho0 Y_n(k)) = sum_j c_j e^{-2ikj},  c_j = p_{-n+2j},

a polynomial of degree n in e^{-2ik} with n+1 real coefficients. At the M
nodes k_m = pi m / M, with M >= n+1, psi is the length-M discrete Fourier
transform of c, so an inverse FFT recovers c exactly up to rounding. M is the
smallest 2^a 3^b 5^c >= n+1, a fast FFT length. The coefficients are real, so
psi at pi - k is the conjugate of psi at k: only the M/2+1 nodes in [0, pi/2]
are evolved, and a real inverse FFT of length M returns the n+1 weights of the
walk's parity class. A few mirrored nodes in (pi/2, pi) are evolved as well,
to check that symmetry, together with the imaginary parts that the real
inverse FFT drops. The bound of 2n+2 nodes (`_check_steps`) is only the size
guard. The initial state never enters the k-evolution; it appears only in the
final trace.
"""

from __future__ import annotations

import numpy as np

from .core import I2, KrausPair, check_size, density_matrix
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
    # L_{M*} R_M = kron(M*, M^T), formed as one broadcast product; the e^{+ik}
    # factor goes with the B part.
    LB, LC = ((M.conj().T[:, None, :, None] * M.T[None, :, None, :]).reshape(4, 4) for M in kp)
    phase = np.exp(1j * np.asarray(k, dtype=float))[..., None, None]
    return phase * LB + LC / phase


def _check_steps(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    check_size(2 * n + 2, "Fourier nodes")


def _grid_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n + 1: the inversion's FFT length M."""
    target = int(n) + 1
    best = 1 << (target - 1).bit_length()  # the power of 2 >= target
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
    return _power_vecs(kp, np.array([k], dtype=float), n)[0].reshape(2, 2)


def _probe_indices(size: int) -> np.ndarray:
    """Node indices m in (0, size/2) whose mirrored nodes pi - k_m are checked:
    at most SYMMETRY_PROBES of them, spread evenly over (0, pi/2)."""
    last = (size - 1) // 2
    if last < 1:
        return np.zeros(0, dtype=np.int64)  # the grid {0, pi/2} has no interior node
    step = (last - 1) / (SYMMETRY_PROBES - 1)
    # a Python set: at small n, linspace and unique cost more than the probes
    return np.array(sorted({round(1 + i * step) for i in range(SYMMETRY_PROBES)}), dtype=np.int64)


def _invert_traces(psi: np.ndarray, mirrored: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the parity-grid samples of psi to site probabilities.

    psi[m] = e^{-ik_m n} Tr(rho0 Y_n(k_m)) at the M/2+1 nodes k_m = pi m / M
    in [0, pi/2], M = _grid_size(n); mirrored holds psi at pi - k_m for m in
    _probe_indices(M). Returns the raw (sites, p) on the n+1 sites
    -n, -n+2, ..., n, roundoff included. Raises ResidueError if a mirrored
    value differs from conj(psi[m]), or psi is not real at k = 0 or (M even)
    at k = pi/2, by more than SYMMETRY_TOL. Negative coefficients are left to
    distribution.finalize.
    """
    size = _grid_size(n)
    real_nodes = psi[[0, size // 2]] if size % 2 == 0 else psi[:1]
    defect = max(
        float(np.max(np.abs(mirrored - psi[_probe_indices(size)].conj()), initial=0.0)),
        float(np.max(np.abs(real_nodes.imag))),
    )
    if defect > SYMMETRY_TOL:
        raise ResidueError(f"conjugate-symmetry defect {defect:.3e} exceeds {SYMMETRY_TOL}")
    return np.arange(-n, n + 1, 2, dtype=np.int64), np.fft.irfft(psi, size)[: n + 1]


def distribution_via_dual(kp: KrausPair, rho0, n: int) -> Distribution:
    """Exact walk distribution at time n by dual evolution plus inversion,
    checked and floored by distribution.finalize."""
    _check_steps(n)
    rho0 = density_matrix(rho0)
    size = _grid_size(n)
    half = size // 2 + 1
    m = np.concatenate([np.arange(half), size - _probe_indices(size)])
    v = _power_vecs(kp, np.pi * m / size, n)
    # Tr(rho0 Y) = vec(rho0^T) . vec(Y); the phase e^{-ik_m n} is reduced
    # exactly in integers: m n < size (n + 1) <= 2 (n + 1)^2 fits in int64
    psi = (v @ rho0.T.reshape(4)) * np.exp(-1j * np.pi * (m * n % (2 * size)) / size)
    return finalize(*_invert_traces(psi[:half], psi[half:], n), n)


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
