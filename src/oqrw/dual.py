"""Distribution of the walk through the dual process and Fourier inversion.

The dual symbol at momentum k is the 4x4 superoperator
S(k) = e^{ik} L_{B*} R_B + e^{-ik} L_{C*} R_C on row-major vecs,
vec(A) = A.reshape(4); applying its n-th power to vec(I) gives Y_n(k), and

    p_x = (1/2pi) integral over (-pi, pi] of e^{ikx} Tr(rho0 Y_n(k)) dk.

The powering runs in real coordinates on the basis V = (E00, E11, s_x, s_y)
of the 2x2 matrices, with Eij = |i><j| and s_x, s_y the Pauli matrices. The
matrix of V, whose column a is vec(V_a), has entries 0, +-1 and +-i, and
the coordinates of X are Tr(V_a* X) / w_a with w = (1, 1, 2, 2), so the
real Heisenberg maps H = Re(V* L V) / w of the two kron factors L are formed
with no rounding but that of the sums, and V* S(k) V / w = e^{ik} H_B +
e^{-ik} H_C. On the diagonal sector {E00, E11} an entry of H is a single
entry of L, as in the computational basis, so the fixed point
I = E00 + E11 of H_B + H_C is kept to the roundoff of single products. (In
Pauli coordinates an entry such as (1 + p)/2 would round, and a weight that
should be exactly 1 would drift by about n eps / 4.) The observable I never
leaves the coordinates that it reaches under H_B and H_C: {E00, E11} for
ex1-ex3, {E00, E11, s_x} for ex5 and for ex4 at theta = 0 or pi,
{E00, E11, s_y} for ex4 at theta = pi/2, and all four for ex4 at any other
theta and for a generic pair. Only that d x d block is powered.

Every step moves the walker by +-1, so p_x = 0 unless x = n (mod 2), and

    psi(k) = e^{-ikn} Tr(rho0 Y_n(k)) = r . T(z)^n e = sum_j c_j z^j,
    T(z) = H_B + z H_C,  z = e^{-2ik},  c_j = p_{-n+2j},

where e = (1, 1, 0, 0) holds the coordinates of I and r_a = Tr(rho0 V_a):
a polynomial of degree n in z with n+1 real coefficients. At the M nodes k_m = pi m / M,
with M >= n+1, psi is the length-M discrete Fourier transform of c, so an
inverse FFT recovers c exactly up to rounding. M is the smallest
2^a 3^b 5^c >= n+1, a fast FFT length. The coefficients are real, so psi at
pi - k is the conjugate of psi at k: only the M/2+1 nodes in [0, pi/2] are
evolved, and a real inverse FFT of length M returns the n+1 weights of the
walk's parity class. A few mirrored nodes in (pi/2, pi) are evolved as well,
to check that symmetry, together with the imaginary parts that the real
inverse FFT drops. `_check_steps` takes n through `core.check_integer` and
bounds the full grid of 2n+2 nodes, which is only the size guard.

The initial state never enters the evolution; it appears only in the final
trace, through r. Each chunk of nodes forms its own indices and phases z, is
powered in one working set of blocks and vectors that the law allocates
once, and is contracted with r before the next chunk starts, so while it
powers a law holds over the whole grid only psi, 16 bytes a node. psi is
freed before the weights are floored, and only the kept sites are formed.
The traced peak of one ex4 law (eps = 0.2, theta = 1.9, d = 4) from I/2 is
3.1 MB, 61 bytes per evolved node, at n = 1e5, in the powering, and 8.0 MB,
32 bytes a node, at n = 499,999, the largest n the size guard lets through,
in the inversion (psi and the real FFT's output).
"""

from __future__ import annotations

import numpy as np

from .core import KrausPair, check_integer, check_size, density_matrix
from .distribution import Distribution, finalize
from .exceptions import ResidueError

SYMMETRY_TOL = 1e-9
SYMMETRY_PROBES = 8
# nodes powered together: a (d, d, 2048) complex base, its square and one
# product term take at most 1.5 MB (d = 4), which stays in a typical core's L2
# cache through the squarings. Of chunks of 1024 to 8192 nodes, 2048 was the
# fastest at n = 1e5 for d = 3 and d = 4 on a 2-CPU Xeon with 2 MB of L2 per
# core; d = 2 ran 20 ms at 2048 and 15 ms at 8192, and 1024 made the ex5 law
# 23 % slower. The three blocks and three (d, 2048) vectors are allocated once
# per law (1.9 MB at d = 4) and reused by every chunk, so beyond them a law
# keeps 16 bytes per evolved node while it powers (psi).
_NODE_CHUNK = 2048
_E = np.array([[1], [1], [0], [0]], dtype=complex)  # e, the coordinates of I
# column a is vec(V_a) for the basis V = (E00, E11, s_x, s_y); the
# coordinates of X are Tr(V_a* X) / w_a with w = (1, 1, 2, 2), and those of
# I are (1, 1, 0, 0). Row-major, vec(A X B) = kron(A, B^T) vec(X), so
# vec(diag(1/w) V* L V) = vec(L) @ _TO_V: each entry of _TO_V is 0, +-1,
# +-1/2, +-i or +-i/2, and the product rounds only the sums.
_V = np.array([[1, 0, 0, 0], [0, 0, 1, -1j], [0, 0, 1, 1j], [0, 1, 0, 0]])
_TO_V = np.kron(_V.conj().T / np.array([1, 1, 2, 2])[:, None], _V.T).T.copy()
# a coupling of the Heisenberg maps counts as real above this fraction of
# their largest entry; the sums that form an entry round by about 2 eps of it
_REACH_RTOL = 4 * np.finfo(float).eps


def _kron_factors(kp: KrausPair) -> np.ndarray:
    """L_{B*} R_B and L_{C*} R_C, i.e. kron(M*, M^T) for M = B, C, stacked as
    shape (2, 4, 4) by one broadcast product: each entry is one product."""
    T = np.array((kp.B, kp.C)).transpose(0, 2, 1)
    return (T.conj()[:, :, None, :, None] * T[:, None, :, None, :]).reshape(2, 4, 4)


def dual_symbol(kp: KrausPair, k) -> np.ndarray:
    """The one-step dual superoperator at momentum k, a 4x4 array.

    For an array of momenta the symbols are stacked: shape k.shape + (4, 4).
    """
    LB, LC = _kron_factors(kp)  # the e^{+ik} factor goes with the B part
    phase = np.exp(1j * np.asarray(k, dtype=float))[..., None, None]
    return phase * LB + LC / phase


def _heisenberg_maps(kp: KrausPair) -> np.ndarray:
    """The real Heisenberg maps (H_B, H_C) of X -> B*XB and X -> C*XC on the
    coordinates of the basis V, shape (2, 4, 4): H = Re(V* L V) / w for the
    kron factors L. Only the sums round, and the entries between E00 and E11
    are single entries of L."""
    return (_kron_factors(kp).reshape(2, 16) @ _TO_V).real.reshape(2, 4, 4)


def _reachable_block(kp: KrausPair) -> tuple[np.ndarray, np.ndarray]:
    """The Heisenberg maps restricted to the coordinates that I = E00 + E11
    reaches under H_B and H_C, shape (2, d, d), and the columns of V for
    those coordinates, shape (4, d), in increasing order: E00 and E11 always
    come first. Coordinate a is reached from b when |H_B[a, b]| + |H_C[a, b]|
    exceeds _REACH_RTOL times the largest such sum; the maps send the span of
    the reached coordinates into itself up to the couplings below that bound."""
    H = _heisenberg_maps(kp)
    # on the 32 entries as Python floats: weight[4a + b] links b to a
    weight = [abs(b) + abs(c) for b, c in zip(*H.reshape(2, 16).tolist())]
    bound = _REACH_RTOL * max(weight)
    from_diagonal = [weight[4 * a] > bound or weight[4 * a + 1] > bound for a in (2, 3)]
    sx = from_diagonal[0] or from_diagonal[1] and weight[11] > bound  # or through s_y
    sy = from_diagonal[1] or from_diagonal[0] and weight[14] > bound  # or through s_x
    if sx and sy:
        return H, _V
    keep = [0, 1] + [a for a, reached in ((2, sx), (3, sy)) if reached]
    return H.take(keep, 1).take(keep, 2), _V.take(keep, 1)


def _check_steps(n: int) -> None:
    check_integer(n, "n", 0)
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


def _power_traces(H: np.ndarray, r: np.ndarray, n: int, step: complex, count: int, tail: np.ndarray) -> np.ndarray:
    """r . T(z)^n e at the points z = e^{step x} for x = 0, 1, ..., count - 1
    and then for each entry x of the 1-d array tail, where T(z) = H[0] + z H[1]
    is a d x d block of _reachable_block and e = (1, 1, 0, ...) the
    coordinates of I; T^n e by square-and-multiply. r has shape (d,) or
    (c, d), and the result (count + len(tail),) or (count + len(tail), c).

    The points are powered _NODE_CHUNK at a time, in structure-of-arrays form:
    a chunk forms its own indices x and phases z, its blocks are one
    contiguous (d, d, m) array, a squaring is d broadcast products summed over
    the inner index, and the chunk stays in cache through all its squarings.
    The vectors accumulate the powers T^(2^i) for the set bits of n; powers
    of one block commute, so the order does not matter. Each chunk's vectors
    are contracted with r before the next chunk starts, so no array over all
    the points holds more than the result. Each point's arithmetic is the
    same for any chunking.
    """
    d = H.shape[1]
    HB, HC = H[..., None]
    total = count + len(tail)
    out = np.empty((total,) + r.shape[:-1], dtype=complex)
    # one working set per law, which every chunk overwrites through the out
    # argument of its products: the blocks base, square and term, and the
    # vectors v, acc and prod. A partial last chunk of m points takes the
    # leading 3 d d m and 3 d m entries, so its views are contiguous too.
    width = min(_NODE_CHUNK, total)
    blocks = np.empty((3, d, d, width), dtype=complex)
    vectors = np.empty((3, d, width), dtype=complex)
    for lo in range(0, total, width):
        m = min(width, total - lo)
        if m < width:
            blocks = blocks.reshape(-1)[: 3 * d * d * m].reshape(3, d, d, m)
            vectors = vectors.reshape(-1)[: 3 * d * m].reshape(3, d, m)
        base, square, term = blocks[0], blocks[1], blocks[2]
        v, acc, prod = vectors[0], vectors[1], vectors[2]
        if lo + m <= count:
            x = np.arange(lo, lo + m)
        elif lo >= count:
            x = tail[lo - count : lo + m - count]
        else:
            x = np.concatenate((np.arange(lo, count), tail[: lo + m - count]))
        np.multiply(np.exp(step * x), HC, base)
        np.add(HB, base, base)
        v[:] = _E[:d]
        bits = n
        while bits:
            if bits & 1:
                np.multiply(base[:, 0], v[0], acc)
                for j in range(1, d):
                    acc += np.multiply(base[:, j], v[j], prod)
                v, acc = acc, v
            bits >>= 1
            if bits:
                np.multiply(base[:, 0, None], base[None, 0], square)
                for j in range(1, d):
                    square += np.multiply(base[:, j, None], base[None, j], term)
                base, square = square, base
        # numpy contracts a C-contiguous (m, d) operand of two rows or more by
        # one matrix-vector kernel whose rounding of a row does not depend on m;
        # a strided operand or a single row (a dot product) rounds differently,
        # so a single point's row is repeated. The blocks are free by now, and
        # their buffer holds the rows.
        rows = blocks.reshape(-1)[: max(m, 2) * d].reshape(-1, d)
        rows[:] = v.T
        out[lo : lo + m] = (rows @ r.T)[:m]
    return out


def dual_power(kp: KrausPair, k: float, n: int) -> np.ndarray:
    """Y_n(k) as a 2x2 matrix."""
    _check_steps(n)
    H, V = _reachable_block(kp)
    # S(k) V = V (e^{ik} H_B + e^{-ik} H_C) = e^{ik} V T(e^{-2ik}), so
    # vec(Y_n) = e^{ikn} V T^n e: the rows of V take the place of r
    y = _power_traces(H, V, n, -2j, 0, np.array([k], dtype=float))[0]
    return (np.exp(1j * k * n) * y).reshape(2, 2)


def _probe_indices(size: int) -> np.ndarray:
    """Node indices m in (0, size/2) whose mirrored nodes pi - k_m are checked:
    at most SYMMETRY_PROBES of them, spread evenly over (0, pi/2)."""
    last = (size - 1) // 2
    if last < 1:
        return np.zeros(0, dtype=np.int64)  # the grid {0, pi/2} has no interior node
    step = (last - 1) / (SYMMETRY_PROBES - 1)
    # a Python set: at small n, linspace and unique cost more than the probes
    return np.array(sorted({round(1 + i * step) for i in range(SYMMETRY_PROBES)}), dtype=np.int64)


def _invert_traces(psi: np.ndarray, mirrored: np.ndarray, probes: np.ndarray, size: int, n: int) -> np.ndarray:
    """Invert the parity-grid samples of psi to site probabilities.

    psi[m] = e^{-ik_m n} Tr(rho0 Y_n(k_m)) at the M/2+1 nodes k_m = pi m / M
    in [0, pi/2], M = size = _grid_size(n); mirrored holds psi at pi - k_m
    for m in probes = _probe_indices(M). Returns the raw weights of the n+1
    sites -n, -n+2, ..., n, roundoff included. Raises ResidueError if a mirrored
    value differs from conj(psi[m]), or psi is not real at k = 0 or (M even)
    at k = pi/2, by more than SYMMETRY_TOL. Negative coefficients are left to
    distribution.finalize.
    """
    real_nodes = psi[:: size // 2] if size % 2 == 0 else psi[:1]  # k = 0 and pi/2, or k = 0
    defect = max(
        float(np.abs(mirrored - psi[probes].conj()).max(initial=0.0)),
        float(np.abs(real_nodes.imag).max()),
    )
    if defect > SYMMETRY_TOL:
        raise ResidueError(f"conjugate-symmetry defect {defect:.3e} exceeds {SYMMETRY_TOL}")
    return np.fft.irfft(psi, size)[: n + 1]


def distribution_via_dual(kp: KrausPair, rho0, n: int) -> Distribution:
    """Exact walk distribution at time n by dual evolution plus inversion,
    checked and floored by distribution.finalize."""
    _check_steps(n)
    rho0 = density_matrix(rho0)
    size = _grid_size(n)
    half = size // 2 + 1
    probes = _probe_indices(size)
    # psi(k) = e^{-ikn} Tr(rho0 Y_n(k)) = r . T(z)^n e at z = e^{-2ik} =
    # e^{-2 pi i m / M} for the node indices m = 0, ..., M/2 and M - probes,
    # with r_a = Tr(rho0 V_a) = vec(rho0^T) . vec(V_a): rho0 enters only
    # through r. psi is freed before finalize runs.
    H, V = _reachable_block(kp)
    psi = _power_traces(H, rho0.T.reshape(4) @ V, n, -2j * np.pi / size, half, size - probes)
    p = _invert_traces(psi[:half], psi[half:], probes, size, n)
    del psi
    return finalize(-n, p, n)


def characteristic_function(kp: KrausPair, rho0, n: int, t, scale: float = 1.0):
    """E[e^{i t X_n / scale}] from the exact distribution.

    t may be a scalar or an array (the distribution is computed once). scale
    is a real number in (0, inf), or ValueError is raised before the law is
    formed.
    """
    if not (isinstance(scale, (int, float, np.integer, np.floating)) and 0 < scale < np.inf):  # NaN fails too
        raise ValueError(f"scale must be positive and finite, not {scale!r}")
    d = distribution_via_dual(kp, rho0, n)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.exp(1j * np.outer(t_arr, d.sites.astype(float) / scale)) @ d.probs
    return complex(vals[0]) if np.isscalar(t) or np.ndim(t) == 0 else vals
