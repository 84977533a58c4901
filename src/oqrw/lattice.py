"""Direct density-matrix evolution of the walk on the integer lattice.

The state at time n is the block-diagonal density matrix
rho = sum_x rho_x (x) |x><x|. A step moves every site by one, so from one
start site all mass lies on sites of one parity: the window holds only those,
as real Pauli coordinate rows (core.to_pauli) of spacing 2, row i holding
rho_{lo+2i}. One step sends the block at x to B rho_{x+1} B* + C rho_{x-1} C*,
which on the rows is v -> v M_B^T into the same row and v M_C^T into the
next one, with core.branch_maps = (M_B, M_C). Blocks carry their unnormalized
trace, coordinate 0, which is the site probability.

The walk advances _BLOCK = 8 steps at a time. Over s steps row i moves to
rows i, ..., i + s with the coefficients K_0, ..., K_s of the matrix
polynomial (M_B^T + z M_C^T)^s, so a block is one (m, 4) @ (4, 4(s + 1))
product and s + 1 shifted slice adds into an (m + s, 4) window. The kernels
of 2, 4 and 8 steps are built by doubling, each the convolution of the one
before with itself; the last block, of n mod 8 steps, takes its kernel from
the pieces of 1, 2 and 4 steps. Once per block, not once per step, a trace
below minus the noise floor of distribution.finalize raises ResidueError,
and rows whose trace falls below PRUNE_TRACE are zeroed and the window
trimmed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import KrausPair, branch_maps, check_integer, check_size, density_matrix, to_pauli
from .distribution import Distribution, finalize, noise_floor
from .exceptions import ResidueError

PRUNE_TRACE = 1e-16
_BLOCK = 8  # steps per block, a power of two: its kernel is built by doubling


@dataclass(frozen=True)
class LatticeState:
    """Immutable snapshot: first site lo, (m, 4) real Pauli rows for the sites
    lo, lo + 2, ..., lo + 2(m - 1), step counter."""

    lo: int
    rows: np.ndarray
    step_count: int


def initial_state(rho0) -> LatticeState:
    """Single validated block rho0 at the origin, step count 0. A start
    elsewhere, or of several sites, is a LatticeState(lo, rows, 0) built by
    the caller, who owns its lo and its rows."""
    return LatticeState(0, to_pauli(density_matrix(rho0))[np.newaxis], 0)


def _convolve(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Coefficients of the matrix polynomial F(z) G(z), each given as its
    (k, 4, 4) stack of coefficients of z^0, z^1, ...

    Row a of the (len F, len F + len G) grid holds the products F_a G_b at
    columns b < len G and zeros after them. Read with rows of one column
    fewer, the same buffer holds F_a G_b at column a + b, so the coefficient
    of z^j is the sum over the rows of column j, added in the order of a."""
    k, m = len(F), len(G)
    FG = np.zeros((k, m + k, 4, 4))
    np.matmul(F[:, np.newaxis], G, out=FG[:, :m])
    return FG.reshape(-1, 4, 4)[: k * (m + k - 1)].reshape(k, m + k - 1, 4, 4).sum(axis=0)


def _side_by_side(K: np.ndarray) -> np.ndarray:
    """The (s + 1, 4, 4) stack K as the (4, 4(s + 1)) matrix [K_0 ... K_s]."""
    return K.transpose(1, 0, 2).reshape(4, -1)


def _block_kernels(kp: KrausPair, n: int) -> list[np.ndarray]:
    """One (4, 4(s + 1)) kernel per block of the n steps: n // _BLOCK blocks
    of _BLOCK steps, then one of n % _BLOCK if that is not 0. Columns
    4j ... 4j + 3 hold K_j, the coefficient of z^j in (M_B^T + z M_C^T)^s."""
    q, r = divmod(n, _BLOCK)
    pieces = [branch_maps(kp).swapaxes(1, 2)]  # kernels of 1, 2, 4, ... steps
    while 1 << len(pieces) <= (_BLOCK if q else r):
        pieces.append(_convolve(pieces[-1], pieces[-1]))
    kernels = [_side_by_side(pieces[-1])] * q
    rest = [piece for bit, piece in enumerate(pieces) if r >> bit & 1]
    if rest:
        kernels.append(_side_by_side(functools.reduce(_convolve, rest)))
    return kernels


def evolve(kp: KrausPair, s0: LatticeState, n: int) -> LatticeState:
    """n applications of the walk map.

    After each block of steps, a row whose trace is below minus the noise
    floor of distribution.finalize at the steps taken so far raises
    ResidueError; then rows whose trace is below PRUNE_TRACE are zeroed and
    the window is trimmed to the first and last rows that remain. Raises
    SizeError before starting if the final support could exceed
    core.MAX_SITES sites, and ValueError before any step if a start row is
    not finite.
    """
    check_integer(n, "n", 0)
    check_size(2 * len(s0.rows) - 1 + 2 * n, "lattice sites")
    if not np.isfinite(s0.rows).all():
        raise ValueError("the start rows hold a value that is not finite")
    lo, v, t = s0.lo, s0.rows, s0.step_count
    for K in _block_kernels(kp, n):
        # Row j of the new window is site lo-s+2j: K_j moves row i of v (site
        # lo+2i) to row i+j.
        m, s = len(v), K.shape[1] // 4 - 1
        moved = (v @ K).reshape(m, s + 1, 4)
        w = np.zeros((m + s, 4))
        for j in range(s + 1):
            w[j : j + m] += moved[:, j]
        t += s
        lowest, floor = float(w[:, 0].min()), noise_floor(t)
        if lowest < -floor:
            raise ResidueError(f"negative trace {lowest:.3e} after step {t}, below the roundoff floor {-floor:.3e}")
        keep = w[:, 0] >= PRUNE_TRACE
        w[~keep] = 0
        first = int(keep.argmax())
        lo += 2 * first - s
        v = w[first : m + s - int(keep[::-1].argmax())]
    return LatticeState(lo, v, s0.step_count + n)


def distribution(s: LatticeState) -> Distribution:
    """Site probabilities p_x = Tr(rho_x), without renormalization, through
    distribution.finalize at n = s.step_count: SumError when the mass has
    drifted from 1 by more than MASS_TOL, and sites below the noise floor
    dropped.
    """
    return finalize(s.lo, s.rows[:, 0], s.step_count)
