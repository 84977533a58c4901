"""Direct density-matrix evolution of the walk on the integer lattice.

The state at time n is the block-diagonal density matrix
rho = sum_x rho_x (x) |x><x|. A step moves every site by one, so from one
start site all mass lies on sites of one parity: the window holds only those,
as real Pauli coordinate rows (core.to_pauli) of spacing 2, row i holding
rho_{lo+2i}. One step sends the block at x to B rho_{x+1} B* + C rho_{x-1} C*,
which on the rows is two (m, 4) @ (4, 4) products with core.branch_maps
written into slices one row apart. Blocks carry their unnormalized trace,
coordinate 0, which is the site probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KrausPair, branch_maps, check_size, density_matrix, to_pauli
from .distribution import Distribution, finalize

PRUNE_TRACE = 1e-16


@dataclass(frozen=True)
class LatticeState:
    """Immutable snapshot: first site lo, (m, 4) real Pauli rows for the sites
    lo, lo + 2, ..., lo + 2(m - 1), step counter."""

    lo: int
    rows: np.ndarray
    step_count: int


def initial_state(rho0, site: int = 0) -> LatticeState:
    """Single validated block rho0 at `site`, step count 0."""
    return LatticeState(site, to_pauli(density_matrix(rho0))[np.newaxis], 0)


def evolve(kp: KrausPair, s0: LatticeState, n: int) -> LatticeState:
    """n applications of the walk map.

    After each step, rows whose trace is below PRUNE_TRACE are zeroed and the
    window is trimmed to the first and last rows that remain. Raises SizeError
    before starting if the final support could exceed core.MAX_SITES sites.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    check_size(2 * len(s0.rows) - 1 + 2 * n, "lattice sites")
    MBt, MCt = (M.T for M in branch_maps(kp))
    lo, v = s0.lo, s0.rows
    for _ in range(n):
        # Row j of the new window is site lo-1+2j: B moves row i of v (site
        # lo+2i) to row i, C moves it to row i+1.
        m = len(v)
        w = np.zeros((m + 1, 4))
        w[:m] = v @ MBt
        w[1:] += v @ MCt
        keep = w[:, 0] >= PRUNE_TRACE
        w[~keep] = 0
        first = int(keep.argmax())
        lo += 2 * first - 1
        v = w[first : m + 1 - int(keep[::-1].argmax())]
    return LatticeState(lo, v, s0.step_count + n)


def distribution(s: LatticeState) -> Distribution:
    """Site probabilities p_x = Tr(rho_x), without renormalization, through
    distribution.finalize at n = s.step_count: SumError when the mass has
    drifted from 1 by more than MASS_TOL, and sites below the noise floor
    dropped.
    """
    p = s.rows[:, 0]
    return finalize(s.lo + 2 * np.arange(len(p)), p, s.step_count)
