"""Direct density-matrix evolution of the walk on the integer lattice.

The state at time n is the block-diagonal density matrix
rho = sum_x rho_x (x) |x><x|, stored as the finite ordered map
site -> positive 2x2 block (sites and blocks in parallel arrays). One step
sends the block at x to B rho_{x+1} B* + C rho_{x-1} C*, with missing
neighbors treated as zero. Blocks carry their unnormalized trace, which is the
site probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_SITES, KrausPair, density_matrix, mat2_from_json, mat2_to_json
from .distribution import Distribution
from .exceptions import SizeError, SumError

PRUNE_TRACE = 1e-16


@dataclass(frozen=True)
class LatticeState:
    """Immutable snapshot: sorted sites, (m, 2, 2) blocks, step counter."""

    sites: np.ndarray
    blocks: np.ndarray
    step_count: int

    def block(self, x: int) -> np.ndarray:
        i = np.searchsorted(self.sites, x)
        if i < self.sites.size and self.sites[i] == x:
            return self.blocks[i]
        return np.zeros((2, 2), dtype=complex)

    def support(self) -> tuple[int, int]:
        return int(self.sites.min()), int(self.sites.max())

    def total_trace(self) -> float:
        return float(np.trace(self.blocks, axis1=1, axis2=2).sum().real)

    def to_json_dict(self) -> dict:
        return {str(int(x)): mat2_to_json(b) for x, b in zip(self.sites, self.blocks)}


def lattice_state_from_json(data: dict, step_count: int = 0) -> LatticeState:
    sites = np.array(sorted(int(k) for k in data), dtype=np.int64)
    blocks = np.stack([mat2_from_json(data[str(int(x))]) for x in sites])
    return LatticeState(sites, blocks, step_count)


def initial_state(rho0, site: int = 0) -> LatticeState:
    """Single validated block rho0 at `site`, step count 0."""
    rho0 = density_matrix(rho0)
    return LatticeState(
        np.array([site], dtype=np.int64),
        rho0[np.newaxis].copy(),
        0,
    )


def step(kp: KrausPair, s: LatticeState) -> LatticeState:
    """One application of the walk map."""
    B, C = kp
    Bd, Cd = B.conj().T, C.conj().T
    left = B[np.newaxis] @ s.blocks @ Bd[np.newaxis]    # lands at site - 1
    right = C[np.newaxis] @ s.blocks @ Cd[np.newaxis]   # lands at site + 1
    lo, hi = s.support()
    grid = np.arange(lo - 1, hi + 2, dtype=np.int64)
    blocks = np.zeros((grid.size, 2, 2), dtype=complex)
    np.add.at(blocks, np.searchsorted(grid, s.sites - 1), left)
    np.add.at(blocks, np.searchsorted(grid, s.sites + 1), right)
    keep = np.trace(blocks, axis1=1, axis2=2).real >= PRUNE_TRACE
    return LatticeState(grid[keep], blocks[keep], s.step_count + 1)


def evolve(kp: KrausPair, s0: LatticeState, n: int) -> LatticeState:
    """n-fold composition of step.

    Raises SizeError before starting if the final support could exceed
    MAX_SITES sites.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if s0.sites.size + 2 * n > MAX_SITES:
        raise SizeError(
            f"support may reach {s0.sites.size + 2 * n} sites, over the limit {MAX_SITES}"
        )
    s = s0
    for _ in range(n):
        s = step(kp, s)
    return s


def distribution(s: LatticeState) -> Distribution:
    """Site probabilities p_x = Tr(rho_x).

    No renormalization; raises SumError when the total mass has drifted from 1
    by more than 1e-8.
    """
    p = np.trace(s.blocks, axis1=1, axis2=2).real
    total = p.sum()
    if abs(total - 1) > 1e-8:
        raise SumError(f"probabilities sum to {total!r}, drift {abs(total - 1):.3e}")
    keep = p > 0
    return Distribution((s.sites[keep], p[keep]))
