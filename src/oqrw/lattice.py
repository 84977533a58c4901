"""Direct density-matrix evolution of the walk on the integer lattice.

The state at time n is the block-diagonal density matrix
rho = sum_x rho_x (x) |x><x|, stored as a window of row-major vec rows: row i
holds vec(rho_{lo+i}). One step sends the block at x to
B rho_{x+1} B* + C rho_{x-1} C*, which on vec rows is two (m, 4) @ (4, 4)
products with core.branch_superoperators written into shifted slices. Blocks
carry their unnormalized trace, which is the site probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    KrausPair,
    branch_superoperators,
    check_size,
    density_matrix,
    devectorize,
    vec_trace,
    vectorize,
)
from .distribution import Distribution, finalize

PRUNE_TRACE = 1e-16


@dataclass(frozen=True)
class LatticeState:
    """Immutable snapshot: first site lo, (m, 4) vec rows, step counter."""

    lo: int
    vecs: np.ndarray
    step_count: int

    def block(self, x: int) -> np.ndarray:
        i = x - self.lo
        if 0 <= i < len(self.vecs):
            return devectorize(self.vecs[i])
        return np.zeros((2, 2), dtype=complex)

    def support(self) -> tuple[int, int]:
        return self.lo, self.lo + len(self.vecs) - 1


def initial_state(rho0, site: int = 0) -> LatticeState:
    """Single validated block rho0 at `site`, step count 0."""
    return LatticeState(site, vectorize(density_matrix(rho0))[np.newaxis].copy(), 0)


def evolve(kp: KrausPair, s0: LatticeState, n: int) -> LatticeState:
    """n applications of the walk map.

    After each step, rows whose trace is below PRUNE_TRACE are zeroed and the
    window is trimmed to the first and last rows that remain. Raises SizeError
    before starting if the final support could exceed core.MAX_SITES sites.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    check_size(len(s0.vecs) + 2 * n, "lattice sites")
    SBt, SCt = (S.T for S in branch_superoperators(kp))
    lo, v = s0.lo, s0.vecs
    for _ in range(n):
        # Row j of the new window is site lo-1+j: B moves row i of v (site
        # lo+i) to row i, C moves it to row i+2.
        m = len(v)
        w = np.zeros((m + 2, 4), dtype=complex)
        w[:m] = v @ SBt
        w[2:] += v @ SCt
        keep = vec_trace(w) >= PRUNE_TRACE
        w[~keep] = 0
        first = int(keep.argmax())
        lo += first - 1
        v = w[first : m + 2 - int(keep[::-1].argmax())]
    return LatticeState(lo, v, s0.step_count + n)


def distribution(s: LatticeState) -> Distribution:
    """Site probabilities p_x = Tr(rho_x), without renormalization, through
    distribution.finalize at n = s.step_count: SumError when the mass has
    drifted from 1 by more than MASS_TOL, and sites below the noise floor
    dropped.
    """
    p = vec_trace(s.vecs)
    return finalize(s.lo + np.arange(len(p)), p, s.step_count)
