"""Monte Carlo sampling of the trajectory Markov chain (rho_n, X_n).

Each step evaluates p_B = Tr(B rho B*) and jumps to (B rho B*/p_B, x-1) when
the uniform draw falls below p_B, else to (C rho C*/p_C, x+1). The position
marginal of this chain is exactly the walk distribution.

Randomness is counter-based: trajectory i consumes the stream of
Philox(key=[seed, i]), so results are reproducible bit for bit regardless of
how the trajectories are split into chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KrausPair, branch_superoperators, check_size, density_matrix, vec_trace, vectorize
from .distribution import Distribution
from .exceptions import DegenerateJump

DEGENERATE_TOL = 1e-14
CHUNK = 4096


@dataclass(frozen=True)
class SampleReport:
    n_steps: int
    n_traj: int
    seed: int
    empirical: Distribution
    mean: float
    variance: float

    def to_json_dict(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "n_traj": self.n_traj,
            "seed": self.seed,
            "mean": self.mean,
            "variance": self.variance,
            "distribution": self.empirical.to_json_dict(),
        }


def _run_chunk(kp: KrausPair, rho0: np.ndarray, n_steps: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Final positions of trajectories lo..hi-1, shifted to counts over [-n, n].

    The states are held as row-major vec rows of shape (m, 4) and branch
    through core.branch_superoperators.
    """
    m = hi - lo
    SBt, SCt = (S.T for S in branch_superoperators(kp))
    u = np.empty((m, n_steps))
    for i in range(m):
        u[i] = np.random.Generator(np.random.Philox(key=[seed, lo + i])).random(n_steps)
    v = np.broadcast_to(vectorize(rho0), (m, 4)).copy()
    x = np.zeros(m, dtype=np.int64)
    for t in range(n_steps):
        cand_b = v @ SBt
        cand_c = v @ SCt
        p_b = vec_trace(cand_b)
        p_c = vec_trace(cand_c)
        if np.any((p_b < DEGENERATE_TOL) & (p_c < DEGENERATE_TOL)):
            raise DegenerateJump("both branch probabilities vanish")
        take_b = u[:, t] < p_b
        take_b &= p_b >= DEGENERATE_TOL
        take_b |= p_c < DEGENERATE_TOL
        denom = np.where(take_b, p_b, p_c)
        v = np.where(take_b[:, None], cand_b, cand_c) / denom[:, None]
        v = (v + v[:, [0, 2, 1, 3]].conj()) / 2  # Hermitian part: vec(rho*) permutes 1 and 2
        x += np.where(take_b, -1, 1)
    return np.bincount(x + n_steps, minlength=2 * n_steps + 1)


def sample(kp: KrausPair, rho0, n_steps: int, n_traj: int, seed: int) -> SampleReport:
    """Deterministic Monte Carlo estimate of the time-n distribution."""
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    rho0 = density_matrix(rho0)
    check_size(2 * n_steps + 1, "count bins")
    counts = np.zeros(2 * n_steps + 1, dtype=np.int64)
    for lo in range(0, n_traj, CHUNK):
        counts += _run_chunk(kp, rho0, n_steps, seed, lo, min(lo + CHUNK, n_traj))
    sites = np.arange(-n_steps, n_steps + 1, dtype=np.int64)
    keep = counts > 0
    empirical = Distribution((sites[keep], counts[keep] / n_traj))
    mean = float(sites @ counts) / n_traj
    variance = float((sites.astype(float) ** 2) @ counts) / n_traj - mean * mean
    return SampleReport(n_steps, n_traj, seed, empirical, mean, variance)
