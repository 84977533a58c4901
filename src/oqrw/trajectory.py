"""Monte Carlo sampling of the trajectory Markov chain (rho_n, X_n).

Each step evaluates p_B = Tr(B rho B*) and jumps to (B rho B*/p_B, x-1) when
the uniform draw falls below p_B, else to (C rho C*/p_C, x+1). The position
marginal of this chain is exactly the walk distribution. The states rho are
held as real Pauli coordinate rows (core.to_pauli), whose coordinate 0 is the
trace.

Randomness is counter-based: trajectory i consumes the stream of Philox with
the 128-bit key [seed, i] (two uint64 words, seed in [0, 2**64)), counter 0,
so results are reproducible bit for bit regardless of how the trajectories are
split into chunks. A stream depends on its key alone, so each chunk builds one
Philox generator and re-keys it per trajectory through the public
`BitGenerator.state` setter instead of constructing a generator per
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import KrausPair, branch_maps, check_size, density_matrix, to_pauli
from .distribution import Distribution
from .exceptions import DegenerateJump, ParameterError

DEGENERATE_TOL = 1e-14
CHUNK = 4096
# steps of uniforms drawn at once, a multiple of the four doubles of a Philox
# block: 128 MiB of draws for a full chunk
STEP_BLOCK = 4096


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


def _uniforms(seed: int, lo: int, hi: int, n_steps: int, start: int = 0) -> np.ndarray:
    """Row i holds doubles start .. start + n_steps - 1 of the stream of
    trajectory lo + i; start is a multiple of 4.

    One Philox generator is re-keyed per trajectory: key [seed, lo + i],
    counter start / 4 and an empty buffer. A Philox block is four doubles, so
    at start 0 this is the state of a fresh Philox(key=[seed, lo + i]) and at
    start 4c it is that state after 4c draws.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([start // 4, 0, 0, 0], dtype=np.uint64),
            "key": np.array([seed, 0], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    key = state["state"]["key"]
    u = np.empty((hi - lo, n_steps))
    for i in range(hi - lo):
        key[1] = lo + i
        bitgen.state = state
        gen.random(n_steps, out=u[i])
    return u


def _run_chunk(kp: KrausPair, rho0: np.ndarray, n_steps: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Final positions of trajectories lo..hi-1, shifted to counts over [-n, n].

    The states are held as Pauli rows of shape (m, 4); one product with the
    (4, 8) matrix [M_B.T | M_C.T] of core.branch_maps gives both candidates,
    whose traces p_B and p_C are columns 0 and 4. The uniforms are drawn
    STEP_BLOCK steps at a time, so a chunk holds at most CHUNK x STEP_BLOCK
    draws whatever n_steps is.
    """
    m = hi - lo
    both = np.hstack([M.T for M in branch_maps(kp)])
    v = np.broadcast_to(to_pauli(rho0), (m, 4))
    x = np.zeros(m, dtype=np.int64)
    for t in range(n_steps):
        if t % STEP_BLOCK == 0:
            u = None  # free the last block before drawing the next
            u = _uniforms(seed, lo, hi, min(STEP_BLOCK, n_steps - t), start=t)
        cand = v @ both
        p_b = cand[:, 0]
        p_c = cand[:, 4]
        if np.any((p_b < DEGENERATE_TOL) & (p_c < DEGENERATE_TOL)):
            raise DegenerateJump("both branch probabilities vanish")
        take_b = u[:, t % STEP_BLOCK] < p_b
        take_b &= p_b >= DEGENERATE_TOL
        take_b |= p_c < DEGENERATE_TOL
        v = np.where(take_b[:, None], cand[:, :4], cand[:, 4:])
        v /= v[:, :1]
        x += np.where(take_b, -1, 1)
    return np.bincount(x + n_steps, minlength=2 * n_steps + 1)


def _check_seed(seed) -> None:
    """Raise ParameterError unless seed is an integer in [0, 2**64)."""
    if isinstance(seed, bool) or not (isinstance(seed, Integral) and 0 <= seed < 2**64):
        raise ParameterError(f"seed {seed!r} is not an integer in [0, 2**64)")


def sample(kp: KrausPair, rho0, n_steps: int, n_traj: int, seed: int) -> SampleReport:
    """Deterministic Monte Carlo estimate of the time-n distribution.

    seed is an integer in [0, 2**64); any other raises ParameterError.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    _check_seed(seed)
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
