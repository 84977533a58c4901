"""Monte Carlo sampling of the trajectory Markov chain (rho_n, X_n).

Each step evaluates p_B = Tr(B rho B*) and jumps to (B rho B*/p_B, x-1) when
the uniform draw falls below p_B, else to (C rho C*/p_C, x+1). The position
marginal of this chain is exactly the walk distribution. The states rho are
held as real Pauli coordinates (core.to_pauli), whose coordinate 0 is the
trace.

Randomness is counter-based: trajectory i consumes the stream of Philox with
the 128-bit key [seed, i] (two uint64 words, seed in [0, 2**64)), counter 0,
so results are reproducible bit for bit regardless of how the trajectories are
split into chunks. The doubles are those of Generator.random on that stream.
A stream depends on its key alone, so each block of draws builds one Philox
bit generator and re-keys it per trajectory through the public
`BitGenerator.state` setter instead of constructing a generator per
trajectory, then forms the doubles from its raw 64-bit words.

A chunk draws its uniforms STEP_BLOCK steps at a time, step-major so that
step t reads one contiguous row, and holds its states coordinate-major, shape
(4, m), so that every per-step array is a contiguous row of length m. A block
costs one re-key per trajectory, about 0.5 us, and 4096 trajectories x 256
steps of draws take about 15 ms, 14 ns per trajectory-step, against 38 ns
(512 trajectories) and 26 ns (4096) for a step of the kernel (x86-64, 2 CPUs,
numpy 2.4). A full chunk then holds at most 8 MiB of draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KrausPair, branch_maps, check_integer, check_seed, check_size, density_matrix, to_pauli
from .distribution import Distribution
from .exceptions import DegenerateJump

DEGENERATE_TOL = 1e-14
CHUNK = 4096
# steps of uniforms drawn at once, a multiple of the four doubles of a Philox
# block: at most 8 MiB of draws for a full chunk, for one re-key per
# trajectory and block
STEP_BLOCK = 256
# trajectories whose draws are transposed into the step-major block at once
_DRAW_TILE = 64


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
    """Step-major draws: column i holds doubles start .. start + n_steps - 1 of
    the stream of trajectory lo + i, so row t is step start + t of every
    trajectory; start is a multiple of 4.

    One Philox bit generator is re-keyed per trajectory: key [seed, lo + i],
    counter start / 4 and an empty buffer. A Philox block is four doubles, so
    at start 0 this is the state of a fresh Philox(key=[seed, lo + i]) and at
    start 4c it is that state after 4c draws. The state is one dict of Python
    ints, built once, whose key[1] is rewritten per trajectory: the setter
    reads every entry, and a Python int is cheaper to read than the numpy
    scalars that the getter returns. Each stream's raw 64-bit words fill a row
    of a tile of _DRAW_TILE trajectories, and the tile becomes doubles in the
    block by (raw >> 11) * 2**-53, which is how Generator.random forms a
    float64, so no second copy of the block is made.
    """
    bitgen = np.random.Philox(key=0)  # keyed per trajectory below
    key = [seed, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [start // 4, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = np.empty((n_steps, hi - lo))
    tile = np.empty((min(_DRAW_TILE, hi - lo), n_steps), dtype=np.uint64)
    for j in range(0, hi - lo, _DRAW_TILE):
        rows = tile[: min(_DRAW_TILE, hi - lo - j)]
        for i, row in enumerate(rows, lo + j):
            key[1] = i
            bitgen.state = state
            row[:] = bitgen.random_raw(n_steps)
        rows >>= 11
        np.multiply(rows.T, 2.0**-53, out=u[:, j : j + len(rows)])
    return u


def _run_chunk(kp: KrausPair, rho0: np.ndarray, n_steps: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Final positions of trajectories lo..hi-1, shifted to counts over [-n, n].

    The states are the columns of a (4, m) array of Pauli coordinates; one
    product with the (8, 4) matrix [M_B; M_C] of core.branch_maps gives both
    candidates, whose traces p_B and p_C are rows 0 and 4. The uniforms are
    drawn STEP_BLOCK steps at a time, so a chunk holds at most CHUNK x
    STEP_BLOCK draws whatever n_steps is. Only the B jumps are counted: a
    trajectory with nb of them ends at x = n - 2 nb, which is bin 2 (n - nb).
    """
    m = hi - lo
    maps = np.vstack(branch_maps(kp))
    v = np.broadcast_to(to_pauli(rho0)[:, None], (4, m))
    nb = np.zeros(m, dtype=np.int64)
    for start in range(0, n_steps, STEP_BLOCK):
        u = row = None  # free the last block (row is a view of it) before drawing the next
        u = _uniforms(seed, lo, hi, min(STEP_BLOCK, n_steps - start), start)
        for row in u:
            cand = maps @ v
            p_b = cand[0]
            p_c = cand[4]
            if (np.maximum(p_b, p_c) < DEGENERATE_TOL).any():
                raise DegenerateJump("both branch probabilities vanish")
            take_b = row < p_b
            take_b &= p_b >= DEGENERATE_TOL
            take_b |= p_c < DEGENERATE_TOL
            v = np.where(take_b, cand[:4], cand[4:])
            v /= v[0]
            nb += take_b
    return np.bincount(2 * (n_steps - nb), minlength=2 * n_steps + 1)


def sample(kp: KrausPair, rho0, n_steps: int, n_traj: int, seed: int) -> SampleReport:
    """Deterministic Monte Carlo estimate of the time-n distribution.

    n_steps >= 0 and n_traj >= 1 are integers, not bools, or ValueError is
    raised; seed is an integer in [0, 2**64); any other raises ParameterError.
    numpy integers are taken as the equal Python ints.
    """
    check_integer(n_steps, "n_steps", 0)
    check_integer(n_traj, "n_traj", 1)
    check_seed(seed)
    n_steps, n_traj, seed = int(n_steps), int(n_traj), int(seed)  # the report holds Python ints, as JSON needs
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
