"""Checks on properties every output of the walk must have.

Each check compares a value with a tolerance and raises CheckError when it is
out. None pins today's bytes, support size or sample counts, so a change that
drops roundoff-sized sites on purpose still passes.
"""

from __future__ import annotations

import math

import numpy as np

MASS_TOL = 1e-8           # |sum p - 1|
NEGATIVE_FLOOR = -1e-12   # no weight below this
ROUNDOFF_FLOOR = 1e-12    # sites of the wrong parity stay below this
SYMMETRY_TOL = 1e-13      # |p_x - p_{-x}| for ex5 from I/2
ENGINE_TOL = 1e-10        # two exact laws over the union of their supports
TAIL_PROBABILITY = 1e-9   # chance that one seed trips the empirical-law bound


class CheckError(Exception):
    """An output is outside the tolerance of a check."""


def mass(probs, tol: float = MASS_TOL) -> None:
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= tol:
        raise CheckError(f"mass {total!r} differs from 1 by more than {tol}")


def nonnegative(probs, floor: float = NEGATIVE_FLOOR) -> None:
    low = float(np.min(probs, initial=0.0))
    if not low >= floor:
        raise CheckError(f"weight {low!r} below {floor}")


def parity(sites, probs, n: int, floor: float = ROUNDOFF_FLOOR) -> None:
    """From a start at 0, only sites with the parity of n carry mass."""
    wrong = (np.asarray(sites) - n) % 2 != 0
    worst = float(np.max(np.abs(np.asarray(probs)[wrong]), initial=0.0))
    if not worst <= floor:
        raise CheckError(f"wrong-parity weight {worst!r} above the roundoff floor {floor}")


def dense(law, lo: int, hi: int) -> np.ndarray:
    """Weights of a law on every site lo..hi, zero where the law has none."""
    sites, probs = law
    sites = np.asarray(sites, dtype=np.int64)
    out = np.zeros(hi - lo + 1)
    inside = (sites >= lo) & (sites <= hi)
    if not np.all(inside):
        raise CheckError(f"site {int(sites[~inside][0])} outside [{lo}, {hi}]")
    np.add.at(out, sites - lo, np.asarray(probs, dtype=float))
    return out


def symmetric(law, tol: float = SYMMETRY_TOL) -> None:
    """p_x = p_{-x} for every x."""
    reach = int(np.max(np.abs(law[0]), initial=0))
    p = dense(law, -reach, reach)
    worst = float(np.max(np.abs(p - p[::-1])))
    if not worst <= tol:
        raise CheckError(f"asymmetry {worst!r} above {tol}")


def close(law, ref, tol: float = ENGINE_TOL) -> None:
    """Max-abs difference of two laws over the union of their supports."""
    lo = int(min(np.min(law[0], initial=0), np.min(ref[0], initial=0)))
    hi = int(max(np.max(law[0], initial=0), np.max(ref[0], initial=0)))
    worst = float(np.max(np.abs(dense(law, lo, hi) - dense(ref, lo, hi))))
    if not worst <= tol:
        raise CheckError(f"max-abs difference {worst!r} above {tol}")


def exact_law(law, n: int, ref=None, tol: float = ENGINE_TOL) -> None:
    """Everything an exact time-n law from one start site must satisfy."""
    mass(law[1])
    nonnegative(law[1])
    parity(law[0], law[1], n)
    if ref is not None:
        close(law, ref, tol)


def empirical_bound(p: np.ndarray, n_traj: int, sites: int) -> np.ndarray:
    """Half-width of the Bernstein bound on |p_hat - p| for n_traj draws.

    Each of `sites` sites exceeds it with probability at most
    TAIL_PROBABILITY / sites, so no seed trips the check in practice.
    """
    L = math.log(2.0 * sites / TAIL_PROBABILITY)
    return np.sqrt(2.0 * p * (1.0 - p) * L / n_traj) + 2.0 * L / (3.0 * n_traj)


def empirical(law, exact, n_traj: int) -> None:
    """An empirical law from n_traj trajectories lies within the per-site bound of the exact law."""
    lo = int(min(np.min(law[0], initial=0), np.min(exact[0], initial=0)))
    hi = int(max(np.max(law[0], initial=0), np.max(exact[0], initial=0)))
    p_hat = dense(law, lo, hi)
    p = np.clip(dense(exact, lo, hi), 0.0, 1.0)
    excess = np.abs(p_hat - p) - empirical_bound(p, n_traj, p.size)
    i = int(np.argmax(excess))
    if excess[i] > 0:
        raise CheckError(
            f"empirical weight {p_hat[i]!r} at site {lo + i} is outside the bound "
            f"around the exact {p[i]!r} for {n_traj} trajectories"
        )


def scalar(value, ref: float, tol: float, what: str = "value") -> None:
    if not abs(float(value) - ref) <= tol:
        raise CheckError(f"{what} {value!r} differs from the reference {ref!r} by more than {tol}")


def identical(a, b, what: str = "output") -> None:
    """Two results of the same call on the same inputs are equal bit for bit."""
    if not _same(a, b):
        raise CheckError(f"{what} differs between two calls with the same inputs")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b
