"""Finite distributions on the integer lattice, their moments, and IO."""

from __future__ import annotations

import numpy as np

from .exceptions import ResidueError, SumError

MASS_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


def noise_floor(n: int) -> float:
    """The noise floor (n + 1) * eps of a time-n exact law: the roundoff of
    every exact route grows about linearly in n."""
    return (n + 1) * _EPS


class Distribution:
    """Finite probability measure on the integers.

    Stores sites and weights as parallel arrays sorted by site. A negative or
    non-finite weight is rejected on construction. No mass normalization or
    flooring is applied here: the exact engines pass their weights through
    finalize.
    """

    __slots__ = ("sites", "probs")

    def __init__(self, mapping):
        """mapping is a dict {site: weight} or a pair (sites, weights)."""
        sites, probs = (list(mapping), list(mapping.values())) if isinstance(mapping, dict) else mapping
        try:
            sites = np.array(sites, dtype=np.int64)  # copies: the caller's arrays stay the caller's
        except OverflowError:
            raise ValueError("sites must lie in the int64 range") from None
        probs = np.array(probs, dtype=float)
        if sites.ndim != 1 or probs.ndim != 1:
            raise ValueError(f"sites and probabilities must be 1-D, not of shapes {sites.shape} and {probs.shape}")
        if sites.shape != probs.shape:
            raise ValueError(f"sites of shape {sites.shape} and probabilities of shape {probs.shape} differ")
        if (sites[1:] <= sites[:-1]).any():  # the exact engines pass sites in increasing order
            order = np.argsort(sites)
            sites, probs = sites[order], probs[order]
            if (sites[1:] == sites[:-1]).any():
                raise ValueError("duplicate sites")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if probs.size and probs.min() < 0:
            raise ValueError(f"negative probability {probs.min():.3e}")
        self.sites = sites
        self.probs = probs

    def prob(self, x: int) -> float:
        i = np.searchsorted(self.sites, x)
        if i < self.sites.size and self.sites[i] == x:
            return float(self.probs[i])
        return 0.0

    def total(self) -> float:
        return float(self.probs.sum())

    def mean(self) -> float:
        """Sum of x p_x over the total, so that mass dropped by a noise floor
        does not pull the mean towards 0; ValueError for a law of total 0."""
        total = self.total()
        if not total > 0:
            raise ValueError("a law of total mass 0 has no mean")
        return float(self.sites @ self.probs) / total

    def variance(self) -> float:
        """Sum of (x - mean)^2 p_x over the total."""
        dev = self.sites - self.mean()
        return float((dev * dev) @ self.probs) / self.total()

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return (
            self.sites.shape == other.sites.shape
            and bool(np.all(self.sites == other.sites))
            and bool(np.all(self.probs == other.probs))
        )

    def __len__(self):
        return int(self.sites.size)

    def __repr__(self):
        return f"Distribution({len(self)} sites, total={self.total():.12g})"

    def items(self):
        return [(int(x), float(p)) for x, p in zip(self.sites, self.probs)]

    # ---- serialization ----

    def to_csv(self, path) -> None:
        """Write `x,p` rows sorted by x, shortest round-trip decimals."""
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        lines = ["x,p"]
        lines += [f"{int(x)},{float(p)!r}" for x, p in zip(self.sites, self.probs)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, path) -> "Distribution":
        with open(path) as fh:
            text = fh.read()
        return cls.from_csv_text(text)

    @classmethod
    def from_csv_text(cls, text: str) -> "Distribution":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].strip() != "x,p":
            raise ValueError("expected header 'x,p'")
        sites, probs = [], []
        for ln in lines[1:]:
            xs, ps = ln.split(",")
            sites.append(int(xs))
            probs.append(float(ps))
        return cls((sites, probs))

    def to_json_dict(self) -> dict:
        return {"x": [int(x) for x in self.sites], "p": [float(p) for p in self.probs]}

    @classmethod
    def from_json_dict(cls, data) -> "Distribution":
        return cls((data["x"], data["p"]))


def finalize(lo: int, p, n: int) -> Distribution:
    """The reported law of an exact engine: the weights p of the sites lo,
    lo + 2, lo + 4, ... of a time-n law (every exact law lives on one parity
    class), as computed, checked and floored by the one roundoff policy.

    With floor = noise_floor(n) = (n + 1) * eps, in this order: a weight below
    -floor raises ResidueError; a total (kept plus floored mass) more than
    MASS_TOL from 1 raises SumError; weights below floor are dropped. Only the
    kept sites are formed.
    """
    p = np.asarray(p, dtype=float)
    floor = noise_floor(n)
    lowest = float(p.min(initial=0.0))
    if lowest < -floor:
        raise ResidueError(f"negative weight {lowest:.3e} below the roundoff floor {-floor:.3e}")
    total = float(p.sum())
    if not abs(total - 1) <= MASS_TOL:  # a NaN total fails too
        raise SumError(f"probabilities sum to {total!r}, drift {abs(total - 1):.3e}")
    keep = (p >= floor).nonzero()[0]
    return Distribution((lo + 2 * keep, p[keep]))


def compare(a: Distribution, b: Distribution) -> dict:
    """Max-abs difference over the union support and total variation distance."""
    union = np.union1d(a.sites, b.sites)
    pa = np.zeros(union.size)
    pb = np.zeros(union.size)
    ia = np.searchsorted(union, a.sites)
    ib = np.searchsorted(union, b.sites)
    pa[ia] = a.probs
    pb[ib] = b.probs
    diff = np.abs(pa - pb)
    return {
        "max_abs": float(diff.max(initial=0.0)),
        "tv_distance": float(diff.sum() / 2),
    }
