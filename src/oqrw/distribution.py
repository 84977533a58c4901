"""Finite distributions on the integer lattice, their moments, and IO."""

from __future__ import annotations

import numpy as np

from .exceptions import ResidueError, SumError

# The noise floor of a time-n exact law is ROUNDOFF_SCALE * (n + 1) * eps:
# the roundoff of every exact route grows about linearly in n.
ROUNDOFF_SCALE = 1.0
MASS_TOL = 1e-8


class Distribution:
    """Finite probability measure on the integers.

    Stores sites and weights as parallel arrays sorted by site. A negative or
    non-finite weight is rejected on construction. No mass normalization or
    flooring is applied here: the exact engines pass their weights through
    finalize.
    """

    __slots__ = ("sites", "probs")

    def __init__(self, mapping):
        if isinstance(mapping, dict):
            items = sorted(mapping.items())
            sites = np.array([x for x, _ in items], dtype=np.int64)
            probs = np.array([p for _, p in items], dtype=float)
        else:
            sites, probs = mapping
            sites = np.asarray(sites, dtype=np.int64)
            probs = np.asarray(probs, dtype=float)
            order = np.argsort(sites)
            sites, probs = sites[order], probs[order]
        if sites.size != np.unique(sites).size:
            raise ValueError("duplicate sites")
        if not np.all(np.isfinite(probs)):
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
        return float(self.sites @ self.probs)

    def variance(self) -> float:
        m = self.mean()
        return float((self.sites.astype(float) ** 2) @ self.probs) - m * m

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


def finalize(sites, p, n: int) -> Distribution:
    """The reported law of an exact engine: site weights p of a time-n law,
    as computed, checked and floored by the one roundoff policy.

    With floor = ROUNDOFF_SCALE * (n + 1) * eps, in this order: a weight below
    -floor raises ResidueError; a total (kept plus floored mass) more than
    MASS_TOL from 1 raises SumError; weights below floor are dropped.
    """
    sites = np.asarray(sites, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    floor = ROUNDOFF_SCALE * (n + 1) * np.finfo(float).eps
    lowest = float(p.min(initial=0.0))
    if lowest < -floor:
        raise ResidueError(f"negative weight {lowest:.3e} below the roundoff floor {-floor:.3e}")
    total = float(p.sum())
    if abs(total - 1) > MASS_TOL:
        raise SumError(f"probabilities sum to {total!r}, drift {abs(total - 1):.3e}")
    keep = p >= floor
    return Distribution((sites[keep], p[keep]))


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
