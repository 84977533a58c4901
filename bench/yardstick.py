"""A fixed piece of work that calls nothing of oqrw, timed between the operations.

The speed of the shared machine this benchmark was built on moves by tens of
percent over minutes (see "Machine" in README.md), and runs minutes apart see
different levels, so a plain median over one run cannot hold two sets of runs
within a bound. The yardstick measures that speed in the same stretch of the
run. In a workload measured against it (`exact`), the worker times one
yardstick after every YARDSTICK_EVERY_S seconds of operations, and each
pass's times are divided by that pass's median yardstick over REFERENCE_S.
The times reported are then seconds at the speed at which one yardstick takes
REFERENCE_S. `sample-cli` spends most of its time in child processes, which
the yardstick does not track, and is reported as measured.

Its three parts are the three kinds of work the workloads do: FFTs and
stacked 2x2 products on arrays of tens of thousands of entries (the dual and
lattice engines at large n), a Python loop over 2x2 numpy products (the
engines at small n, per-call overhead), and Python arithmetic on ints and
Fractions (parsing, CSV, exact rationals, interpreter start). Its inputs are
fixed, so every yardstick does the same work.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# About the median time of one yardstick on the machine of README.md's
# "Machine" section; only a unit, so that the reported times read as seconds.
REFERENCE_S = 0.0130
YARDSTICK_EVERY_S = 0.25


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.z = np.exp(2j * np.pi * rng.random(1 << 14))
        self.blocks = rng.random((1 << 12, 2, 2)) + 0j
        self.m = np.array([[0.6, 0.2], [0.1, 0.7]], dtype=complex)

    def __call__(self) -> float:
        f = np.fft.fft(self.z)
        g = np.fft.ifft(f * f.conj())
        b = self.blocks @ self.blocks
        x = np.eye(2, dtype=complex)
        for _ in range(400):
            x = self.m @ x @ self.m.conj().T
            x /= np.trace(x)
        s, q = Fraction(0), Fraction(1, 3)
        for i in range(1, 500):
            s += q / i
        t = 0
        for i in range(30_000):
            t += i * i % 7
        return float(g[0].real + b[0, 0, 0].real + x[0, 0].real) + float(s) + t
