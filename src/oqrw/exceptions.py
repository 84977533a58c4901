"""Exception types shared across the package, and the rule that sets the
command line's exit code: any refusal of the caller's input is a ValueError,
the builtin or ParameterError and its subclasses (exit 2); every other
OqrwError is a numerical guard that tripped (exit 3)."""


class OqrwError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(OqrwError, ValueError):
    """The caller's input was refused: a parameter, config field or argument
    outside its admissible range."""


class NormalizationError(ParameterError):
    """Kraus pair violates B*B + C*C = I.

    Carries the max-norm deviation in ``defect``.
    """

    def __init__(self, defect: float):
        self.defect = float(defect)
        super().__init__(
            f"Kraus normalization defect ||B*B + C*C - I||_inf = {self.defect:.3e} "
            "exceeds 1e-12"
        )


class SumError(OqrwError):
    """The total of an exact law, floored sites included, differs from 1 by
    more than distribution.MASS_TOL (1e-8)."""


class ResidueError(OqrwError):
    """An exact law failed a roundoff check: a weight, or a lattice row's trace
    after a block of steps, lies below minus the noise floor of
    distribution.finalize, or the dual engine's phased traces
    break their conjugate symmetry by more than 1e-9 (a mirrored node in
    (pi/2, pi) is not the conjugate of its partner, or the value at k = 0 or
    k = pi/2 is not real)."""


class NonUniqueInvariant(OqrwError):
    """The channel's invariant state is not unique; CLT parameters undefined."""


class NoInvariantState(OqrwError):
    """No eigenvalue near 1 found (numerical failure; impossible for valid pairs)."""


class DegenerateJump(OqrwError):
    """Both trajectory branches have vanishing probability."""


class DegenerateMax(OqrwError):
    """|f| does not have an isolated maximum on the sampling grid."""


class UnsupportedExample(ParameterError):
    """The requested operation has no closed form for this example."""


class SizeError(ParameterError):
    """Requested computation exceeds a hard resource guard."""
