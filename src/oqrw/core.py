"""Complex 2x2 operator algebra, Kraus pairs, and Pauli coordinates.

Matrices are plain complex numpy arrays of shape (2, 2). A Hermitian block is
carried by its real Pauli coordinates h = (Tr A, Tr sx A, Tr sy A, Tr sz A),
so A = (h0 I + h1 sx + h2 sy + h3 sz) / 2 and coordinate 0 is the trace. The
branch A -> K A K* is the real 4x4 matrix M_K[a, b] = Tr(s_a K s_b K*) / 2,
and a stack of blocks held as coordinate rows h of shape (m, 4) maps to
h @ M_K.T. The channel is M_B + M_C and, since the Pauli basis is orthogonal
under Tr(A*B), its Heisenberg adjoint X -> B*XB + C*XC is the transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .distribution import noise_floor
from .exceptions import NormalizationError, ParameterError, SizeError

KRAUS_TOL = 1e-12
HERMITIAN_TOL = 1e-12
EIGENVALUE_FLOOR = -noise_floor(0)  # -eps: below it the engines' roundoff checks would refuse the start
TRACE_TOL = 1e-12
# Largest number of sites, Fourier nodes, count bins or coefficients that one
# engine array may hold; see check_size.
MAX_SITES = 1_000_000

I2 = np.eye(2, dtype=complex)
# sigma_0 = I, sigma_x, sigma_y, sigma_z
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# row 2j + i, column a holds s_a[i, j], so that Tr(s_a A) = A.reshape(4) @ _TRACE_PAULI[:, a]:
# its entries are 0, +-1 and +-i, and the product rounds only the one sum of two terms
_TRACE_PAULI = PAULI.transpose(2, 1, 0).reshape(4, 4)


def check_size(count: int, what: str) -> None:
    """Raise SizeError before an array of `count` entries of `what` is
    allocated, when count exceeds MAX_SITES (read at call time)."""
    if count > MAX_SITES:
        raise SizeError(f"{count} {what} exceed the limit {MAX_SITES}")


def check_integer(value, name: str, least: int | None = None) -> None:
    """Raise ValueError unless value is an integer, and at least `least` when
    that is given: a numbers.Integral such as int or np.int64, and not a bool.
    Every step count, trajectory count and site of the package is checked
    here."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def check_real(value, name: str) -> float:
    """value as a float when it is a finite real number, a numbers.Real such
    as float, int or np.float64 but not a bool; ParameterError otherwise.
    Every real parameter of the package is checked here."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ParameterError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ParameterError(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def check_seed(seed) -> None:
    """Raise ParameterError unless seed is an integer in [0, 2**64), the key
    word of the trajectory streams."""
    if isinstance(seed, bool) or not (isinstance(seed, Integral) and 0 <= seed < 2**64):
        raise ParameterError(f"seed {seed!r} is not an integer in [0, 2**64)")


def as_mat2(a) -> np.ndarray:
    """Coerce to a complex (2, 2) array and require finite entries of modulus
    at most 1e150, so that no product of two entries overflows: a density
    matrix or a Kraus operator has none above 1."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.abs(m).max() <= 1e150:  # NaN fails too
        finite = np.isfinite(m).all()
        raise ValueError("matrix entries must be at most 1e150 in modulus" if finite else "matrix entries must be finite")
    return m


@dataclass(frozen=True)
class KrausPair:
    """Environment operators B, C with B*B + C*C = I.

    B moves the walker one site left, C one site right. Construct through
    validate_kraus_pair; the dataclass itself does not re-check.
    """

    B: np.ndarray
    C: np.ndarray

    def __iter__(self):
        return iter((self.B, self.C))


def kraus_defect(B: np.ndarray, C: np.ndarray) -> float:
    """Max-norm of B*B + C*C - I."""
    K = np.array((B, C))
    BB, CC = K.conj().swapaxes(1, 2) @ K
    return float(np.abs(BB + CC - I2).max())


def validate_kraus_pair(B, C) -> KrausPair:
    """Validate the normalization B*B + C*C = I and return the pair.

    Raises
    ------
    NormalizationError
        when the max-norm defect exceeds 1e-12 (the defect is attached).
    """
    B = as_mat2(B)
    C = as_mat2(C)
    defect = kraus_defect(B, C)
    if defect > KRAUS_TOL:
        raise NormalizationError(defect)
    return KrausPair(B, C)


def _smallest_eigenvalue(a: float, b: complex, d: float) -> float:
    """The smaller eigenvalue of the Hermitian matrix [[a, b], [b*, d]], in
    closed form: (a + d - sqrt((a - d)^2 + 4|b|^2)) / 2."""
    return (a + d - math.hypot(a - d, 2 * abs(b))) / 2


def density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, positive semidefinite, trace 1.

    The checks run on the four entries as Python scalars. Positivity is that
    of the Hermitian part (rho + rho*) / 2, whose smallest eigenvalue is taken
    in closed form (_smallest_eigenvalue).
    """
    rho = as_mat2(rho)
    (a, b), (c, d) = rho.tolist()
    herm = max(2 * abs(a.imag), abs(b - c.conjugate()), 2 * abs(d.imag))
    if herm > HERMITIAN_TOL:
        raise ValueError(f"not Hermitian: ||rho - rho*||_inf = {herm:.3e}")
    low = _smallest_eigenvalue(a.real, (b + c.conjugate()) / 2, d.real)
    if low < EIGENVALUE_FLOOR:
        raise ValueError(f"not positive semidefinite: min eigenvalue {low:.3e}")
    tr = abs(a + d - 1)
    if tr > TRACE_TOL:
        raise ValueError(f"trace differs from 1 by {tr:.3e}")
    return rho


def apply_channel(kp: KrausPair, rho: np.ndarray) -> np.ndarray:
    """The completely positive map rho -> B rho B* + C rho C*."""
    B, C = kp
    return B @ rho @ B.conj().T + C @ rho @ C.conj().T


def apply_adjoint_channel(kp: KrausPair, X: np.ndarray) -> np.ndarray:
    """The adjoint map X -> B* X B + C* X C (unital: I is a fixed point)."""
    B, C = kp
    return B.conj().T @ X @ B + C.conj().T @ X @ C


def to_pauli(A) -> np.ndarray:
    """Real Pauli coordinates Tr(s_a A) of Hermitian 2x2 matrices: shape
    (..., 2, 2) -> (..., 4). Of a non-Hermitian A this gives the coordinates
    of its Hermitian part (A + A*)/2."""
    A = np.asarray(A)
    return (A.reshape(A.shape[:-2] + (4,)) @ _TRACE_PAULI).real


def from_pauli(h) -> np.ndarray:
    """The Hermitian 2x2 matrix (h0 I + h1 sx + h2 sy + h3 sz) / 2 of real
    coordinates h: shape (..., 4) -> (..., 2, 2)."""
    return np.tensordot(np.asarray(h, dtype=float), PAULI, axes=1) / 2


def branch_maps(kp: KrausPair) -> np.ndarray:
    """The two branch maps A -> B A B* and A -> C A C* on Pauli coordinates:
    real 4x4 matrices (M_B, M_C), stacked as shape (2, 4, 4), with
    M_K[:, b] = to_pauli(K s_b K*) / 2. The eight sandwiches K s_b K* are
    formed by two stacked products."""
    K = np.array((kp.B, kp.C))[:, np.newaxis]
    return (to_pauli(K @ PAULI @ K.conj().swapaxes(2, 3)) / 2).swapaxes(1, 2)


def random_kraus_pair(rng: np.random.Generator) -> KrausPair:
    """Draw a random valid Kraus pair.

    Two complex Gaussian matrices are normalized jointly through
    S = (B'*B' + C'*C')^(-1/2), which makes B'S, C'S satisfy the
    normalization identity up to machine precision.
    """
    shape = (2, 2, 2)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Bp, Cp = raw[0], raw[1]
    M = Bp.conj().T @ Bp + Cp.conj().T @ Cp
    w, V = np.linalg.eigh(M)
    S = V @ np.diag(1 / np.sqrt(w)) @ V.conj().T
    return validate_kraus_pair(Bp @ S, Cp @ S)


def mat2_to_json(A: np.ndarray) -> list:
    """Serialize a 2x2 complex matrix as row-major [re, im] pairs."""
    A = as_mat2(A)
    return [[[float(A[i, j].real), float(A[i, j].imag)] for j in range(2)] for i in range(2)]


def mat2_from_json(data) -> np.ndarray:
    """Parse the [[re, im], ...] row-major matrix format; any other JSON value
    (a dict, a string, None, a ragged list, a true or false entry, an
    infinite part) raises ValueError."""
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a dict, a non-numeric string, an int beyond float
        raise ValueError(f"expected a 2x2 matrix of [re, im] pairs, got {type(data).__name__}") from None
    if a.shape != (2, 2, 2):
        raise ValueError(
            "expected a 2x2 matrix of [re, im] pairs, [[[re, im], [re, im]], [[re, im], [re, im]]]"
            f" (shape (2, 2, 2)), got shape {a.shape}"
        )
    if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(data, dtype=object).flat):
        raise ValueError("expected a 2x2 matrix of [re, im] pairs, got a bool entry")
    if not np.isfinite(a).all():  # before 1j * inf makes a NaN
        raise ValueError("matrix entries must be finite")
    return a[..., 0] + 1j * a[..., 1]
