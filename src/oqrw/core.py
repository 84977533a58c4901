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

from dataclasses import dataclass

import numpy as np

from .exceptions import NormalizationError, SizeError

KRAUS_TOL = 1e-12
HERMITIAN_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
TRACE_TOL = 1e-12
# Largest number of sites, Fourier nodes, count bins or coefficients that one
# engine array may hold; see check_size.
MAX_SITES = 1_000_000

I2 = np.eye(2, dtype=complex)
# sigma_0 = I, sigma_x, sigma_y, sigma_z
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def check_size(count: int, what: str) -> None:
    """Raise SizeError before an array of `count` entries of `what` is
    allocated, when count exceeds MAX_SITES (read at call time)."""
    if count > MAX_SITES:
        raise SizeError(f"{count} {what} exceed the limit {MAX_SITES}")


def as_mat2(a) -> np.ndarray:
    """Coerce to a complex (2, 2) array and require finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
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
    resid = B.conj().T @ B + C.conj().T @ C - I2
    return float(np.max(np.abs(resid)))


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


def density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, positive semidefinite, trace 1."""
    rho = as_mat2(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITIAN_TOL:
        raise ValueError(f"not Hermitian: ||rho - rho*||_inf = {herm:.3e}")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if evals.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"not positive semidefinite: min eigenvalue {evals.min():.3e}")
    tr = abs(np.trace(rho) - 1)
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
    return np.einsum("aij,...ji->...a", PAULI, A).real


def from_pauli(h) -> np.ndarray:
    """The Hermitian 2x2 matrix (h0 I + h1 sx + h2 sy + h3 sz) / 2 of real
    coordinates h: shape (..., 4) -> (..., 2, 2)."""
    return np.tensordot(np.asarray(h, dtype=float), PAULI, axes=1) / 2


def branch_maps(kp: KrausPair) -> tuple[np.ndarray, np.ndarray]:
    """The two branch maps A -> B A B* and A -> C A C* on Pauli coordinates:
    real 4x4 matrices (M_B, M_C) with M_K[:, b] = to_pauli(K s_b K*) / 2."""
    return tuple(to_pauli(K @ PAULI @ K.conj().T).T / 2 for K in kp)


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
    """Parse the [[re, im], ...] row-major matrix format."""
    a = np.asarray(data, dtype=float)
    if a.shape != (2, 2, 2):
        raise ValueError(f"expected a 2x2 matrix of [re, im] pairs, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]
