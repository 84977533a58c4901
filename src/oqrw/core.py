"""Complex 2x2 operator algebra, Kraus pairs, and superoperator vectorization.

Matrices are plain complex numpy arrays of shape (2, 2). A superoperator is a
(4, 4) complex array acting on row-major vectorized matrices: vec(A) is
A.reshape(4), so vec(M A N) = kron(M, N.T) vec(A). With this convention the
branch A -> BAB* is kron(B, conj(B)), and a stack of blocks held as vec rows
v of shape (m, 4) maps to v @ kron(B, conj(B)).T.
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


def vectorize(A: np.ndarray) -> np.ndarray:
    """Row-major vec: shape (2, 2) -> (4,)."""
    return np.asarray(A, dtype=complex).reshape(4)


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of vectorize: shape (4,) -> (2, 2)."""
    return np.asarray(v, dtype=complex).reshape(2, 2)


def vec_trace(v: np.ndarray) -> np.ndarray:
    """Real trace of each vectorized block: shape (..., 4) -> (...)."""
    return (v[..., 0] + v[..., 3]).real


def branch_superoperators(kp: KrausPair) -> tuple[np.ndarray, np.ndarray]:
    """The two branch maps rho -> B rho B* and rho -> C rho C*:
    (kron(B, conj(B)), kron(C, conj(C)))."""
    B, C = kp
    return np.kron(B, B.conj()), np.kron(C, C.conj())


def channel_superoperator(kp: KrausPair) -> np.ndarray:
    """Matrix of the CP map rho -> B rho B* + C rho C*, the sum of the two branches."""
    SB, SC = branch_superoperators(kp)
    return SB + SC


def adjoint_channel_superoperator(kp: KrausPair) -> np.ndarray:
    """Matrix of the adjoint (Heisenberg) map X -> B*XB + C*XC.

    Equals the conjugate transpose of channel_superoperator under the
    Hilbert-Schmidt inner product <A, B> = Tr(A*B).
    """
    return channel_superoperator(kp).conj().T


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
