import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqrw import core
from oqrw.exceptions import NormalizationError

from conftest import make_random_pairs


def test_validate_accepts_exact_pair():
    B = np.diag([1.0, np.sqrt(0.5)])
    C = np.diag([0.0, np.sqrt(0.5)])
    kp = core.validate_kraus_pair(B, C)
    assert core.kraus_defect(kp.B, kp.C) <= 1e-15


def test_validate_rejects_unnormalized():
    with pytest.raises(NormalizationError) as exc:
        core.validate_kraus_pair(np.eye(2), np.eye(2))
    assert exc.value.defect == pytest.approx(1.0)


def test_validate_rejects_nonfinite():
    B = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        core.validate_kraus_pair(B, np.zeros((2, 2)))


def test_validate_tolerance_boundary():
    # defect just under 1e-12 passes, just above fails
    B = np.diag([1.0, np.sqrt(0.5)])
    C = np.diag([0.0, np.sqrt(0.5)])
    eps = 4e-13
    core.validate_kraus_pair(B * np.sqrt(1 + eps), C)
    with pytest.raises(NormalizationError):
        core.validate_kraus_pair(B * np.sqrt(1 + 4e-12), C)


def test_density_matrix_checks():
    with pytest.raises(ValueError):
        core.density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        core.density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        core.density_matrix(np.diag([0.7, 0.7]))  # trace 1.4
    rho = core.density_matrix(np.diag([0.25, 0.75]))
    assert rho.dtype == complex


def _random_hermitian(rng):
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return A + A.conj().T


def test_apply_channel_matches_superoperator(example_pair):
    rng = np.random.default_rng(7)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = M @ M.conj().T
    rho /= np.trace(rho).real
    direct = core.apply_channel(example_pair, rho)
    MB, MC = core.branch_maps(example_pair)
    via_super = core.from_pauli((MB + MC) @ core.to_pauli(rho))
    np.testing.assert_allclose(direct, via_super, atol=1e-14)


def test_channel_preserves_trace_and_positivity(example_pair):
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    out = core.apply_channel(example_pair, rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)
    evals = np.linalg.eigvalsh((out + out.conj().T) / 2)
    assert evals.min() >= -1e-14


def test_branch_maps_are_the_two_sandwiches():
    rng = np.random.default_rng(3)
    kp = core.random_kraus_pair(rng)
    A = _random_hermitian(rng)
    np.testing.assert_allclose(core.from_pauli(core.to_pauli(A)), A, atol=1e-15)
    # the channel preserves the trace, coordinate 0
    np.testing.assert_allclose(sum(core.branch_maps(kp))[0], [1, 0, 0, 0], atol=1e-15)
    for M, K in zip(core.branch_maps(kp), kp):
        assert M.dtype == float and M.shape == (4, 4)
        h = M @ core.to_pauli(A)
        np.testing.assert_allclose(core.from_pauli(h), K @ A @ K.conj().T, atol=1e-14)
        assert h[0] == pytest.approx(np.trace(K @ A @ K.conj().T).real, abs=1e-14)


def test_adjoint_superoperator_is_hs_adjoint(example_pair):
    """<L(A), B> = <A, L*(B)> in the Hilbert-Schmidt inner product, and on
    Pauli coordinates the adjoint channel is the transpose of the channel."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = np.trace(core.apply_channel(example_pair, A).conj().T @ X)
    rhs = np.trace(A.conj().T @ core.apply_adjoint_channel(example_pair, X))
    assert lhs == pytest.approx(rhs, abs=1e-13)
    X = _random_hermitian(rng)
    MB, MC = core.branch_maps(example_pair)
    np.testing.assert_allclose(
        core.from_pauli((MB + MC).T @ core.to_pauli(X)), core.apply_adjoint_channel(example_pair, X), atol=1e-14
    )


def test_adjoint_channel_is_unital(example_pair):
    np.testing.assert_allclose(
        core.apply_adjoint_channel(example_pair, core.I2), core.I2, atol=1e-14
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_pairs_are_normalized(seed):
    kp = core.random_kraus_pair(np.random.default_rng(seed))
    assert core.kraus_defect(kp.B, kp.C) <= 1e-12


def test_random_pairs_vary():
    pairs = make_random_pairs(4, seed=5)
    assert not np.allclose(pairs[0].B, pairs[1].B)


def test_matrix_json_round_trip():
    M = np.array([[1 + 2j, -0.5], [0.25j, -3 - 4j]])
    data = core.mat2_to_json(M)
    assert data[0][0] == [1.0, 2.0]
    np.testing.assert_array_equal(core.mat2_from_json(data), M)


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        core.mat2_from_json([[1.0, 2.0], [3.0, 4.0]])


def test_kraus_pair_unpacks():
    kp = core.validate_kraus_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    B, C = kp
    assert B is kp.B and C is kp.C
