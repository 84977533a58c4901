import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqrw import catalog, cli, core, dual, lattice, limits, trajectory
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


@pytest.mark.parametrize(
    "ok, bad",
    [
        # Hermitian: ||rho - rho*||_inf against HERMITIAN_TOL = 1e-12, off the
        # diagonal and on it (where it is 2 |Im rho_aa|)
        ([[0.5, 0.1], [0.1 + 0.9e-12, 0.5]], [[0.5, 0.1], [0.1 + 1.1e-12, 0.5]]),
        ([[0.5 + 0.45e-12j, 0], [0, 0.5]], [[0.5 + 0.55e-12j, 0], [0, 0.5]]),
        # positive semidefinite: the smallest eigenvalue against EIGENVALUE_FLOOR = -1e-12
        (np.diag([1 + 0.9e-12, -0.9e-12]), np.diag([1 + 1.1e-12, -1.1e-12])),
        ([[0.5, 0.5 + 0.9e-12], [0.5 + 0.9e-12, 0.5]], [[0.5, 0.5 + 1.1e-12], [0.5 + 1.1e-12, 0.5]]),
        ([[0.5, 0.5j + 0.9e-12j], [-0.5j - 0.9e-12j, 0.5]], [[0.5, 0.5j + 1.1e-12j], [-0.5j - 1.1e-12j, 0.5]]),
        # trace against TRACE_TOL = 1e-12, above 1 and below it
        (np.diag([0.5, 0.5 + 0.9e-12]), np.diag([0.5, 0.5 + 1.1e-12])),
        (np.diag([0.5, 0.5 - 0.9e-12]), np.diag([0.5, 0.5 - 1.1e-12])),
    ],
)
def test_density_matrix_bounds(ok, bad):
    np.testing.assert_array_equal(core.density_matrix(ok), np.asarray(ok, dtype=complex))
    with pytest.raises(ValueError):
        core.density_matrix(bad)


def test_smallest_eigenvalue_is_the_closed_form_of_eigvalsh():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        a, d, re, im = rng.uniform(-1, 1, 4)
        A = np.array([[a, re + 1j * im], [re - 1j * im, d]])
        assert abs(core._smallest_eigenvalue(a, re + 1j * im, d) - np.linalg.eigvalsh(A)[0]) <= 1e-15


def test_as_mat2_takes_a_transposed_complex_matrix():
    A = np.array([[1, 2j], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(core.as_mat2(A.T), A.T)
    with pytest.raises(ValueError, match="finite"):
        core.as_mat2(np.array([[1, np.inf * 1j], [0, 1]]).T)


@pytest.mark.parametrize("big", [1.7e308 + 1.7e308j, 1.3e154, 2e150])
def test_entries_too_large_for_the_checks_are_refused(big):
    # near the largest float the checks' own arithmetic overflows: a
    # Hermitian rho with such an entry made a NaN eigenvalue and passed
    with pytest.raises(ValueError, match="at most 1e150"):
        core.density_matrix([[0.5, big], [np.conj(big), 0.5]])
    with pytest.raises(ValueError, match="at most 1e150"):
        core.validate_kraus_pair(np.zeros((2, 2)), np.diag([0.0, big]))
    assert core.as_mat2(np.diag([0.5, 1e150]))[1, 1] == 1e150


def test_matrix_json_refuses_an_infinite_part():
    # 1e400 in JSON is inf; 1j * inf would make a NaN real part
    for part in (0, 1):
        data = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        data[1][1][part] = float("inf")
        with pytest.raises(ValueError, match="must be finite"):
            core.mat2_from_json(data)


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


@pytest.mark.parametrize("data", [{"a": 1}, "abc", None, [[[0, 0], [0, 0]], [[0, 0], {"a": 1}]]])
def test_matrix_json_refuses_any_other_json_value(data):
    # refused by the parser itself, not by numpy's TypeError
    with pytest.raises(ValueError, match=re.escape("expected a 2x2 matrix of [re, im] pairs")):
        core.mat2_from_json(data)


@pytest.mark.parametrize("entry", [True, False])
def test_matrix_json_refuses_a_bool_entry(entry):
    # JSON true and false are not numbers here, as the integer rule refuses bools
    data = [[[entry, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    with pytest.raises(ValueError, match="got a bool entry"):
        core.mat2_from_json(data)


def test_kraus_pair_unpacks():
    kp = core.validate_kraus_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    B, C = kp
    assert B is kp.B and C is kp.C


def test_pauli_maps_keep_their_reference_bits():
    """to_pauli and branch_maps give the bits of the einsum trace and of the
    per-K sandwiches, bit for bit."""
    rng = np.random.default_rng(2024)
    pairs = [catalog.build(spec) for spec in catalog.all_examples()] + [core.random_kraus_pair(rng) for _ in range(200)]
    for kp in pairs:
        want = [np.einsum("aij,...ji->...a", core.PAULI, K @ core.PAULI @ K.conj().T).real.T / 2 for K in kp]
        got = core.branch_maps(kp)
        assert got.shape == (2, 4, 4)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for K in kp:
            sandwiches = K @ core.PAULI @ K.conj().T
            assert np.array_equal(core.to_pauli(sandwiches), np.einsum("aij,...ji->...a", core.PAULI, sandwiches).real)


_EX5 = catalog.build(catalog.ExampleSpec("ex5"))
_HALF = np.eye(2) / 2
_CONFIG = {"kraus": {"example": "ex5"}, "rho0": cli._IDENTITY_HALF, "steps": 4, "method": "trajectory", "seed": 7,
           "traj": 10}
# every entry point that takes a whole count: (name of the count, least value, one-argument call)
_COUNTS = {
    "lattice.evolve": ("n", 0, lambda n: lattice.distribution(lattice.evolve(_EX5, lattice.initial_state(_HALF), n))),
    "dual.distribution_via_dual": ("n", 0, lambda n: dual.distribution_via_dual(_EX5, _HALF, n)),
    "dual.dual_power": ("n", 0, lambda n: dual.dual_power(_EX5, 0.3, n).tolist()),
    "trajectory.sample.n_steps": ("n_steps", 0, lambda n: trajectory.sample(_EX5, _HALF, n, 10, 1)),
    "trajectory.sample.n_traj": ("n_traj", 1, lambda n: trajectory.sample(_EX5, _HALF, 3, n, 1)),
    "catalog.closed_form": ("n", 0, lambda n: catalog.closed_form(catalog.ExampleSpec("ex3"), (0.5, 0.5), n)),
    "catalog.cut_unfold_exact": ("n", 0, lambda n: catalog.cut_unfold_exact((0.5, 0.5), n)),
    "catalog.ex5_power_traces": ("l", 0, catalog.ex5_power_traces),
    "limits.laplace_ratio": ("n", 0, lambda n: limits.laplace_ratio(lambda x: 1 - 0.3 * x * x, np.cos, (-1, 1), n)),
    "limits.ex5_alpha": ("n", 1, limits.ex5_alpha),
    "limits.drift_concentration_check": (
        "n", 0, lambda n: limits.drift_concentration_check(catalog.ExampleSpec("ex3"), (0.5, 0.5), 0.6, n)
    ),
    "cli.check_config.steps": ("steps", 0, lambda n: cli.check_config({**_CONFIG, "steps": n})),
    "cli.check_config.traj": ("traj", 1, lambda n: cli.check_config({**_CONFIG, "traj": n})),
}


@pytest.mark.parametrize("entry", sorted(_COUNTS))
def test_every_count_follows_the_one_integer_rule(entry):
    """core.check_integer guards every count: a bool, a float (integral or
    not, NaN included) and a value below the least are refused with its
    messages, and a numpy integer gives the result of the equal int."""
    name, least, call = _COUNTS[entry]
    for bad in (True, 2.0, 2.5, float("nan")):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            call(bad)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be >= {least}")):
        call(least - 1)
    assert call(np.int64(least + 3)) == call(least + 3)
