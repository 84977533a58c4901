import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqrw import catalog, dual, lattice
from oqrw.distribution import ROUNDOFF_SCALE, compare, finalize
from oqrw.core import I2, apply_adjoint_channel, random_kraus_pair
from oqrw.exceptions import ResidueError, SizeError

from conftest import brute_force_laws, make_random_pairs


def test_symbol_at_zero_is_channel_adjoint_superoperator(example_pair):
    rng = np.random.default_rng(5)
    sym = dual.dual_symbol(example_pair, 0.0)
    for _ in range(4):
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            (sym @ X.reshape(4)).reshape(2, 2), apply_adjoint_channel(example_pair, X), atol=1e-15
        )


def test_symbol_hermitian_pairing(example_pair):
    """Y(-k) = Y(k)* entrywise when the generators have real entries."""
    if np.abs(example_pair.B.imag).max() > 0 or np.abs(example_pair.C.imag).max() > 0:
        pytest.skip("conjugation symmetry in this form needs real generators")
    k = 0.7331
    a = dual.dual_symbol(example_pair, k)
    b = dual.dual_symbol(example_pair, -k)
    np.testing.assert_allclose(b, a.conj(), atol=1e-15)


def test_ex5_symbol_matches_explicit_matrix(ex5_pair):
    """The ex5 dual symbol has a known explicit 4x4 form."""
    k = 1.234
    e_p, e_m = np.exp(1j * k), np.exp(-1j * k)
    two_cos = 2 * np.cos(k)
    explicit = (1 / 3) * np.array(
        [
            [two_cos, -e_m, -e_m, e_m],
            [e_p, two_cos, 0, -e_m],
            [e_p, 0, two_cos, -e_m],
            [e_p, e_p, e_p, two_cos],
        ]
    )
    np.testing.assert_allclose(dual.dual_symbol(ex5_pair, k), explicit, atol=1e-15)


def test_dual_power_binary_equals_iterate(example_pair):
    """Square-and-multiply agrees with applying the symbol n times to vec(I)."""
    op = dual.dual_symbol(example_pair, 0.9)
    for n in (0, 1, 7, 40):
        v = I2.reshape(4)
        for _ in range(n):
            v = op @ v
        np.testing.assert_allclose(dual.dual_power(example_pair, 0.9, n), v.reshape(2, 2), atol=1e-12)
    with pytest.raises(ValueError):
        dual.dual_power(example_pair, 0.9, -1)


def test_dual_power_is_rho0_free():
    """The k-evolution never sees the initial state; only the final trace does."""
    sig = inspect.signature(dual.dual_power)
    assert "rho0" not in sig.parameters
    assert "rho" not in sig.parameters


def test_power_one_step_trace(example_pair, rho_half):
    # Tr(rho0 Y_1(k)) = e^{ik} p_{-1} + e^{-ik} p_{+1}
    k = 0.37
    Y1 = dual.dual_power(example_pair, k, 1)
    got = np.trace(rho_half @ Y1)
    B, C = example_pair
    p_left = np.trace(B @ rho_half @ B.conj().T).real
    p_right = np.trace(C @ rho_half @ C.conj().T).real
    want = np.exp(1j * k) * p_left + np.exp(-1j * k) * p_right
    assert got == pytest.approx(want, abs=1e-14)


def test_distribution_matches_brute_force(rho_half):
    for kp in make_random_pairs(3, seed=17):
        oracle = brute_force_laws(kp, rho_half, 9)
        for n in (0, 1, 4, 9):
            d = dual.distribution_via_dual(kp, rho_half, n)
            r = compare(d, oracle[n])
            assert r["max_abs"] <= 1e-12


def test_distribution_matches_lattice_large_n(example_pair, rho_half):
    n = 200
    d_dual = dual.distribution_via_dual(example_pair, rho_half, n)
    d_lat = lattice.distribution(lattice.evolve(example_pair, lattice.initial_state(rho_half), n))
    assert compare(d_dual, d_lat)["max_abs"] <= 1e-10


def test_nonsquare_rho_rejected(ex5_pair):
    with pytest.raises(ValueError):
        dual.distribution_via_dual(ex5_pair, np.diag([0.7, 0.7]), 3)
    with pytest.raises(ValueError):
        dual.distribution_via_dual(ex5_pair, np.eye(2) / 2, -2)


def test_grid_size_guard(ex5_pair):
    # 2n + 2 nodes over the shared bound: refused before anything is allocated
    with pytest.raises(SizeError):
        dual.distribution_via_dual(ex5_pair, np.eye(2) / 2, 10**8)
    with pytest.raises(SizeError):
        dual.dual_power(ex5_pair, 0.3, 10**8)


def _full_grid_laws(kp, rho0s, n):
    """The laws from all 2n+2 nodes in [0, 2pi), the symbol applied one step
    at a time and a complex inverse FFT: the reference for the half grid,
    floored by the same finalize step."""
    size = 2 * n + 2
    sym = dual.dual_symbol(kp, 2 * np.pi * np.arange(size) / size)
    v = np.broadcast_to(I2.reshape(4), (size, 4)).astype(complex)[..., None]
    for _ in range(n):
        v = sym @ v
    sites = np.arange(-n, n + 1)
    for rho0 in rho0s:
        p = np.fft.ifft(v[..., 0] @ rho0.T.reshape(4))[np.mod(sites, size)].real
        yield finalize(sites, p, n)


def test_half_grid_matches_full_grid(rho_half):
    rho0s = (rho_half, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    pairs = [catalog.build(spec) for spec in catalog.all_examples()] + make_random_pairs(3, seed=29)
    for kp in pairs:
        for n in (0, 1, 2, 7, 63, 64, 1000):
            for rho0, want in zip(rho0s, _full_grid_laws(kp, rho0s, n)):
                got = dual.distribution_via_dual(kp, rho0, n)
                assert compare(got, want)["max_abs"] <= 1e-13


RHO_OFFDIAG = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])


def test_laws_do_not_depend_on_the_node_chunk(monkeypatch):
    """Each node's arithmetic is the same for any chunking, so the laws are equal."""
    kp = random_kraus_pair(np.random.default_rng(41))
    ns = (0, 1, 63, 5000)
    want = [dual.distribution_via_dual(kp, RHO_OFFDIAG, n) for n in ns]
    for chunk in (1, 7):
        monkeypatch.setattr(dual, "_NODE_CHUNK", chunk)
        for n, w in zip(ns, want):
            got = dual.distribution_via_dual(kp, RHO_OFFDIAG, n)
            assert np.array_equal(got.sites, w.sites) and np.array_equal(got.probs, w.probs)


def test_power_vecs_matches_matrix_power_per_node():
    """The chunked powering against numpy's matrix_power node by node, over
    enough nodes that the last chunk is a partial one."""
    kp = random_kraus_pair(np.random.default_rng(43))
    for n in (0, 5000):
        size = 2 * n + 2
        k = 2 * np.pi * np.arange(n + 10) / size
        got = dual._power_vecs(kp, k, n)
        assert got.shape == (n + 10, 4)
        want = np.linalg.matrix_power(dual.dual_symbol(kp, k), n) @ I2.reshape(4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_dual_law_memory_stays_small(ex5_pair, rho_half):
    """No (N, 4, 4) symbol stack: the traced peak at n = 20000 stays under
    8 MB, where a full stack of the 20,010 nodes' symbols alone takes 5.1 MB."""
    dual.distribution_via_dual(ex5_pair, rho_half, 20000)
    tracemalloc.start()
    try:
        dual.distribution_via_dual(ex5_pair, rho_half, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_symmetry_guard_flags_corrupted_mirror_nodes(monkeypatch, example_pair, rho_half):
    clean = dual.dual_symbol

    def corrupted(kp, k):
        # perturb every symbol beyond pi, which only the mirrored check nodes reach
        return clean(kp, k) + 1e-6 * (np.asarray(k) > np.pi)[..., None, None]

    for n in (1, 7, 40):
        dual.distribution_via_dual(example_pair, rho_half, n)
    monkeypatch.setattr(dual, "dual_symbol", corrupted)
    for n in (1, 7, 40):
        with pytest.raises(ResidueError, match="conjugate-symmetry defect"):
            dual.distribution_via_dual(example_pair, rho_half, n)


def test_invert_traces_residue_guard():
    # a real spectrum with a coefficient below the roundoff floor is refused, not filtered
    coeff = np.zeros(8)
    coeff[0], coeff[1] = 1.0 + 1e-11, -1e-11
    phi = np.fft.fft(coeff)
    sites, p = dual._invert_traces(phi[:5], phi[8 - dual._probe_indices(3)], 3)
    with pytest.raises(ResidueError, match="negative"):
        finalize(sites, p, 3)


def test_negated_interior_coefficient_is_refused(ex5_pair, rho_half):
    n = 40
    d = dual.distribution_via_dual(ex5_pair, rho_half, n)
    p = d.probs.copy()
    p[len(p) // 2] *= -1
    finalize(d.sites, d.probs, n)
    with pytest.raises(ResidueError, match="negative"):
        finalize(d.sites, p, n)


RHO0S = (np.eye(2) / 2, np.diag([1.0, 0.0]), RHO_OFFDIAG)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.sampled_from(RHO0S))
def test_lattice_and_dual_report_the_same_support(seed, n, rho0):
    kp = random_kraus_pair(np.random.default_rng(seed))
    lat = lattice.distribution(lattice.evolve(kp, lattice.initial_state(rho0), n))
    dua = dual.distribution_via_dual(kp, rho0, n)
    assert compare(lat, dua)["max_abs"] <= 1e-12
    # a site one engine keeps and the other floors lies within a factor 2 of the floor
    floor = ROUNDOFF_SCALE * (n + 1) * np.finfo(float).eps
    for x in np.setxor1d(lat.sites, dua.sites):
        assert floor / 2 <= max(lat.prob(int(x)), dua.prob(int(x))) <= 2 * floor


def test_characteristic_function_scalar_and_array(ex5_pair, rho_half):
    val = dual.characteristic_function(ex5_pair, rho_half, 4, 0.0)
    assert isinstance(val, complex)
    assert val == pytest.approx(1.0)
    ts = np.array([-0.5, 0.0, 0.5])
    arr = dual.characteristic_function(ex5_pair, rho_half, 4, ts)
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(1.0)
    # symmetric law: phi(t) real and even
    assert arr[0] == pytest.approx(arr[2].conjugate(), abs=1e-14)
    with pytest.raises(ValueError):
        dual.characteristic_function(ex5_pair, rho_half, 4, 1.0, scale=0.0)


def test_characteristic_function_matches_direct_sum(ex5_pair, rho_half):
    d = dual.distribution_via_dual(ex5_pair, rho_half, 12)
    t = 0.8
    direct = sum(p * np.exp(1j * t * x / 2.0) for x, p in d.items())
    got = dual.characteristic_function(ex5_pair, rho_half, 12, t, scale=2.0)
    assert got == pytest.approx(direct, abs=1e-13)
