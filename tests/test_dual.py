import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqrw import catalog, core, dual, lattice
from oqrw.distribution import compare, finalize, noise_floor
from oqrw.core import I2, apply_adjoint_channel, density_matrix, random_kraus_pair
from oqrw.exceptions import ResidueError, SizeError, SumError

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


def test_symbol_equals_the_kron_formula_bit_for_bit(example_pair):
    """Each Kronecker entry is one product, so the broadcast form is exact."""
    rng = np.random.default_rng(11)
    for kp in [example_pair, *make_random_pairs(6, 12)]:
        B, C = kp
        for k in (0.0, 0.7331, rng.uniform(-np.pi, np.pi, size=9), rng.uniform(-4, 4, size=(2, 3))):
            phase = np.exp(1j * np.asarray(k, dtype=float))[..., None, None]
            want = phase * np.kron(B.conj().T, B.T) + np.kron(C.conj().T, C.T) / phase
            got = dual.dual_symbol(kp, k)
            assert got.shape == np.shape(k) + (4, 4)
            assert np.array_equal(got, want)


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


def test_non_integral_n_is_refused(ex5_pair, rho_half):
    for n in (3.0, 2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            dual.distribution_via_dual(ex5_pair, rho_half, n)
        with pytest.raises(ValueError, match="n must be an integer"):
            dual.dual_power(ex5_pair, 0.3, n)
    assert dual.distribution_via_dual(ex5_pair, rho_half, np.int64(3)) == dual.distribution_via_dual(ex5_pair, rho_half, 3)


def test_grid_size_guard(ex5_pair):
    # 2n + 2 nodes over the shared bound: refused before anything is allocated
    with pytest.raises(SizeError):
        dual.distribution_via_dual(ex5_pair, np.eye(2) / 2, 10**8)
    with pytest.raises(SizeError):
        dual.dual_power(ex5_pair, 0.3, 10**8)


def _full_grid_laws(kp, rho0s, n):
    """The raw laws from all 2n+2 nodes in [0, 2pi), the symbol applied one
    step at a time and a complex inverse FFT on every site of [-n, n]: the
    reference for the parity grid, before finalize."""
    size = 2 * n + 2
    sym = dual.dual_symbol(kp, 2 * np.pi * np.arange(size) / size)
    v = np.broadcast_to(I2.reshape(4), (size, 4)).astype(complex)[..., None]
    for _ in range(n):
        v = sym @ v
    sites = np.arange(-n, n + 1)
    for rho0 in rho0s:
        yield sites, np.fft.ifft(v[..., 0] @ rho0.T.reshape(4))[np.mod(sites, size)].real


def test_half_grid_matches_full_grid(monkeypatch, rho_half):
    """The raw coefficients of the parity grid agree with the full grid's to
    1e-13; the full grid's off-parity sites are roundoff; the floored laws
    differ only on sites within a factor 2 of the floor."""
    raw = []

    def recording_finalize(lo, p, n):
        raw.append((lo, p))
        return finalize(lo, p, n)

    monkeypatch.setattr(dual, "finalize", recording_finalize)
    rho0s = (rho_half, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    pairs = [catalog.build(spec) for spec in catalog.all_examples()] + make_random_pairs(3, seed=29)
    for kp in pairs:
        for n in (0, 1, 2, 7, 63, 64, 1000):
            floor = noise_floor(n)
            for rho0, (ref_sites, ref_p) in zip(rho0s, _full_grid_laws(kp, rho0s, n)):
                got = dual.distribution_via_dual(kp, rho0, n)
                lo, p = raw.pop()
                on_parity = (ref_sites + n) % 2 == 0
                assert lo == -n and np.array_equal(lo + 2 * np.arange(len(p)), ref_sites[on_parity])
                assert np.max(np.abs(p - ref_p[on_parity])) <= 1e-13
                assert np.max(np.abs(ref_p[~on_parity]), initial=0.0) <= floor
                want = finalize(-n, ref_p[on_parity], n)
                for x in np.setxor1d(got.sites, want.sites):
                    assert floor / 2 <= max(got.prob(int(x)), want.prob(int(x))) <= 2 * floor


def test_grid_size_is_the_smallest_5_smooth_length():
    smooth = np.array([m for m in range(1, 6003) if _is_5_smooth(m)])
    for n in range(3001):
        size = dual._grid_size(n)
        assert _is_5_smooth(size) and n + 1 <= size <= 2 * (n + 1)
        assert size == smooth[np.searchsorted(smooth, n + 1)]
    assert dual._grid_size(np.int64(10**5)) == 101250 == 2 * 3**4 * 5**4


def _is_5_smooth(m):
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


def test_check_steps_keeps_the_2n_plus_2_bound(monkeypatch, ex5_pair, rho_half):
    """The guard counts 2n+2 nodes, not the smaller FFT length, so the dual
    and lattice engines refuse the same n."""
    monkeypatch.setattr(core, "MAX_SITES", 100)
    assert dual._grid_size(50) == 54 <= 100
    for run in (
        lambda n: dual.distribution_via_dual(ex5_pair, rho_half, n),
        lambda n: dual.dual_power(ex5_pair, 0.3, n),
        lambda n: lattice.evolve(ex5_pair, lattice.initial_state(rho_half), n),
    ):
        run(49)
        with pytest.raises(SizeError):
            run(50)


RHO_OFFDIAG = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])


def test_laws_do_not_depend_on_the_node_chunk(monkeypatch):
    """Each node's arithmetic is the same for any chunking, so the laws are
    equal; chunks of M/2 and M/2+1 nodes put a boundary just before and just
    after the last of the M/2+1 main nodes, where the mirrored probes begin,
    and a chunk of the M/2+1 main nodes and half the probes puts one among
    the probes."""
    kp = random_kraus_pair(np.random.default_rng(41))
    ns = (0, 1, 63, 5000)
    want = [dual.distribution_via_dual(kp, RHO_OFFDIAG, n) for n in ns]
    for n, w in zip(ns, want):
        size = dual._grid_size(n)
        among_probes = size // 2 + 1 + len(dual._probe_indices(size)) // 2
        for chunk in (1, 7, max(1, size // 2), size // 2 + 1, among_probes):
            monkeypatch.setattr(dual, "_NODE_CHUNK", chunk)
            got = dual.distribution_via_dual(kp, RHO_OFFDIAG, n)
            assert np.array_equal(got.sites, w.sites) and np.array_equal(got.probs, w.probs)


def _two_step_power_vecs(H, z, n):
    """The powering before the trace was fused into it: T(z)^n e for every
    point as one (len(z), d) array, 2048 points at a time, to be contracted
    with r afterwards. The reference for the bits of dual._power_traces."""
    d = H.shape[1]
    HB, HC = H[..., None]
    e = np.zeros((d, 1))
    e[:2] = 1
    out = np.empty((len(z), d), dtype=complex)
    for lo in range(0, len(z), 2048):
        base = HB + z[lo : lo + 2048] * HC
        square, term = np.empty_like(base), np.empty_like(base)
        v = e
        bits = n
        while bits:
            if bits & 1:
                acc = base[:, 0] * v[0]
                for j in range(1, d):
                    acc += base[:, j] * v[j]
                v = acc
            bits >>= 1
            if bits:
                np.multiply(base[:, 0, None], base[None, 0], out=square)
                for j in range(1, d):
                    square += np.multiply(base[:, j, None], base[None, j], out=term)
                base, square = square, base
        out[lo : lo + 2048] = v.T
    return out


def test_fused_trace_keeps_the_two_step_bits():
    """r . T(z)^n e from the fused loop equals the (N, d) vectors of the
    two-step formula times r bit for bit, at the nodes and with the r of
    distribution_via_dual, for d = 2 (ex3), 3 (ex5) and 4 (random pairs);
    and dual_power equals e^{ikn} V y at single momenta."""
    pairs = [catalog.build(catalog.ExampleSpec(ident)) for ident in ("ex3", "ex5")] + make_random_pairs(3, seed=59)
    assert [dual._reachable_block(kp)[0].shape[1] for kp in pairs] == [2, 3, 4, 4, 4]
    for kp in pairs:
        H, V = dual._reachable_block(kp)
        for n in (0, 1, 63, 5000):
            size = dual._grid_size(n)
            tail = size - dual._probe_indices(size)
            m = np.concatenate([np.arange(size // 2 + 1), tail])
            vecs = _two_step_power_vecs(H, np.exp(-2j * np.pi / size * m), n)
            for rho0 in RHO0S:
                r = density_matrix(rho0).T.reshape(4) @ V
                got = dual._power_traces(H, r, n, -2j * np.pi / size, size // 2 + 1, tail)
                assert np.array_equal(got, vecs @ r)
        for k in (0.0, 0.3, -1.7, np.pi / 2, 2.9):
            for n in (0, 1, 63, 5000):
                y = _two_step_power_vecs(H, np.exp(-2j * np.array([k], dtype=float)), n)[0]
                assert np.array_equal(dual.dual_power(kp, k, n), (np.exp(1j * k * n) * (V @ y)).reshape(2, 2))


def test_power_traces_matches_matrix_power_per_node():
    """The chunked powering of the reduced block against numpy's matrix_power
    node by node, over enough nodes that the last chunk is a partial one:
    with r the identity the traces are the vectors T^n e, and with r = V
    they are mapped back through V against the n-th power of the 4x4 dual
    symbol."""
    kp = random_kraus_pair(np.random.default_rng(43))
    H, V = dual._reachable_block(kp)
    for n in (0, 63, 5000):
        size = 2 * n + 2
        k = 2 * np.pi * np.arange(n + 10) / size
        got = dual._power_traces(H, np.eye(4), n, -2j, 0, k)
        assert got.shape == (n + 10, 4)
        power = np.linalg.matrix_power(H[0] + np.exp(-2j * k)[:, None, None] * H[1], n)
        want = power[..., 0] + power[..., 1]  # the coordinates of I are (1, 1, 0, 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        symbol = np.linalg.matrix_power(dual.dual_symbol(kp, k), n) @ I2.reshape(4)
        np.testing.assert_allclose(
            np.exp(1j * k * n)[:, None] * dual._power_traces(H, V, n, -2j, 0, k),
            symbol,
            rtol=0,
            atol=min(1e-12, 4 * (n + 1) * np.finfo(float).eps),
        )


def test_dual_law_memory_stays_small(rho_half):
    """No (N, 4, 4) symbol stack: the traced peak of ex5 at n = 20000 stays
    under 8 MB, where a full stack of the 20,010 nodes' symbols alone takes
    5.1 MB. No (N, d) vector array and one working set per law: at n = 1e5
    the traced peak of ex4 (d = 4) stays under 3.4 MB, where the 50,634
    nodes' vectors alone take 3.2 MB, chunk arrays that lived until the next
    chunk's replaced them peaked at 4.2 MB and the two-step formula at
    7.3 MB; that of ex5 (d = 3) stays under 2.5 MB, where it was 3.0 MB. No
    site array, and psi freed before finalize: at n = 499,999 the peak of
    ex4, psi and the real FFT's output, stays under 8.5 MB, where it was
    12.8 MB."""
    ex4 = catalog.ExampleSpec("ex4", {"eps": 0.2, "theta": 1.9})
    cases = (
        (catalog.ExampleSpec("ex5"), 20000, 8e6),
        (ex4, 100_000, 3.4e6),
        (catalog.ExampleSpec("ex5"), 100_000, 2.5e6),
        (ex4, 499_999, 8.5e6),
    )
    for spec, n, bound in cases:
        kp = catalog.build(spec)
        dual.distribution_via_dual(kp, rho_half, n)
        tracemalloc.start()
        try:
            dual.distribution_via_dual(kp, rho_half, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (spec.id, n, peak)


# The grid points z_m = e^{-2ik_m}: the M/2+1 nodes in [0, pi/2] have
# Im z <= 0, the mirrored probes in (pi/2, pi) have Im z >= sin(2pi/M) > 0,
# and k = 0 is z = 1 exactly.


def test_symmetry_guard_flags_corrupted_mirror_nodes(monkeypatch, example_pair, rho_half):
    """Corrupt what the inversion does not read: the mirrored probes in
    (pi/2, pi), and the imaginary part of the trace at k = 0. The laws stay
    bit-identical with the guard off, and the guard refuses them."""
    clean = dual._power_traces

    def corrupted(H, r, n, step, count, tail):
        psi = clean(H, r, n, step, count, tail)
        z = np.exp(step * np.concatenate([np.arange(count), tail]))
        psi[z.imag > 1e-9] += 1e-6 * r.sum()  # every coordinate of T^n e gains 1e-6
        psi[z == 1] += 1e-6j * r[:2].sum()  # I = E00 + E11, and Tr(rho0 I) = 1: psi_0 gains 1e-6 i
        return psi

    ns = (1, 7, 40)
    want = [dual.distribution_via_dual(example_pair, rho_half, n) for n in ns]
    monkeypatch.setattr(dual, "_power_traces", corrupted)
    with monkeypatch.context() as guard_off:
        guard_off.setattr(dual, "SYMMETRY_TOL", np.inf)
        for n, w in zip(ns, want):
            got = dual.distribution_via_dual(example_pair, rho_half, n)
            assert np.array_equal(got.sites, w.sites) and np.array_equal(got.probs, w.probs)
    for n in ns:
        with pytest.raises(ResidueError, match="conjugate-symmetry defect"):
            dual.distribution_via_dual(example_pair, rho_half, n)


def test_symmetry_guard_reads_the_mirrored_probes_alone(monkeypatch, example_pair, rho_half):
    clean = dual._power_traces

    def mirrors_only(H, r, n, step, count, tail):
        z = np.exp(step * np.concatenate([np.arange(count), tail]))
        return clean(H, r, n, step, count, tail) + 1e-6 * r.sum() * (z.imag > 1e-9)

    monkeypatch.setattr(dual, "_power_traces", mirrors_only)
    for n in (7, 40):
        assert len(dual._probe_indices(dual._grid_size(n))) > 0
        with pytest.raises(ResidueError, match="conjugate-symmetry defect"):
            dual.distribution_via_dual(example_pair, rho_half, n)


def test_identity_reaches_the_documented_block():
    """On the basis (E00, E11, sx, sy), I reaches {E00, E11} for ex1-ex3,
    {E00, E11, sx} for ex4 and ex5 and all four coordinates of a generic pair."""
    axes = {"ex1": [0, 1], "ex2": [0, 1], "ex3": [0, 1], "ex4": [0, 1, 2], "ex5": [0, 1, 2]}
    for spec in catalog.all_examples():
        H, V = dual._reachable_block(catalog.build(spec))
        d = len(axes[spec.id])
        assert H.shape == (2, d, d)
        assert np.array_equal(V, dual._V[:, axes[spec.id]])
    for kp in make_random_pairs(8, seed=47):
        H, V = dual._reachable_block(kp)
        assert H.shape == (2, 4, 4) and np.array_equal(V, dual._V)


def test_reduced_block_gives_the_full_block_laws(monkeypatch):
    """With the threshold at -1 every pair keeps all four coordinates; the
    reduced block gives the same support and laws within (n+1) eps."""
    rho0s = (np.eye(2) / 2, RHO_OFFDIAG)
    pairs = [catalog.build(spec) for spec in catalog.all_examples()]
    ns = (1, 63, 3000)
    want = [[dual.distribution_via_dual(kp, rho0, n) for n in ns for rho0 in rho0s] for kp in pairs]
    monkeypatch.setattr(dual, "_REACH_RTOL", -1.0)
    for kp, laws in zip(pairs, want):
        assert dual._reachable_block(kp)[0].shape == (2, 4, 4)
        full = [dual.distribution_via_dual(kp, rho0, n) for n in ns for rho0 in rho0s]
        for n, got, w in zip(np.repeat(ns, len(rho0s)), full, laws):
            assert np.array_equal(got.sites, w.sites)
            assert np.max(np.abs(got.probs - w.probs)) <= (n + 1) * np.finfo(float).eps


def test_a_small_real_coupling_keeps_every_coordinate():
    """ex4 turned by a unitary 1e-9 from the identity couples the reached
    coordinates to sy by about 1e-9: far above roundoff, so nothing is
    dropped."""
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14)
    V = np.cos(1e-9) * I2 + 1j * np.sin(1e-9) * np.tensordot(axis, core.PAULI[1:], axes=1)
    B, C = catalog.build(catalog.ExampleSpec("ex4"))
    kp = core.validate_kraus_pair(B @ V, C @ V)
    assert dual._reachable_block(kp)[0].shape == (2, 4, 4)
    coupling = np.abs(dual._heisenberg_maps(kp)[:, 3, :3]).max()
    assert 1e-11 < coupling < 1e-8
    for n in (1, 63, 1000):
        lat = lattice.distribution(lattice.evolve(kp, lattice.initial_state(RHO_OFFDIAG), n))
        assert compare(dual.distribution_via_dual(kp, RHO_OFFDIAG, n), lat)["max_abs"] <= 1e-12


def test_heisenberg_maps_are_the_transposed_branch_maps():
    """The dual derives H_B, H_C from its own kron factors; in Pauli
    coordinates they are the transposes of the forward engines' branch maps,
    and the symbol in the basis V is e^{ik} H_B + e^{-ik} H_C."""
    # column b holds the Pauli coefficients of V_b: E00 = (I + sz)/2,
    # E11 = (I - sz)/2, sx, sy
    to_pauli = np.array([[0.5, 0.5, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0.5, -0.5, 0, 0]])
    weights = np.array([1, 1, 2, 2])[:, None]
    pairs = [catalog.build(spec) for spec in catalog.all_examples()] + make_random_pairs(6, seed=53)
    k = np.array([0.0, 0.7331, -2.2, np.pi / 2])
    for kp in pairs:
        H = dual._heisenberg_maps(kp)
        assert H.dtype == float and H.shape == (2, 4, 4)
        for Hi, M in zip(H, core.branch_maps(kp)):
            np.testing.assert_allclose(to_pauli @ Hi, M.T @ to_pauli, rtol=0, atol=1e-15)
        in_basis = dual._V.conj().T @ dual.dual_symbol(kp, k) @ dual._V / weights
        want = np.exp(1j * k)[:, None, None] * H[0] + np.exp(-1j * k)[:, None, None] * H[1]
        np.testing.assert_allclose(in_basis, want, rtol=0, atol=1e-15)


def _parity_spectrum(coeff):
    """psi on the parity grid of n = len(coeff) - 1, split as _invert_traces
    takes it: the M/2+1 nodes in [0, pi/2], the mirrored probes, the probe
    indices and the grid size M."""
    size = dual._grid_size(len(coeff) - 1)
    probes = dual._probe_indices(size)
    psi = np.fft.fft(coeff, size)
    return psi[: size // 2 + 1], psi[size - probes], probes, size


def test_invert_traces_residue_guard():
    # a real spectrum with a coefficient below the roundoff floor is refused, not filtered
    coeff = np.zeros(4)
    coeff[0], coeff[1] = 1.0 + 1e-11, -1e-11
    p = dual._invert_traces(*_parity_spectrum(coeff), 3)
    assert p.shape == (4,)  # the sites -3, -1, 1, 3
    np.testing.assert_allclose(p, coeff, rtol=0, atol=1e-16)
    with pytest.raises(ResidueError, match="negative"):
        finalize(-3, p, 3)


def test_imaginary_part_at_the_real_nodes_is_refused():
    """irfft drops Im psi at k = 0 and, for an even grid, at k = pi/2; the
    guard reads them. At n = 1 (M = 2) they are the only check."""
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 7, 40):
        coeff = rng.random(n + 1)
        psi, mirrored, probes, size = _parity_spectrum(coeff / coeff.sum())
        dual._invert_traces(psi, mirrored, probes, size, n)
        nodes = [0, len(psi) - 1] if size % 2 == 0 else [0]
        for m in nodes:
            bad = psi.copy()
            bad[m] += 1e-6j
            with pytest.raises(ResidueError, match="conjugate-symmetry defect"):
                dual._invert_traces(bad, mirrored, probes, size, n)


def test_nan_entry_is_refused_not_emptied(rho_half):
    # the NaN traces pass the symmetry check (NaN > tol is false); finalize's mass check refuses them
    B = np.eye(2, dtype=complex) / np.sqrt(2)
    B[0, 0] = np.nan
    with pytest.raises(SumError, match="nan"):
        dual.distribution_via_dual(core.KrausPair(B, np.eye(2, dtype=complex) / np.sqrt(2)), rho_half, 3)


def test_negated_interior_coefficient_is_refused(ex5_pair, rho_half):
    n = 40
    d = dual.distribution_via_dual(ex5_pair, rho_half, n)
    p = np.zeros(n + 1)  # the parity class -n, -n + 2, ..., n
    p[(d.sites + n) // 2] = d.probs
    assert finalize(-n, p, n) == d
    p[n // 2] *= -1
    with pytest.raises(ResidueError, match="negative"):
        finalize(-n, p, n)


RHO0S = (np.eye(2) / 2, np.diag([1.0, 0.0]), RHO_OFFDIAG)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.sampled_from(RHO0S))
def test_lattice_and_dual_report_the_same_support(seed, n, rho0):
    kp = random_kraus_pair(np.random.default_rng(seed))
    lat = lattice.distribution(lattice.evolve(kp, lattice.initial_state(rho0), n))
    dua = dual.distribution_via_dual(kp, rho0, n)
    assert compare(lat, dua)["max_abs"] <= 1e-12
    assert np.all((dua.sites + n) % 2 == 0)  # no site of the wrong parity is formed
    # a site one engine keeps and the other floors lies within a factor 2 of the floor
    floor = noise_floor(n)
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
    for scale in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            dual.characteristic_function(ex5_pair, rho_half, 4, 1.0, scale=scale)


def test_characteristic_function_refuses_a_scale_that_is_not_real(ex5_pair, rho_half, monkeypatch):
    # refused before any law is formed
    monkeypatch.setattr(dual, "distribution_via_dual", None)
    with pytest.raises(ValueError, match="scale"):
        dual.characteristic_function(ex5_pair, rho_half, 4, 1.0, scale="a")


def test_characteristic_function_matches_direct_sum(ex5_pair, rho_half):
    d = dual.distribution_via_dual(ex5_pair, rho_half, 12)
    t = 0.8
    direct = sum(p * np.exp(1j * t * x / 2.0) for x, p in d.items())
    got = dual.characteristic_function(ex5_pair, rho_half, 12, t, scale=2.0)
    assert got == pytest.approx(direct, abs=1e-13)
