import functools

import numpy as np
import pytest

from oqrw import catalog, core, lattice
from oqrw.core import validate_kraus_pair
from oqrw.distribution import compare
from oqrw.exceptions import ResidueError, SizeError, SumError

from conftest import brute_force_laws, make_random_pairs


def hadamard_like():
    return catalog.build(catalog.ExampleSpec("ex2"))


def test_initial_state_places_rho_at_site(rho_half):
    # initial_state starts at the origin; a start at another site is a raw
    # LatticeState whose lo the caller owns, and evolves to the shifted law
    s = lattice.initial_state(rho_half)
    assert s.lo == 0 and s.step_count == 0
    assert s.rows.shape == (1, 4) and s.rows.dtype == float
    np.testing.assert_array_equal(core.from_pauli(s.rows[0]), rho_half)
    kp = hadamard_like()
    origin = lattice.distribution(lattice.evolve(kp, s, 9))
    for site in (3, np.int64(-3)):
        law = lattice.distribution(lattice.evolve(kp, lattice.LatticeState(site, s.rows, 0), 9))
        np.testing.assert_array_equal(law.sites, origin.sites + site)
        np.testing.assert_array_equal(law.probs, origin.probs)


def test_initial_state_validates():
    with pytest.raises(ValueError):
        lattice.initial_state(np.diag([0.7, 0.7]))


def test_negative_row_raises_instead_of_being_pruned(example_pair, rho_half):
    # a row of trace -1e-10 leaves the mass within MASS_TOL of 1, so only the
    # per-block check stands between it and a law
    rows = np.stack([core.to_pauli(rho_half), -1e-10 * core.to_pauli(rho_half)])
    with pytest.raises(ResidueError, match="negative trace"):
        lattice.evolve(example_pair, lattice.LatticeState(0, rows, 0), 8)


def test_single_step_splits_mass(rho_half):
    kp = hadamard_like()
    s = lattice.evolve(kp, lattice.initial_state(rho_half), 1)
    d = lattice.distribution(s)
    assert sorted(d.sites) == [-1, 1]
    assert d.total() == pytest.approx(1.0, abs=1e-14)
    assert s.step_count == 1


def test_step_moves_b_mass_left():
    # B = identity, C = 0 pushes everything one site to the left each step
    kp = validate_kraus_pair(np.eye(2), np.zeros((2, 2)))
    s = lattice.evolve(kp, lattice.initial_state(np.diag([0.5, 0.5]).astype(complex)), 5)
    d = lattice.distribution(s)
    assert list(d.sites) == [-5]
    assert d.prob(-5) == pytest.approx(1.0)


def _assert_law(d, want):
    got = {int(x): p for x, p in d.items()}
    want = {int(x): p for x, p in want.items()}
    assert set(got) <= set(want) | {0}
    for x, p in want.items():
        assert got.get(x, 0.0) == pytest.approx(p, abs=1e-12)


def test_evolve_against_brute_force(rho_half):
    # one step at a time, and whole calls of 0 ... 12 steps, which end before,
    # on and after the first block boundary
    for kp in make_random_pairs(3, seed=99):
        oracle = brute_force_laws(kp, rho_half, 12)
        s0 = lattice.initial_state(rho_half)
        s = s0
        for n in range(13):
            _assert_law(lattice.distribution(s), oracle[n])
            _assert_law(lattice.distribution(lattice.evolve(kp, s0, n)), oracle[n])
            s = lattice.evolve(kp, s, 1)


def _rows_on(s, n):
    """The rows of s on the sites -n, -n + 2, ..., n, zero where s has none."""
    out = np.zeros((n + 1, 4))
    first = (s.lo + n) // 2
    out[first : first + len(s.rows)] = s.rows
    return out


@pytest.mark.parametrize("a, b", [(3, 5), (8, 9), (13, 63)])
def test_evolve_composes(a, b):
    # splitting n steps into two calls moves the block boundaries and the
    # pruning; the rows still agree to a few ulps
    rhos = (np.eye(2) / 2, np.diag([1.0, 0.0]), np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
    pairs = [catalog.build(spec) for spec in catalog.all_examples()] + make_random_pairs(3, seed=5)
    for kp in pairs:
        for rho in rhos:
            s = lattice.initial_state(rho)
            two = lattice.evolve(kp, lattice.evolve(kp, s, a), b)
            one = lattice.evolve(kp, s, a + b)
            assert two.step_count == one.step_count == a + b
            np.testing.assert_allclose(
                _rows_on(two, a + b), _rows_on(one, a + b), rtol=0, atol=4 * np.finfo(float).eps
            )


def test_total_trace_conserved(example_pair, rho_half):
    s = lattice.evolve(example_pair, lattice.initial_state(rho_half), 25)
    assert lattice.distribution(s).total() == pytest.approx(1.0, abs=1e-12)
    assert s.step_count == 25


def test_parity_support(example_pair, rho_half):
    s = lattice.evolve(example_pair, lattice.initial_state(rho_half), 7)
    d = lattice.distribution(s)
    assert all((x + 7) % 2 == 0 for x in d.sites)


def test_evolve_rejects_negative_and_oversize(rho_half, monkeypatch):
    kp = hadamard_like()
    s = lattice.initial_state(rho_half)
    with pytest.raises(ValueError):
        lattice.evolve(kp, s, -1)
    for n in (3.0, 2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            lattice.evolve(kp, s, n)
    assert lattice.evolve(kp, s, np.int64(3)).step_count == 3
    with pytest.raises(SizeError):
        lattice.evolve(kp, s, 10**6)
    # the bound is read when the call is made
    monkeypatch.setattr(core, "MAX_SITES", 9)
    lattice.evolve(kp, s, 4)
    with pytest.raises(SizeError):
        lattice.evolve(kp, s, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolve_refuses_start_rows_that_are_not_finite(bad):
    # NaN passes the negative-trace test and fails the prune test: unchecked,
    # the row would be zeroed unseen and only a later distribution call raise
    rows = np.array([[1.0, 0, 0, 0], [bad, 0, 0, 0]])
    with pytest.raises(ValueError, match="not finite"):
        lattice.evolve(catalog.build(catalog.ExampleSpec("ex5")), lattice.LatticeState(0, rows, 0), 8)


def test_distribution_guards_mass_loss(rho_half):
    # a pair that leaks mass must be caught at the distribution boundary
    rows = np.array([[0.8, 0, 0, 0]])
    bad = lattice.LatticeState(lo=0, rows=rows, step_count=0)
    with pytest.raises(SumError):
        lattice.distribution(bad)


def test_pruning_keeps_exact_zero_sites_out(rho_half):
    kp = catalog.build(catalog.ExampleSpec("ex1", {"p": 0.0}))
    # with p=0 the b-sector hops deterministically right, a-sector left
    s = lattice.evolve(kp, lattice.initial_state(np.diag([0.0, 1.0]).astype(complex)), 6)
    d = lattice.distribution(s)
    assert list(d.sites) == [6]


def test_pruning_zeroes_sites_inside_the_gap(rho_half):
    # from I/2 the ex1 law at n = 200 has an interior gap of sub-1e-16 weights;
    # trimming the window at its edges alone would report them
    spec = catalog.parse_example_spec("ex1:p=0.3")
    n = 200
    s = lattice.evolve(catalog.build(spec), lattice.initial_state(rho_half), n)
    d = lattice.distribution(s)
    assert d.probs.min() >= lattice.PRUNE_TRACE
    exact = catalog.closed_form(spec, (0.5, 0.5), n)
    assert compare(d, exact)["max_abs"] <= 1e-12


def test_window_state_evolves_to_mean_of_shifted_laws(example_pair, rho_half):
    # a start window of four rows, over a block of 8 steps and one of 1
    # (n = 9), and over two blocks of 8 and one of 1 (n = 17)
    rows = np.zeros((4, 4))
    rows[0] = rows[3] = core.to_pauli(rho_half) / 2
    one = lattice.initial_state(rho_half).rows
    for n in (9, 17):
        both = lattice.distribution(lattice.evolve(example_pair, lattice.LatticeState(-3, rows, 0), n))
        laws = [
            lattice.distribution(lattice.evolve(example_pair, lattice.LatticeState(site, one, 0), n))
            for site in (-3, 3)
        ]
        for x in range(-3 - n, 3 + n + 1):
            want = (laws[0].prob(x) + laws[1].prob(x)) / 2
            assert both.prob(x) == pytest.approx(want, abs=1e-14)


def test_window_holds_only_the_sites_of_its_parity(rho_half):
    # from one start every row of the window is a site of the parity of n:
    # ex5 from I/2 at n = 4000 has 469 sites above PRUNE_TRACE and no zero row
    # when rows are pruned once per block of 8 steps (the unpruned law has 481
    # sites at or above 1e-16)
    kp = catalog.build(catalog.ExampleSpec("ex5"))
    s = lattice.evolve(kp, lattice.initial_state(rho_half), 4000)
    assert len(s.rows) == 469
    assert np.all(s.rows[:, 0] >= lattice.PRUNE_TRACE)
    assert (s.lo - 4000) % 2 == 0


def _reference_convolve(F, G):
    """The kernel product by one slice add per coefficient of F."""
    FG = F[:, np.newaxis] @ G
    out = np.zeros((len(F) + len(G) - 1, 4, 4))
    for a in range(len(F)):
        out[a : a + len(G)] += FG[a]
    return out


def _reference_block_kernels(kp, n):
    """Kernels of n // 8 blocks of 8 steps and one of n % 8, doubled from the
    per-K einsum branch maps."""
    q, r = divmod(n, 8)
    maps = [np.einsum("aij,...ji->...a", core.PAULI, K @ core.PAULI @ K.conj().T).real / 2 for K in kp]
    pieces = [np.stack(maps)]  # M_K.T for K = B, C
    while 1 << len(pieces) <= (8 if q else r):
        pieces.append(_reference_convolve(pieces[-1], pieces[-1]))
    stacks = [pieces[-1]] * q
    if r:
        stacks.append(functools.reduce(_reference_convolve, [p for bit, p in enumerate(pieces) if r >> bit & 1]))
    return [K.transpose(1, 0, 2).reshape(4, -1) for K in stacks]


def test_block_kernels_keep_their_reference_bits():
    rng = np.random.default_rng(2024)
    pairs = [catalog.build(spec) for spec in catalog.all_examples()] + [core.random_kraus_pair(rng) for _ in range(200)]
    for i, kp in enumerate(pairs):
        for n in (1, 7, 8, 15, 16 + i % 8):
            got, want = lattice._block_kernels(kp, n), _reference_block_kernels(kp, n)
            assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
