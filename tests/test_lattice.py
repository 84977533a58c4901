import numpy as np
import pytest

from oqrw import catalog, core, lattice
from oqrw.core import validate_kraus_pair
from oqrw.distribution import compare
from oqrw.exceptions import SizeError, SumError

from conftest import brute_force_laws, make_random_pairs


def hadamard_like():
    return catalog.build(catalog.ExampleSpec("ex2"))


def test_initial_state_places_rho_at_site(rho_half):
    s = lattice.initial_state(rho_half, site=3)
    assert s.lo == 3 and s.step_count == 0
    assert s.rows.shape == (1, 4) and s.rows.dtype == float
    np.testing.assert_array_equal(core.from_pauli(s.rows[0]), rho_half)


def test_initial_state_validates(rho_half):
    with pytest.raises(ValueError):
        lattice.initial_state(np.diag([0.7, 0.7]))


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


def test_evolve_against_brute_force(rho_half):
    for kp in make_random_pairs(3, seed=99):
        oracle = brute_force_laws(kp, rho_half, 8)
        s = lattice.initial_state(rho_half)
        for n in range(9):
            d = lattice.distribution(s)
            got = {int(x): p for x, p in d.items()}
            want = {int(x): p for x, p in oracle[n].items()}
            assert set(got) <= set(want) | {0}
            for x, p in want.items():
                assert got.get(x, 0.0) == pytest.approx(p, abs=1e-12)
            s = lattice.evolve(kp, s, 1)


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
    with pytest.raises(SizeError):
        lattice.evolve(kp, s, 10**6)
    # the bound is read when the call is made
    monkeypatch.setattr(core, "MAX_SITES", 9)
    lattice.evolve(kp, s, 4)
    with pytest.raises(SizeError):
        lattice.evolve(kp, s, 5)


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
    n = 9
    rows = np.zeros((4, 4))
    rows[0] = rows[3] = core.to_pauli(rho_half) / 2
    both = lattice.distribution(lattice.evolve(example_pair, lattice.LatticeState(-3, rows, 0), n))
    laws = [
        lattice.distribution(lattice.evolve(example_pair, lattice.initial_state(rho_half, site), n))
        for site in (-3, 3)
    ]
    for x in range(-3 - n, 3 + n + 1):
        want = (laws[0].prob(x) + laws[1].prob(x)) / 2
        assert both.prob(x) == pytest.approx(want, abs=1e-14)


def test_window_holds_only_the_sites_of_its_parity(rho_half):
    # from one start every row of the window is a site of the parity of n:
    # ex5 from I/2 at n = 4000 has 461 sites above PRUNE_TRACE and no zero row
    kp = catalog.build(catalog.ExampleSpec("ex5"))
    s = lattice.evolve(kp, lattice.initial_state(rho_half), 4000)
    assert len(s.rows) == 461
    assert np.all(s.rows[:, 0] >= lattice.PRUNE_TRACE)
    assert (s.lo - 4000) % 2 == 0
