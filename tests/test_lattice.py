import numpy as np
import pytest

from oqrw import catalog, lattice
from oqrw.core import validate_kraus_pair
from oqrw.exceptions import SizeError, SumError

from conftest import brute_force_laws, make_random_pairs


def hadamard_like():
    return catalog.build(catalog.ExampleSpec("ex2"))


def test_initial_state_places_rho_at_site(rho_half):
    s = lattice.initial_state(rho_half, site=3)
    assert s.support() == (3, 3)
    np.testing.assert_array_equal(s.block(3), rho_half)
    assert s.block(0).shape == (2, 2)
    assert np.all(s.block(0) == 0)


def test_initial_state_validates(rho_half):
    with pytest.raises(ValueError):
        lattice.initial_state(np.diag([0.7, 0.7]))


def test_single_step_splits_mass(rho_half):
    kp = hadamard_like()
    s = lattice.step(kp, lattice.initial_state(rho_half))
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
            s = lattice.step(kp, s)


def test_total_trace_conserved(example_pair, rho_half):
    s = lattice.evolve(example_pair, lattice.initial_state(rho_half), 25)
    assert s.total_trace() == pytest.approx(1.0, abs=1e-12)
    assert s.step_count == 25


def test_parity_support(example_pair, rho_half):
    s = lattice.evolve(example_pair, lattice.initial_state(rho_half), 7)
    d = lattice.distribution(s)
    assert all((x + 7) % 2 == 0 for x in d.sites)


def test_evolve_rejects_negative_and_oversize(rho_half):
    kp = hadamard_like()
    s = lattice.initial_state(rho_half)
    with pytest.raises(ValueError):
        lattice.evolve(kp, s, -1)
    with pytest.raises(SizeError):
        lattice.evolve(kp, s, 10**6)


def test_distribution_guards_mass_loss(rho_half):
    # a pair that leaks mass must be caught at the distribution boundary
    bad = lattice.LatticeState(
        sites=np.array([0]), blocks=np.array([np.diag([0.4, 0.4])]), step_count=0
    )
    with pytest.raises(SumError):
        lattice.distribution(bad)


def test_state_json_round_trip(rho_half):
    kp = hadamard_like()
    s = lattice.evolve(kp, lattice.initial_state(rho_half), 3)
    back = lattice.lattice_state_from_json(s.to_json_dict(), step_count=s.step_count)
    np.testing.assert_array_equal(back.sites, s.sites)
    np.testing.assert_allclose(back.blocks, s.blocks, atol=0)
    assert back.step_count == 3


def test_pruning_keeps_exact_zero_sites_out(rho_half):
    kp = catalog.build(catalog.ExampleSpec("ex1", {"p": 0.0}))
    # with p=0 the b-sector hops deterministically right, a-sector left
    s = lattice.evolve(kp, lattice.initial_state(np.diag([0.0, 1.0]).astype(complex)), 6)
    d = lattice.distribution(s)
    assert list(d.sites) == [6]
