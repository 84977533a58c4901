import numpy as np
import pytest

from oqrw import dual, trajectory
from oqrw.core import validate_kraus_pair
from oqrw.distribution import compare
from oqrw.exceptions import DegenerateJump

from conftest import make_random_pairs


def test_single_step_probabilities(ex5_pair, rho_half):
    s = trajectory.TrajectoryState(rho_half, 0)
    B, C = ex5_pair
    p_b = float(np.trace(B @ rho_half @ B.conj().T).real)
    left = trajectory.trajectory_step(ex5_pair, s, p_b - 1e-9)
    right = trajectory.trajectory_step(ex5_pair, s, p_b + 1e-9)
    assert left.x == -1 and right.x == 1
    assert np.trace(left.rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(right.rho).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(left.rho, left.rho.conj().T, atol=1e-15)


def test_vanishing_branch_forces_other_side():
    # C annihilates e1, so from rho = |e1><e1| the walk can only move left
    kp = validate_kraus_pair(np.diag([1.0, np.sqrt(0.5)]), np.diag([0.0, np.sqrt(0.5)]))
    s = trajectory.TrajectoryState(np.diag([1.0, 0.0]).astype(complex), 0)
    # u close to 1 would select the C branch; its probability vanishes
    out = trajectory.trajectory_step(kp, s, 0.999999)
    assert out.x == -1


def test_degenerate_draw_is_overridden():
    # trajectory_step never renormalizes its input, so a sub-trace state can
    # put the draw on the far side of a branch whose probability is below the
    # degeneracy cutoff; the step must then jump the other way.
    kp = validate_kraus_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    half = trajectory.TrajectoryState(np.diag([0.5, 0.0]).astype(complex), 0)
    out = trajectory.trajectory_step(kp, half, 0.9)  # p_c = 0, draw says right
    assert out.x == -1
    tiny = trajectory.TrajectoryState(np.diag([5e-15, 0.5]).astype(complex), 0)
    out = trajectory.trajectory_step(kp, tiny, 1e-15)  # p_b < cutoff, draw says left
    assert out.x == 1


def test_both_branches_dead_raises():
    kp = validate_kraus_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    dead = trajectory.TrajectoryState(np.zeros((2, 2), dtype=complex), 0)
    with pytest.raises(DegenerateJump):
        trajectory.trajectory_step(kp, dead, 0.5)


def test_sample_reproducible_and_chunk_invariant(ex5_pair, rho_half, monkeypatch):
    a = trajectory.sample(ex5_pair, rho_half, 12, 9000, seed=77)
    b = trajectory.sample(ex5_pair, rho_half, 12, 9000, seed=77)
    assert a.empirical == b.empirical
    assert a.to_json_dict() == b.to_json_dict()
    # each trajectory draws from its own stream, so the chunking cannot matter
    monkeypatch.setattr(trajectory, "CHUNK", 1000)
    c = trajectory.sample(ex5_pair, rho_half, 12, 9000, seed=77)
    assert a.empirical == c.empirical


def test_seed_changes_output(ex5_pair, rho_half):
    a = trajectory.sample(ex5_pair, rho_half, 10, 4000, seed=1)
    b = trajectory.sample(ex5_pair, rho_half, 10, 4000, seed=2)
    assert a.empirical != b.empirical


def test_sample_counts_and_support(ex5_pair, rho_half):
    rep = trajectory.sample(ex5_pair, rho_half, 9, 2500, seed=11)
    assert rep.n_steps == 9 and rep.n_traj == 2500 and rep.seed == 11
    assert rep.empirical.total() == pytest.approx(1.0, abs=1e-12)
    assert all(abs(x) <= 9 and (x + 9) % 2 == 0 for x in rep.empirical.sites)


def test_sample_is_statistically_consistent(rho_half):
    for kp in make_random_pairs(2, seed=31):
        exact = dual.distribution_via_dual(kp, rho_half, 8)
        rep = trajectory.sample(kp, rho_half, 8, 40_000, seed=100)
        assert compare(rep.empirical, exact)["tv_distance"] <= 0.02


def test_sample_single_trajectory_matches_scalar_stepping(ex5_pair, rho_half):
    """The batched path must reproduce the scalar trajectory_step chain."""
    seed, steps, n_traj = 4242, 40, 64
    for kp in (ex5_pair, make_random_pairs(1, seed=17)[0]):
        rep = trajectory.sample(kp, rho_half, steps, n_traj, seed=seed)
        ends = []
        for i in range(n_traj):
            u = np.random.Generator(np.random.Philox(key=[seed, i])).random(steps)
            s = trajectory.TrajectoryState(rho_half, 0)
            for t in range(steps):
                s = trajectory.trajectory_step(kp, s, float(u[t]))
            ends.append(s.x)
        sites, counts = np.unique(ends, return_counts=True)
        np.testing.assert_array_equal(rep.empirical.sites, sites)
        np.testing.assert_array_equal(np.rint(rep.empirical.probs * n_traj), counts)


def test_sample_input_validation(ex5_pair, rho_half):
    with pytest.raises(ValueError):
        trajectory.sample(ex5_pair, rho_half, 5, 0, seed=1)
    with pytest.raises(ValueError):
        trajectory.sample(ex5_pair, rho_half, -1, 10, seed=1)
