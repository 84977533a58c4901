import hashlib
import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from oqrw import catalog, cli, core, dual, trajectory
from oqrw.core import KrausPair, validate_kraus_pair
from oqrw.distribution import compare
from oqrw.exceptions import DegenerateJump, ParameterError, SizeError
from oqrw.trajectory import DEGENERATE_TOL

from conftest import make_random_pairs


@dataclass(frozen=True)
class TrajectoryState:
    rho: np.ndarray
    x: int


def trajectory_step(kp: KrausPair, s: TrajectoryState, u: float) -> TrajectoryState:
    """One jump driven by the uniform draw u in [0, 1): the scalar oracle for
    the batched kernel in trajectory.sample."""
    B, C = kp
    cand_b = B @ s.rho @ B.conj().T
    cand_c = C @ s.rho @ C.conj().T
    p_b = float(np.trace(cand_b).real)
    p_c = float(np.trace(cand_c).real)
    if p_b < DEGENERATE_TOL and p_c < DEGENERATE_TOL:
        raise DegenerateJump(f"both branch probabilities vanish (p_b={p_b:.3e}, p_c={p_c:.3e})")
    take_b = u < p_b
    # A branch of vanishing probability can only be selected when u sits within
    # 1e-14 of the boundary; jump the other way deterministically instead.
    if take_b and p_b < DEGENERATE_TOL:
        take_b = False
    elif not take_b and p_c < DEGENERATE_TOL:
        take_b = True
    if take_b:
        rho = cand_b / p_b
        x = s.x - 1
    else:
        rho = cand_c / p_c
        x = s.x + 1
    rho = (rho + rho.conj().T) / 2
    return TrajectoryState(rho, x)


def test_single_step_probabilities(ex5_pair, rho_half):
    s = TrajectoryState(rho_half, 0)
    B, C = ex5_pair
    p_b = float(np.trace(B @ rho_half @ B.conj().T).real)
    left = trajectory_step(ex5_pair, s, p_b - 1e-9)
    right = trajectory_step(ex5_pair, s, p_b + 1e-9)
    assert left.x == -1 and right.x == 1
    assert np.trace(left.rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(right.rho).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(left.rho, left.rho.conj().T, atol=1e-15)


def test_vanishing_branch_forces_other_side():
    # C annihilates e1, so from rho = |e1><e1| the walk can only move left
    kp = validate_kraus_pair(np.diag([1.0, np.sqrt(0.5)]), np.diag([0.0, np.sqrt(0.5)]))
    s = TrajectoryState(np.diag([1.0, 0.0]).astype(complex), 0)
    # u close to 1 would select the C branch; its probability vanishes
    out = trajectory_step(kp, s, 0.999999)
    assert out.x == -1


def test_degenerate_draw_is_overridden():
    # trajectory_step never renormalizes its input, so a sub-trace state can
    # put the draw on the far side of a branch whose probability is below the
    # degeneracy cutoff; the step must then jump the other way.
    kp = validate_kraus_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    half = TrajectoryState(np.diag([0.5, 0.0]).astype(complex), 0)
    out = trajectory_step(kp, half, 0.9)  # p_c = 0, draw says right
    assert out.x == -1
    tiny = TrajectoryState(np.diag([5e-15, 0.5]).astype(complex), 0)
    out = trajectory_step(kp, tiny, 1e-15)  # p_b < cutoff, draw says left
    assert out.x == 1


def test_both_branches_dead_raises():
    kp = validate_kraus_pair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    dead = TrajectoryState(np.zeros((2, 2), dtype=complex), 0)
    with pytest.raises(DegenerateJump):
        trajectory_step(kp, dead, 0.5)


def test_sample_reproducible_and_chunk_invariant(ex5_pair, rho_half, monkeypatch):
    a = trajectory.sample(ex5_pair, rho_half, 12, 9000, seed=77)
    b = trajectory.sample(ex5_pair, rho_half, 12, 9000, seed=77)
    assert a.empirical == b.empirical
    assert a.to_json_dict() == b.to_json_dict()
    # each trajectory draws from its own stream, so the chunking cannot matter
    monkeypatch.setattr(trajectory, "CHUNK", 1000)
    c = trajectory.sample(ex5_pair, rho_half, 12, 9000, seed=77)
    assert a.empirical == c.empirical


def test_sample_draws_in_step_blocks(ex5_pair, rho_half, monkeypatch):
    """A chunk holds at most STEP_BLOCK steps of draws, and the report does
    not depend on the block length."""
    want = trajectory.sample(ex5_pair, rho_half, 21, 300, seed=5)
    widths = []
    uniforms = trajectory._uniforms

    def spy(seed, lo, hi, n_steps, start=0):
        widths.append(n_steps)
        return uniforms(seed, lo, hi, n_steps, start)

    monkeypatch.setattr(trajectory, "_uniforms", spy)
    for block in (4, 8):
        widths.clear()
        monkeypatch.setattr(trajectory, "STEP_BLOCK", block)
        got = trajectory.sample(ex5_pair, rho_half, 21, 300, seed=5)
        assert got.to_json_dict() == want.to_json_dict()
        assert sum(widths) == 21 and max(widths) == block


def test_numpy_integer_arguments_give_the_same_json(ex5_pair, rho_half):
    # the report holds Python ints, so json.dumps takes it as it takes the ints'
    want = json.dumps(trajectory.sample(ex5_pair, rho_half, 3, 10, 1).to_json_dict())
    for args in ((np.int64(3), 10, 1), (3, np.int64(10), 1), (3, 10, np.uint64(1))):
        assert json.dumps(trajectory.sample(ex5_pair, rho_half, *args).to_json_dict()) == want


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
            s = TrajectoryState(rho_half, 0)
            for t in range(steps):
                s = trajectory_step(kp, s, float(u[t]))
            ends.append(s.x)
        sites, counts = np.unique(ends, return_counts=True)
        np.testing.assert_array_equal(rep.empirical.sites, sites)
        np.testing.assert_array_equal(np.rint(rep.empirical.probs * n_traj), counts)


def test_sample_input_validation(ex5_pair, rho_half):
    with pytest.raises(ValueError):
        trajectory.sample(ex5_pair, rho_half, 5, 0, seed=1)
    with pytest.raises(ValueError):
        trajectory.sample(ex5_pair, rho_half, -1, 10, seed=1)


def test_bool_n_steps_is_refused(ex5_pair, rho_half):
    # bool is an Integral: True would run one step and report "n_steps": true
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        trajectory.sample(ex5_pair, rho_half, True, 10, seed=1)


def test_fractional_n_steps_is_refused(ex5_pair, rho_half):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        trajectory.sample(ex5_pair, rho_half, 2.5, 10, seed=1)


def test_float_n_traj_is_refused(ex5_pair, rho_half):
    # refused even when integral in value, like the lattice and dual n
    with pytest.raises(ValueError, match="n_traj must be an integer"):
        trajectory.sample(ex5_pair, rho_half, 5, 10.0, seed=1)


def test_sample_size_guard(monkeypatch, ex5_pair, rho_half):
    # 2n + 1 count bins over the bound: refused before anything is allocated
    monkeypatch.setattr(core, "MAX_SITES", 20)
    trajectory.sample(ex5_pair, rho_half, 9, 10, seed=1)
    with pytest.raises(SizeError):
        trajectory.sample(ex5_pair, rho_half, 10, 10, seed=1)


def _fresh_stream_rows(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """One new Generator(Philox) per trajectory: the definition of the streams."""
    return np.array(
        [
            np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64))).random(n)
            for i in range(lo, hi)
        ]
    ).reshape(hi - lo, n)


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("n_steps", [0, 1, 21, 1000])
def test_rekeyed_draws_match_fresh_generators(seed, n_steps):
    # 21 is not a multiple of the four doubles of a Philox block, so a buffer
    # left over from one trajectory would leak into the next; lo > 0 checks
    # the offset of a later chunk, and 5..135 spans three transposed tiles
    for lo, hi in ((0, 7), (4093, 4100), (5, 135)):
        np.testing.assert_array_equal(
            trajectory._uniforms(seed, lo, hi, n_steps), _fresh_stream_rows(seed, lo, hi, n_steps).T
        )


@pytest.mark.parametrize("start", [4, 20, 996])
def test_draws_from_a_later_step_continue_the_stream(start):
    # a block of steps start .. start + n - 1 must be that slice of each
    # trajectory's stream, which is what lets sample draw a long walk in blocks
    n = 9
    full = _fresh_stream_rows(2**63 + 5, 4093, 4100, start + n)
    np.testing.assert_array_equal(trajectory._uniforms(2**63 + 5, 4093, 4100, n, start=start), full[:, start:].T)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 256])
def test_draws_are_generator_random_on_each_key(seed, start):
    # the draws are formed from raw Philox words, not by Generator.random;
    # column i must still be Generator(Philox(key=[seed, i])).random(start +
    # n)[start:] bit for bit, for widths below, at and above one tile and for
    # a full chunk; n = 21 is not a multiple of the four words of a block
    n, lo = 21, 4093
    for width in (1, 63, 64, 65, 4096):
        full = _fresh_stream_rows(seed, lo, lo + width, start + n)
        np.testing.assert_array_equal(trajectory._uniforms(seed, lo, lo + width, n, start), full[:, start:].T)


def test_seeds_above_2_63_keep_their_own_stream():
    a = trajectory._uniforms(2**63 + 5, 0, 4, 8)
    b = trajectory._uniforms(2**63 + 6, 0, 4, 8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_uint64_is_refused(ex5_pair, rho_half, seed, capsys):
    with pytest.raises(ParameterError):
        trajectory.sample(ex5_pair, rho_half, 5, 10, seed=seed)
    code = cli.main(["sample", "--example", "ex5", "--steps", "5", "--seed", str(seed), "--traj", "10"])
    assert code == 2
    assert "not an integer in [0, 2**64)" in capsys.readouterr().err


def test_fractional_seed_is_refused(ex5_pair, rho_half):
    # a uint64 key would truncate 1.5 to the stream of seed 1
    with pytest.raises(ParameterError):
        trajectory.sample(ex5_pair, rho_half, 5, 10, seed=1.5)


def test_bool_seed_is_refused(ex5_pair, rho_half):
    # bool is an Integral: True would run as the stream of seed 1
    with pytest.raises(ParameterError):
        trajectory.sample(ex5_pair, rho_half, 5, 10, seed=True)


def _reference_chunk(kp: KrausPair, rho0: np.ndarray, n_steps: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The jump kernel as it stood before it went coordinate-major: the states
    are Pauli rows, each step reads a column of draws, tests degeneracy with
    two comparisons and moves x by +-1. It draws from fresh generators."""
    m = hi - lo
    both = np.hstack([M.T for M in core.branch_maps(kp)])
    v = np.broadcast_to(core.to_pauli(rho0), (m, 4))
    x = np.zeros(m, dtype=np.int64)
    u = _fresh_stream_rows(seed, lo, hi, n_steps)
    for t in range(n_steps):
        cand = v @ both
        p_b = cand[:, 0]
        p_c = cand[:, 4]
        if np.any((p_b < DEGENERATE_TOL) & (p_c < DEGENERATE_TOL)):
            raise DegenerateJump("both branch probabilities vanish")
        take_b = u[:, t] < p_b
        take_b &= p_b >= DEGENERATE_TOL
        take_b |= p_c < DEGENERATE_TOL
        v = np.where(take_b[:, None], cand[:, :4], cand[:, 4:])
        v /= v[:, :1]
        x += np.where(take_b, -1, 1)
    return np.bincount(x + n_steps, minlength=2 * n_steps + 1)


def _reference_cases():
    """ex5 from I/2, ex3 from |0><0| (its C branch vanishes at every step) and
    a random pair from a mixed state with coherences."""
    half = np.eye(2) / 2
    zero = np.diag([1.0, 0.0])
    mixed = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    return [
        (catalog.build(catalog.ExampleSpec("ex5")), half),
        (catalog.build(catalog.ExampleSpec("ex3")), zero),
        (make_random_pairs(1, seed=22)[0], mixed),
    ]


def test_step_block_is_whole_philox_blocks():
    # a later block re-keys at counter start / 4, so it must start on a block
    assert trajectory.STEP_BLOCK % 4 == 0


@pytest.mark.parametrize("extra", [-1, 0, 1, None])
def test_run_chunk_matches_reference_kernel(extra):
    # n = B - 1, B, B + 1 and 2B + 3 for B = STEP_BLOCK: a short last block,
    # exactly one block, one spare step, and two blocks and a remainder
    block = trajectory.STEP_BLOCK
    n = 2 * block + 3 if extra is None else block + extra
    for kp, rho0 in _reference_cases():
        for seed, lo, hi in ((7, 0, 130), (2**63 + 5, 4093, 4100)):
            np.testing.assert_array_equal(
                trajectory._run_chunk(kp, rho0, n, seed, lo, hi), _reference_chunk(kp, rho0, n, seed, lo, hi)
            )


def test_sample_matches_reference_kernel_over_small_chunks(monkeypatch):
    # chunks of 7 trajectories: 20 = 7 + 7 + 6, and a single trajectory
    monkeypatch.setattr(trajectory, "CHUNK", 7)
    n = trajectory.STEP_BLOCK + 5
    for kp, rho0 in _reference_cases():
        for n_traj in (20, 1):
            rep = trajectory.sample(kp, rho0, n, n_traj, seed=11)
            counts = _reference_chunk(kp, rho0, n, 11, 0, n_traj)
            keep = counts > 0
            np.testing.assert_array_equal(rep.empirical.sites, np.arange(-n, n + 1)[keep])
            np.testing.assert_array_equal(rep.empirical.probs, counts[keep] / n_traj)


def test_sample_csv_bytes_are_pinned(tmp_path, capsys):
    # the CSV of this command as written before the kernel went coordinate-major
    out = tmp_path / "emp.csv"
    argv = ["sample", "--example", "ex5", "--steps", "20", "--traj", "2000", "--seed", "2122", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "bd36a1186973e8432ec1e076a891876278d80c43d458be57c6a3e5aa5f612a9c"


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draw_block_does_not_grow_with_the_walk(ex5_pair, rho_half):
    # 512 x 1000 held a 3.9 MiB block (4.0 MiB traced) when a block was 4096
    # steps; a 256-step block is 1 MiB. A full chunk at 600 steps held 18.75
    # MiB of draws, and holds 8 MiB now, one block at a time.
    mib = 2**20
    assert _traced_peak(lambda: trajectory.sample(ex5_pair, rho_half, 1000, 512, seed=3)) < 1.5 * mib
    assert _traced_peak(lambda: trajectory.sample(ex5_pair, rho_half, 600, trajectory.CHUNK, seed=3)) < 10 * mib
