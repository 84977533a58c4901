"""Each check of the benchmark must fail on a deliberately wrong result.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

B5, C5 = ref.family_pair("ex5")
HALF = np.eye(2) / 2


def shifted(law, by=1):
    return law[0] + by, law[1]


@pytest.fixture(scope="module")
def ex5_law():
    return ref.dense_law(B5, C5, HALF, 30)


def test_mass(ex5_law):
    checks.mass(ex5_law[1])
    with pytest.raises(checks.CheckError):
        checks.mass(0.99 * ex5_law[1])


def test_nonnegative(ex5_law):
    checks.nonnegative(ex5_law[1])
    bad = ex5_law[1].copy()
    bad[3] = -1e-9
    with pytest.raises(checks.CheckError):
        checks.nonnegative(bad)


def test_parity(ex5_law):
    checks.parity(*ex5_law, 30)
    with pytest.raises(checks.CheckError):
        checks.parity(*shifted(ex5_law), 30)
    sites = np.append(ex5_law[0], 31)
    with pytest.raises(checks.CheckError):
        checks.parity(sites, np.append(ex5_law[1], 1e-9), 30)


def test_symmetric(ex5_law):
    checks.symmetric(ex5_law)
    with pytest.raises(checks.CheckError):
        checks.symmetric(shifted(ex5_law, 2))


def test_close_on_the_union_of_supports(ex5_law):
    checks.close(ex5_law, ex5_law)
    with pytest.raises(checks.CheckError):
        checks.close(shifted(ex5_law, 2), ex5_law)
    # a site missing from one law counts with its full weight
    with pytest.raises(checks.CheckError):
        checks.close((ex5_law[0][1:], ex5_law[1][1:]), ex5_law, 0.0)


def test_exact_law_against_a_reference(ex5_law):
    checks.exact_law(ex5_law, 30, ex5_law)
    with pytest.raises(checks.CheckError):
        checks.exact_law(shifted(ex5_law, 2), 30, ex5_law)


def perfect_sample(law, n_traj):
    """The counts an ideal sampler would give, rounded to whole trajectories."""
    counts = np.round(law[1] * n_traj)
    counts[np.argmax(counts)] += n_traj - counts.sum()
    return law[0], counts / n_traj


@pytest.mark.parametrize("n_traj, shift", [(1024, 6), (100_000, 2)])
def test_empirical_bound(n_traj, shift):
    # fewer trajectories resolve only a larger shift of the law
    exact = ref.dense_law(B5, C5, HALF, 20)
    checks.empirical(perfect_sample(exact, n_traj), exact, n_traj)
    with pytest.raises(checks.CheckError):
        checks.empirical(shifted(perfect_sample(exact, n_traj), shift), exact, n_traj)


def test_empirical_bound_holds_for_real_samples():
    rng = np.random.default_rng(0)
    exact = ref.dense_law(B5, C5, HALF, 20)
    for _ in range(200):
        counts = rng.multinomial(1024, exact[1] / exact[1].sum())
        checks.empirical((exact[0], counts / 1024), exact, 1024)


def test_identical_reports():
    rep = {"n_traj": 10, "mean": 0.25, "distribution": {"x": [-1, 1], "p": [0.4, 0.6]}}
    same = {"n_traj": 10, "mean": 0.25, "distribution": {"x": [-1, 1], "p": [0.4, 0.6]}}
    checks.identical(rep, same)
    for bad in (
        {**rep, "mean": 0.25000000000000006},
        {**rep, "distribution": {"x": [-1, 1], "p": [0.5, 0.5]}},
    ):
        with pytest.raises(checks.CheckError):
            checks.identical(rep, bad)
    a = (np.arange(3), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(checks.CheckError):
        checks.identical(a, (np.arange(3), np.array([0.2, 0.3, 0.5000001])))


def test_scalar():
    checks.scalar(1.0, 1.0 + 1e-12, 1e-9)
    with pytest.raises(checks.CheckError):
        checks.scalar(1.0, 1.1, 1e-9)
    with pytest.raises(checks.CheckError):
        checks.scalar(float("nan"), 1.0, 1e-9)


# ---- the references agree with each other ------------------------------------


def test_dense_law_matches_the_binomial_laws():
    B, C = ref.family_pair("ex1", p=0.3)
    rho = np.diag([0.4, 0.6])
    checks.close(ref.dense_law(B, C, rho, 40), ref.ex1_law(40, 0.3, 0.4, 0.6), 1e-14)
    B, C = ref.family_pair("ex4", eps=0.3, theta=0.7)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    checks.close(ref.dense_law(B, C, rho, 40), ref.ex4_law(40, 0.3, 0.7, rho), 1e-14)


def test_moments_match_the_dense_law():
    B, C = ref.family_pair("ex3", p=0.4, gamma=0.6)
    sites, probs = ref.dense_law(B, C, HALF, 50)
    mean, var = ref.moments(B, C, HALF, 50)
    assert abs(sites @ probs - mean) < 1e-12
    assert abs((sites - mean) ** 2 @ probs - var) < 1e-10


def test_clt_growth_of_ex5():
    m, s2 = ref.clt_growth(B5, C5)
    assert abs(m) < 1e-9 and abs(s2 - 8 / 9) < 1e-9


def test_alpha_uses_the_dominant_branch():
    # lam1 = s (s^2 + 5) / 6 with s = xi - 1/xi, xi^3 = 2 cos k + sqrt(4 cos^2 k + 1)
    k = np.linspace(-np.pi / 2, np.pi / 2, 101)
    u = np.cos(k)
    xi = np.cbrt(2 * u + np.sqrt(4 * u * u + 1))
    s = xi - 1 / xi
    assert np.max(np.abs(ref.dual_top_eigenvalue(B5, C5, k) - s * (s * s + 5) / 6)) < 1e-12


def test_laplace_reference_tends_to_g_at_the_peak():
    r = ref.laplace_ratio(lambda x: 0.5 - 0.5 * x * x, np.cos, -1.0, 1.0, 2000)
    assert abs(r - 1) < 1 / 2000


# ---- the workloads' own checks ------------------------------------------------


@pytest.fixture(scope="module")
def small():
    return {op.name: op for op in workloads.exact_small(0, Path(".")).ops}


def test_workload_law_checks_bite(small):
    for name in ("lattice.ex5.0", "dual.random.0", "catalog.closed_form.ex4.0"):
        op = small[name]
        law = op.run(NullTracer())
        op.check(law)
        for bad in (shifted(law, 2), (law[0], 0.99 * law[1]), (law[0], np.append(law[1][:-1], -1e-9))):
            with pytest.raises(checks.CheckError):
                op.check(bad)


def test_workload_scalar_checks_bite(small):
    for name in ("limits.clt_params.ex5", "limits.ex5_alpha.100", "limits.laplace_ratio.0"):
        op = small[name]
        out = op.run(NullTracer())
        op.check(out)
        wrong = (out[0] + 1e-3, out[1]) if isinstance(out, tuple) else out * (1 + 1e-6)
        with pytest.raises(checks.CheckError):
            op.check(wrong)


def test_known_fault_check_accepts_the_laplace_limit(small):
    op = small["limits.laplace_ratio.peak_underflow"]
    assert op.known_fault
    op.check(1 - 1 / (4 * workloads.UNDERFLOW_N))
    with pytest.raises(checks.CheckError):
        op.check(0.5)


def test_sample_report_check_bites():
    op = workloads._sample_op("s", workloads.build(NullTracer(), "ex5")[1], HALF, (20, 2000), 7,
                              lambda: ref.dense_law(B5, C5, HALF, 20))
    rep = op.run(NullTracer())
    op.check(rep)
    checks.identical(rep, op.run(NullTracer()), "report")
    other = workloads._sample_op("s", workloads.build(NullTracer(), "ex5")[1], HALF, (20, 2000), 8,
                                 lambda: None).run(NullTracer())
    with pytest.raises(checks.CheckError):
        checks.identical(rep, other, "report")
    bad = {**rep, "distribution": {"x": [x + 2 for x in rep["distribution"]["x"]],
                                   "p": rep["distribution"]["p"]}}
    with pytest.raises(checks.CheckError):
        op.check(bad)
