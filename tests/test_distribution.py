import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqrw import catalog, dual, lattice
from oqrw.distribution import MASS_TOL, Distribution, compare, finalize
from oqrw.exceptions import ResidueError, SumError


def test_sorted_and_deduplicated():
    d = Distribution({3: 0.2, -1: 0.5, 0: 0.3})
    assert list(d.sites) == [-1, 0, 3]
    assert d.prob(3) == 0.2
    assert d.prob(99) == 0.0


def test_rejects_duplicate_sites():
    # in sorted input and in input that must be sorted first
    for sites in ([0, 0], [-1, 3, 3], [2, 0, 2]):
        with pytest.raises(ValueError, match="duplicate"):
            Distribution((np.array(sites), np.full(len(sites), 1 / len(sites))))


def test_rejects_sites_or_weights_that_are_not_1d():
    for mapping in ((3, 0.5), ([[1, 3]], [[0.5, 0.5]]), ([1, 3], [[0.5, 0.5]]), ([[1], [3]], [0.5, 0.5])):
        with pytest.raises(ValueError, match="1-D"):
            Distribution(mapping)


def test_sites_beyond_int64_are_refused():
    for site in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match="int64 range"):
            Distribution(([site], [1.0]))
    assert Distribution(([2**63 - 1, -(2**63)], [0.5, 0.5])).sites.tolist() == [-(2**63), 2**63 - 1]


def test_keeps_its_own_copy_of_the_arrays():
    sites, probs = np.array([-2, 0, 5]), np.array([0.25, 0.5, 0.25])
    d = Distribution((sites, probs))
    sites[0], probs[0] = 7, 0.0
    assert d.items() == [(-2, 0.25), (0, 0.5), (5, 0.25)]


def test_negative_handling():
    # any negative weight is refused: roundoff is the business of finalize
    assert Distribution({0: 1.0, 1: 0.0}).prob(1) == 0.0
    for bad in (-5e-13, -1e-6):
        with pytest.raises(ValueError):
            Distribution({0: 1.0, 1: bad})


def test_finalize_floor_scales_with_n():
    eps = np.finfo(float).eps
    # p holds the sites -1, 1, 3 of one parity class
    # at n = 0 the floor is eps: -0.5 eps is roundoff and dropped, -3 eps is refused
    d = finalize(-1, [-0.5 * eps, 1.0, 0.5 * eps], 0)
    assert d.items() == [(1, 1.0)]
    with pytest.raises(ResidueError, match="negative"):
        finalize(-1, [-3 * eps, 1.0, 0.0], 0)
    # at n = 99 the floor is 100 eps
    d = finalize(-1, [-50 * eps, 1.0, 150 * eps], 99)
    assert list(d.sites) == [1, 3]
    with pytest.raises(ResidueError):
        finalize(-1, [-150 * eps, 1.0, 0.0], 99)


def test_finalize_reports_every_second_site_from_lo():
    d = finalize(-3, [0.25, 0.0, 0.5, 0.25], 3)
    assert d.items() == [(-3, 0.25), (1, 0.5), (3, 0.25)]
    assert d.sites.dtype == np.int64
    assert finalize(np.int64(4), [1.0], 0).items() == [(4, 1.0)]


def test_finalize_checks_mass_before_flooring():
    with pytest.raises(SumError):
        finalize(0, [0.5, 0.5 - 2 * MASS_TOL], 4)
    assert finalize(0, [0.5, 0.5 - MASS_TOL / 2], 4).total() == pytest.approx(1.0, abs=MASS_TOL)
    # the negativity check comes first
    with pytest.raises(ResidueError):
        finalize(0, [1.0, -0.5], 4)
    # floored weights count towards the total: 2e4 sites at half the floor
    # carry 2.2e-8 of mass, while the one kept site holds exactly 1
    n = 10**4
    tiny = np.full(2 * 10**4, 0.5 * (n + 1) * np.finfo(float).eps)
    with pytest.raises(SumError):
        finalize(0, np.append(1.0, tiny), n)


def test_finalize_refuses_a_nan_total():
    # NaN compares false with everything, so a check written as drift > MASS_TOL lets it through
    for p in ([np.nan, 1.0], [np.nan, np.nan]):
        with pytest.raises(SumError, match="nan"):
            finalize(-1, p, 1)


def test_every_exact_route_exits_through_finalize(monkeypatch):
    """lattice, dual, closed_form (n = 0 included) and cut_unfold_distribution
    each return the Distribution that finalize built, and call it once."""
    made = []

    def recording(lo, p, n):
        made.append(finalize(lo, p, n))
        return made[-1]

    for module in (lattice, dual, catalog):
        monkeypatch.setattr(module, "finalize", recording)
    ex5 = catalog.build(catalog.ExampleSpec("ex5"))
    rho = np.eye(2) / 2
    routes = {
        "lattice": lambda n: lattice.distribution(lattice.evolve(ex5, lattice.initial_state(rho), n)),
        "dual": lambda n: dual.distribution_via_dual(ex5, rho, n),
        "closed_form": lambda n: catalog.closed_form(catalog.ExampleSpec("ex1"), (0.5, 0.5), n),
        "cut_unfold": lambda n: catalog.cut_unfold_distribution((0.3, 0.7), n),
    }
    for name, route in routes.items():
        for n in (0, 1, 6):
            before = len(made)
            law = route(n)
            assert len(made) == before + 1 and law is made[-1], (name, n)


def test_mean_variance():
    d = Distribution({-1: 0.5, 1: 0.5})
    assert d.mean() == 0.0
    assert d.variance() == 1.0
    skewed = Distribution({0: 0.25, 2: 0.75})
    assert skewed.mean() == 1.5
    assert skewed.variance() == 0.75  # E[x^2] - mean^2 = 3 - 2.25


def test_moments_of_a_law_below_total_one_are_normalised():
    # an exact law whose noise floor dropped mass keeps its mean and variance
    half = Distribution(([0, 2], [0.25, 0.25]))
    assert half.mean() == 1.0
    assert half.variance() == 1.0
    with pytest.raises(ValueError, match="total mass 0"):
        Distribution({}).mean()


def test_variance_is_taken_about_the_mean():
    # far from the origin, E[x^2] - mean^2 loses every digit of a variance of 1/4
    far = Distribution({10**9: 0.5, 10**9 + 1: 0.5})
    assert far.variance() == 0.25


def test_csv_round_trip(tmp_path):
    d = Distribution({-2: 1 / 3, 0: 1 / 7, 2: 11 / 21})
    path = tmp_path / "d.csv"
    d.to_csv(path)
    text = path.read_text()
    assert text.startswith("x,p\n")
    back = Distribution.from_csv(path)
    assert back == d  # repr round-trip is exact


def test_csv_text_deterministic():
    d = Distribution({0: 0.1, 4: 0.9})
    assert d.to_csv_text() == "x,p\n0,0.1\n4,0.9\n"


def test_json_round_trip():
    d = Distribution({-1: 0.25, 3: 0.75})
    back = Distribution.from_json_dict(d.to_json_dict())
    assert back == d


def test_unequal_lengths_are_refused():
    # more weights than sites: the last weight is not dropped
    with pytest.raises(ValueError, match=r"shape \(2,\).*shape \(3,\)"):
        Distribution.from_json_dict({"x": [0, 1], "p": [0.5, 0.3, 0.2]})
    # more sites than weights: a ValueError, not an IndexError
    with pytest.raises(ValueError, match=r"shape \(3,\).*shape \(2,\)"):
        Distribution.from_json_dict({"x": [0, 1, 2], "p": [0.5, 0.5]})


def test_compare_reports():
    a = Distribution({0: 1.0})
    assert compare(a, a) == {"max_abs": 0.0, "tv_distance": 0.0}
    b = Distribution({1: 1.0})
    r = compare(a, b)
    assert r["max_abs"] == 1.0
    assert r["tv_distance"] == 1.0


def test_compare_disjoint_and_overlap():
    a = Distribution({0: 0.5, 1: 0.5})
    b = Distribution({1: 0.5, 2: 0.5})
    r = compare(a, b)
    assert r["max_abs"] == 0.5
    assert r["tv_distance"] == 0.5


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-50, max_value=50),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
def test_tv_distance_is_metric_like(weights):
    d = Distribution(weights)
    zero = compare(d, d)
    assert zero["tv_distance"] == 0.0
    shifted = Distribution({x + 1: p for x, p in weights.items()})
    r = compare(d, shifted)
    assert r["tv_distance"] >= 0.0
    sym = compare(shifted, d)
    assert r["tv_distance"] == pytest.approx(sym["tv_distance"], abs=1e-15)
