"""Utility families: reference values, derivatives, inversion, properties."""

import math

import numpy as np
import pytest

from helpers import (
    fd_marginal_tolerance,
    log_demand_lambertw,
    outcome,
    random_utilities,
    second_diff_tolerance,
    sig_demand_closed_form,
    sigmoid_reference,
    sigmoidal_marginal_reference,
    solve_rate_for_price_reference,
)
from carrieralloc.utility import (
    LogarithmicUtility,
    SigmoidalUtility,
    UtilityDomainError,
    evaluate,
    log_utility,
    marginal,
    solve_rate_for_price,
)

NEG_INF = float("-inf")


def central_diff(f, r: float, h: float) -> float:
    return (f(r + h) - f(r - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# construction


def test_sigmoidal_normalization_constants():
    u = SigmoidalUtility(a=1.0, b=5.0)
    eab = math.exp(1.0 * 5.0)
    assert u.c == pytest.approx((1.0 + eab) / eab, rel=1e-15)
    assert u.d == pytest.approx(1.0 / (1.0 + eab), rel=1e-15)


def test_sigmoidal_constants_survive_large_ab():
    u = SigmoidalUtility(a=10.0, b=50.0)  # exp(500) overflows a double
    assert u.c == pytest.approx(1.0, rel=1e-15)
    assert 0.0 <= u.d < 1e-200
    assert math.isfinite(u.marginal(50.0))
    assert math.isfinite(u.log_utility(1.0))


@pytest.mark.parametrize(
    "bad",
    [dict(a=0.0, b=10.0), dict(a=-1.0, b=10.0), dict(a=1.0, b=0.0), dict(a=math.inf, b=1.0)],
)
def test_sigmoidal_rejects_bad_parameters(bad):
    with pytest.raises(UtilityDomainError):
        SigmoidalUtility(**bad)


@pytest.mark.parametrize("bad", [dict(k=0.0, r_max=100.0), dict(k=1.0, r_max=-5.0)])
def test_logarithmic_rejects_bad_parameters(bad):
    with pytest.raises(UtilityDomainError):
        LogarithmicUtility(**bad)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_reference_points():
    # probes of the two families at published curve points
    assert evaluate(SigmoidalUtility(a=1.0, b=30.0), 30.2) == pytest.approx(
        0.549834, abs=1e-6
    )
    assert evaluate(LogarithmicUtility(k=3.0, r_max=100.0), 10.1) == pytest.approx(
        0.603391, abs=1e-6
    )


def test_evaluate_normalization_edges():
    assert evaluate(LogarithmicUtility(k=15.0, r_max=100.0), 0.0) == 0.0
    assert evaluate(LogarithmicUtility(k=0.5, r_max=100.0), 100.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert evaluate(SigmoidalUtility(a=5.0, b=10.0), 0.0) == 0.0


def test_evaluate_rejects_negative_rate():
    with pytest.raises(UtilityDomainError):
        evaluate(SigmoidalUtility(a=1.0, b=10.0), -0.1)


def test_logarithmic_evaluate_beyond_r_max_exceeds_one():
    u = LogarithmicUtility(k=2.0, r_max=50.0)
    assert evaluate(u, 80.0) > 1.0


# ---------------------------------------------------------------------------
# log_utility


def test_log_utility_values():
    assert log_utility(LogarithmicUtility(k=0.5, r_max=100.0), 100.0) == pytest.approx(
        0.0, abs=1e-12
    )
    assert log_utility(SigmoidalUtility(a=1.0, b=30.0), 30.2) == pytest.approx(
        math.log(0.549834), abs=1e-3
    )


def test_log_utility_zero_rate_is_neg_inf_sentinel():
    assert log_utility(SigmoidalUtility(a=5.0, b=10.0), 0.0) == NEG_INF
    assert log_utility(LogarithmicUtility(k=3.0, r_max=100.0), 0.0) == NEG_INF


def test_log_utility_matches_log_of_evaluate():
    for u in (SigmoidalUtility(a=3.0, b=20.0), LogarithmicUtility(k=3.0, r_max=100.0)):
        for r in (0.5, 5.0, 19.0, 60.0):
            assert log_utility(u, r) == pytest.approx(math.log(evaluate(u, r)), rel=1e-12)


# ---------------------------------------------------------------------------
# marginal


def test_logarithmic_marginal_closed_form():
    u = LogarithmicUtility(k=3.0, r_max=100.0)
    for r in (0.3, 10.1, 42.0):
        expected = 3.0 / ((1.0 + 3.0 * r) * math.log1p(3.0 * r))
        assert marginal(u, r) == pytest.approx(expected, rel=1e-14)


def test_sigmoidal_marginal_matches_finite_difference():
    u = SigmoidalUtility(a=5.0, b=10.0)
    r = 10.0
    h = 1e-6 * max(1.0, r)
    fd = central_diff(lambda x: log_utility(u, x), r, h)
    assert marginal(u, r) == pytest.approx(fd, rel=1e-5)


def test_marginal_is_decreasing():
    u = LogarithmicUtility(k=3.0, r_max=100.0)
    assert marginal(u, 10.1) > marginal(u, 20.0)


@pytest.mark.parametrize(
    "u", [SigmoidalUtility(a=0.3, b=10.0), LogarithmicUtility(k=0.1, r_max=100.0)]
)
def test_marginal_at_smallest_subnormal_rate_is_inf(u):
    # a*r (k*r) underflows to 0 here; the r -> 0+ limit is +inf
    assert marginal(u, 5e-324) == math.inf


def test_sigmoidal_marginal_bitwise_matches_reference():
    """The inlined sigmoid and the constants c, d keep their old bits."""
    rng = np.random.default_rng(11)
    # x = a (r - b) on both sides of 0, where the sigmoid's sign split
    # switches form, plus rates near 0
    tail = np.geomspace(1e-7, 40.0, 30)
    xs = np.concatenate([-tail, [0.0], tail])
    below = above = 0
    for u in random_utilities(rng, 400):
        if not isinstance(u, SigmoidalUtility):
            continue
        assert u.c == 1.0 + math.exp(-u.a * u.b)
        assert u.d == sigmoid_reference(-u.a * u.b)
        rates = [u.b + float(x) / u.a for x in xs]
        rates += [u.b * float(f) for f in np.geomspace(1e-9, 0.5, 10)]
        for r in rates:
            if r <= 0.0:
                continue
            assert outcome(u.marginal, r) == outcome(sigmoidal_marginal_reference, u, r)
            if r < u.b:
                below += 1
            else:
                above += 1
    assert below >= 4000 and above >= 4000


def test_solve_rate_bitwise_matches_reference():
    rng = np.random.default_rng(12)
    for u in random_utilities(rng, 300):
        r_cap = float(10.0 ** rng.uniform(0.0, 3.0))
        for p in np.geomspace(1e-6, 1e3, 12):
            got = outcome(solve_rate_for_price, u, float(p), r_cap)
            assert got == outcome(solve_rate_for_price_reference, u, float(p), r_cap)


def test_marginal_rejects_zero_rate():
    with pytest.raises(UtilityDomainError):
        marginal(SigmoidalUtility(a=1.0, b=10.0), 0.0)


# ---------------------------------------------------------------------------
# solve_rate_for_price


def test_solve_rate_logarithmic_against_lambertw():
    u = LogarithmicUtility(k=0.5, r_max=100.0)
    r = solve_rate_for_price(u, 0.05, 100.0)
    assert r == pytest.approx(log_demand_lambertw(0.5, 0.05), rel=1e-9)
    assert r == pytest.approx(9.46, abs=5e-3)
    assert abs(marginal(u, r) - 0.05) <= 1e-9 * 0.05


def test_solve_rate_sigmoidal_inflection():
    u = SigmoidalUtility(a=5.0, b=10.0)
    r = solve_rate_for_price(u, 2.5, 120.0)
    # At p = a/2 the solution is the inflection point up to an O(e^{-ab}) term.
    assert r == pytest.approx(10.0, abs=1e-6)
    assert r == pytest.approx(sig_demand_closed_form(5.0, 10.0, 2.5), rel=1e-9)


def test_solve_rate_returns_ceiling_when_demand_exceeds_it():
    u = LogarithmicUtility(k=0.5, r_max=100.0)
    assert solve_rate_for_price(u, 1e-9, 50.0) == 50.0


def test_solve_rate_huge_price_gives_vanishing_positive_rate():
    u = LogarithmicUtility(k=0.5, r_max=100.0)
    r_hi = solve_rate_for_price(u, 1e9, 100.0)
    r_lo = solve_rate_for_price(u, 1e3, 100.0)
    assert 0.0 < r_hi < r_lo < 1.0


def test_solve_rate_rejects_bad_inputs():
    u = LogarithmicUtility(k=1.0, r_max=100.0)
    with pytest.raises(UtilityDomainError):
        solve_rate_for_price(u, 0.0, 100.0)
    with pytest.raises(UtilityDomainError):
        solve_rate_for_price(u, 1.0, 0.0)


# ---------------------------------------------------------------------------
# randomized property checks (small versions; the acceptance suite runs the
# full-size draws)


def test_normalization_properties_random():
    rng = np.random.default_rng(7)
    for u in random_utilities(rng, 200):
        assert abs(evaluate(u, 0.0)) <= 1e-12
        if isinstance(u, SigmoidalUtility):
            assert evaluate(u, 10.0 * u.b) > 0.99
        else:
            assert evaluate(u, u.r_max) == pytest.approx(1.0, abs=1e-12)


def test_marginal_matches_finite_differences_random():
    rng = np.random.default_rng(11)
    for u in random_utilities(rng, 100):
        hi = 2.0 * u.b if isinstance(u, SigmoidalUtility) else u.r_max
        for frac in (0.1, 0.35, 0.6, 0.9):
            r = frac * hi
            h = 1e-6 * max(1.0, r)
            fd = central_diff(lambda x: log_utility(u, x), r, h)
            noise = fd_marginal_tolerance(u, r, h)
            assert abs(marginal(u, r) - fd) <= 1e-5 * abs(fd) + noise


def test_inversion_round_trip_random():
    rng = np.random.default_rng(13)
    for u in random_utilities(rng, 100):
        r_cap = 500.0
        p = 10.0 ** rng.uniform(-3, 1)
        r = solve_rate_for_price(u, p, r_cap)
        if r < r_cap:  # interior solution
            assert abs(marginal(u, r) - p) <= 1e-9 * p


def test_strict_log_concavity_random():
    # The second central difference of ln U must never exceed its roundoff
    # floor: on sigmoidal plateaus the true curvature is far below double
    # precision, so the floor is what "strictly negative" can mean there.
    rng = np.random.default_rng(17)
    for u in random_utilities(rng, 100):
        hi = 2.0 * u.b if isinstance(u, SigmoidalUtility) else u.r_max
        for frac in np.linspace(0.02, 1.0, 25):
            r = float(frac * hi)
            h = 1e-3 * max(1.0, r)
            second = log_utility(u, r + h) - 2.0 * log_utility(u, r) + log_utility(u, r - h)
            assert second <= second_diff_tolerance(u, r, h)
