"""Utility families: reference values, derivatives, inversion, properties."""

import itertools
import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from generators import overlap_family, random_utilities, reordered, small_synthetic
from helpers import (
    EPS,
    fd_marginal_tolerance,
    log_demand_lambertw,
    outcome,
    second_diff_tolerance,
    sig_demand_closed_form,
    sigmoidal_marginal_reference,
)
from carrieralloc.scenario import CarrierSpec, Scenario, UESpec, build_paper_scenario
from carrieralloc.utility import (
    _MARGIN,
    Layout,
    LogarithmicUtility,
    SigmoidalUtility,
    UtilityDomainError,
    demands,
    evaluate,
    log_utilities,
    log_utility,
    marginal,
    marginals,
    parameter_arrays,
    solve_rate_for_price,
)

NEG_INF = float("-inf")


def central_diff(f, r: float, h: float) -> float:
    return (f(r + h) - f(r - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# construction


def test_sigmoidal_survives_large_ab():
    u = SigmoidalUtility(a=10.0, b=50.0)  # exp(500) overflows a double
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


@pytest.mark.parametrize(
    "u", [SigmoidalUtility(a=0.05, b=10.0), LogarithmicUtility(k=1e-3, r_max=100.0)]
)
def test_log_utility_where_the_rate_product_underflows_is_neg_inf(u):
    # a*r (k*r) is 0 at the smallest subnormal rate: the r -> 0+ limit
    assert log_utility(u, 5e-324) == NEG_INF
    assert evaluate(u, 5e-324) == 0.0
    assert log_utilities(parameter_arrays([u]), np.array([5e-324]))[0] == NEG_INF


def _steep_sigmoidal(rng, n):
    """Sigmoidal users with a*b from 50 to 5e4."""
    out = []
    for _ in range(n):
        b = float(rng.uniform(20.0, 250.0))
        a = float(10.0 ** rng.uniform(math.log10(50.0 / b), math.log10(5e4 / b)))
        out.append(SigmoidalUtility(a=a, b=b))
    return out


def _paper_samples():
    rng = np.random.default_rng(71)
    out = []
    for u in random_utilities(rng, 200):
        scale = u.b if isinstance(u, SigmoidalUtility) else u.r_max
        out += [(u, f * scale) for f in (0.01, 0.3, 0.9, 1.0, 1.1, 3.0, 10.0)]
    steps = (-700.0, -37.0, -5.0, -0.5, -1e-3, 1e-3, 0.5, 5.0, 30.0, 37.0, 100.0, 700.0)
    for u in _steep_sigmoidal(rng, 40):  # rates on both sides of b
        out += [(u, u.b + t / u.a) for t in steps if u.b + t / u.a > 0.0]
        out += [(u, f * u.b) for f in (0.01, 0.5, 0.99, 1.0, 2.0, 10.0)]
    # a form that cancels terms of size a*b gives +1.99e-13 (U > 1) and 0.0 here
    out += [(SigmoidalUtility(a=14.779, b=287.91), 290.0), (SigmoidalUtility(a=5.0, b=10.0), 30.0)]
    return out


def _paper_ln_u_and_budget(u, r):
    """ln U(r) from the paper's formula, and the rounding budget of the
    library's expression, both in 80-digit decimal arithmetic.

    Sigmoidal: ln[c (sigmoid(x) - d)], c = (1 + e^ab) / e^ab, d = 1 / (1 +
    e^ab), x = a (r - b).  The library sums the non-positive terms A =
    ln(1 - e^-ar), -B = -ln(1 + e^-|x|) and C = min(x, 0) (A, B, C exact
    here), each libm result within an ulp:
      * a r rounds, and 1 - e^-ar rounds to a double: ln of it moves by at
        most EPS, and by no more than its distance |A| from 0 when it rounds
        to 1; twice min(EPS, |A|);
      * the log of it: EPS |A|;
      * x (two roundings) moves C by EPS |C| and B by EPS |x| B; exp and
        log1p add 2 EPS B; a subnormal e^-|x| adds 2^-1074;
      * the two sums round by EPS/2 of at most |A| + B + |C| each.
    Logarithmic: ln ln(1 + k r) - ln ln(1 + k r_max) = D - E: k r and log1p
    move each log by at most 1.5 EPS, log rounds EPS |D| (|E|), and the
    difference EPS/2 |D - E|.  The reference itself is exact to about 1e-79
    of U; 1e-75 covers it.
    """
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 80, MIN_EMIN, MAX_EMAX
        eps, r = Decimal(EPS), Decimal(r)
        if isinstance(u, SigmoidalUtility):
            a, b = Decimal(u.a), Decimal(u.b)
            e_ab, x = (a * b).exp(), a * (r - b)
            c, d, sigmoid = (1 + e_ab) / e_ab, 1 / (1 + e_ab), 1 / (1 + (-x).exp())
            ln_u = (c * (sigmoid - d)).ln()
            big_a, big_b = abs((1 - (-a * r).exp()).ln()), (1 + (-abs(x)).exp()).ln()
            big_c = abs(min(x, 0))
            budget = eps * (2 * big_a + (3 + abs(x)) * big_b + 2 * big_c) + 2 * min(eps, big_a)
            budget += Decimal(2.0**-1074)
        else:
            k, r_max = Decimal(u.k), Decimal(u.r_max)
            big_d, big_e = abs((1 + k * r).ln().ln()), abs((1 + k * r_max).ln().ln())
            ln_u = ((1 + k * r).ln() / (1 + k * r_max).ln()).ln()
            budget = eps * (2 * big_d + 2 * big_e + 3)
        return ln_u, budget + Decimal("1e-75")


def test_log_utility_matches_the_papers_formula_in_decimal():
    samples = _paper_samples()
    utilities, rates = zip(*samples)
    kernel = log_utilities(parameter_arrays(utilities), np.array(rates))
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 80, MIN_EMIN, MAX_EMAX
        for (u, r), vector in zip(samples, kernel):
            want, budget = _paper_ln_u_and_budget(u, r)
            for got in (log_utility(u, r), float(vector)):
                err = abs(Decimal(got) - want)
                assert err <= budget, (u, r, got, want)
                worst = max(worst, float(err / budget))
            if isinstance(u, SigmoidalUtility):
                assert evaluate(u, r) <= 1.0
    assert worst > 1e-3  # the budget is not vacuous


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
    """The inlined sigmoid keeps its old bits."""
    rng = np.random.default_rng(11)
    # x = a (r - b) on both sides of 0, where the sigmoid's sign split
    # switches form, plus rates near 0
    tail = np.geomspace(1e-7, 40.0, 30)
    xs = np.concatenate([-tail, [0.0], tail])
    below = above = 0
    for u in random_utilities(rng, 400):
        if not isinstance(u, SigmoidalUtility):
            continue
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


def test_marginal_rejects_zero_rate():
    for u in (SigmoidalUtility(a=1.0, b=10.0), LogarithmicUtility(k=1.0, r_max=10.0)):
        with pytest.raises(UtilityDomainError):
            marginal(u, 0.0)


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
    # true and false are not numbers
    with pytest.raises(UtilityDomainError):
        solve_rate_for_price(SigmoidalUtility(a=1.0, b=30.0), True, 100.0)
    with pytest.raises(UtilityDomainError):
        solve_rate_for_price(u, 1.0, True)


def test_solve_rate_past_the_scalar_marginals_floor():
    # the scalar sigmoidal marginal is 0 past b + 37/a; the rate where the
    # marginal is 1e-20 lies at b + ln(a/p)/a, far beyond that
    r = solve_rate_for_price(SigmoidalUtility(a=9.0, b=6.0), 1e-20, 1e6)
    assert r == pytest.approx(6.0 + math.log(9e20) / 9.0, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# vectorized kernel: marginals and demands


def _rates_per_user(utilities, fracs):
    """One row of rates per fraction of b (sigmoidal) or r_max (logarithmic)."""
    scale = np.array([u.b if isinstance(u, SigmoidalUtility) else u.r_max for u in utilities])
    return [f * scale for f in fracs]


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
)
def test_scalar_marginal_rounding_within_half_the_replay_margin():
    """The user step skips bisection midpoints on the premise that the scalar
    marginal is within _MARGIN / 2 * (m + 2a) of the exact one (a = 0 for the
    logarithmic family); check it against a long-double evaluation, from rates
    near 0 to past b + 37/a, where the scalar sigmoidal form cancels to 0."""
    ld = np.longdouble
    worst = 0.0
    for a, b in ((0.5, 40.0), (1.0, 30.0), (3.0, 20.0), (5.0, 10.0), (9.0, 6.0), (50.0, 5.0), (50.0, 45.0)):
        u = SigmoidalUtility(a=a, b=b)
        near_zero = np.geomspace(1e-300, 0.5 / a, 120)
        to_tail = np.linspace(0.0, b + 60.0 / a, 2000)[1:]
        for r in np.concatenate([near_zero, to_tail, b + np.geomspace(1e-6, 60.0, 200) / a]):
            r = float(r)
            x = ld(a) * ld(r)
            s = 1 / (1 + np.exp(ld(a) * (ld(r) - ld(b)))) if r < b else None
            if s is None:
                z = np.exp(-ld(a) * (ld(r) - ld(b)))
                s = z / (1 + z)
            exact = ld(a) * (1 / np.expm1(x) + s)
            err = abs(ld(u.marginal(r)) - exact) / (_MARGIN * (exact + 2 * ld(a)))
            worst = max(worst, float(err))
    for k in (0.05, 0.5, 3.0, 15.0, 200.0):
        u = LogarithmicUtility(k=k, r_max=100.0)
        for r in np.geomspace(1e-300, 1e5, 3000):
            kr = ld(k) * ld(float(r))
            exact = ld(k) / ((1 + kr) * np.log1p(kr))
            worst = max(worst, float(abs(ld(u.marginal(float(r))) - exact) / (_MARGIN * exact)))
    assert 0.05 < worst <= 0.5, worst


@pytest.mark.filterwarnings("error")
def test_marginals_match_scalar_where_it_does_not_cancel():
    rng = np.random.default_rng(61)
    utilities = random_utilities(rng, 300)
    params = parameter_arrays(utilities)
    checked = 0
    for r in _rates_per_user(utilities, np.geomspace(1e-6, 2.0, 40)):
        m, dm = marginals(params, r)
        assert (m > 0.0).all() and (dm < 0.0).all()
        for u, x, got in zip(utilities, r, m):
            want = marginal(u, float(x))
            # the scalar sigmoidal form subtracts two terms near 1, losing
            # about eps * a absolutely; compare where that is below 1e-14 m
            if isinstance(u, LogarithmicUtility) or want >= 0.01 * u.a:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
                checked += 1
    assert checked >= 8000


@pytest.mark.filterwarnings("error")
def test_log_slope_matches_marginals():
    """Each family's log_slope, d ln m / d ln r at the scalar marginal, is
    r m'/m from ``marginals`` to within 8 roundings of its size.  A sigmoidal
    slope also carries the rounding of s = g - m/a, which cancels as the
    scalar marginal does: a few roundings of g + 2 in s, so of
    a^2 r (g + 2) / m in the slope."""
    rng = np.random.default_rng(63)
    utilities = random_utilities(rng, 300)
    params = parameter_arrays(utilities)
    checked = relative = 0
    for r in _rates_per_user(utilities, np.geomspace(1e-6, 2.0, 40)):
        m, dm = marginals(params, r)
        for u, x, want in zip(utilities, r.tolist(), (r * dm / m).tolist()):
            scalar = u.marginal(x)
            if not scalar > 0.0:  # the scalar sigmoidal marginal is 0 past b + 37/a
                continue
            scale = abs(want)
            if isinstance(u, SigmoidalUtility):
                g = -1.0 / math.expm1(-u.a * x)
                scale += u.a * u.a * x * (g + 2.0) / scalar
            assert abs(u.log_slope(x, scalar) - want) <= 8.0 * EPS * scale, (u, x)
            checked += 1
            relative += scale <= 2.0 * abs(want)
    assert checked >= 11000 and relative >= 9000


@pytest.mark.filterwarnings("error")
def test_sigmoidal_marginals_follow_the_tail_past_cancellation():
    # Past b + 37/a the scalar marginal is exactly 0; with a*b >= 40 the
    # marginal there is a*e^(-a(r - b)) to well below 1e-16 (relative).
    utilities = [SigmoidalUtility(a=a, b=b) for a, b in ((0.8, 50.0), (3.0, 20.0), (9.0, 6.0))]
    params = parameter_arrays(utilities)
    for t in (37.0, 100.0, 300.0, 700.0):
        r = np.array([u.b + t / u.a for u in utilities])
        m, _ = marginals(params, r)
        for u, x, got in zip(utilities, r, m):
            assert marginal(u, float(x)) == 0.0
            assert got == pytest.approx(u.a * math.exp(-u.a * (x - u.b)), rel=1e-13, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_marginals_derivative_matches_finite_differences():
    rng = np.random.default_rng(62)
    utilities = random_utilities(rng, 100)
    params = parameter_arrays(utilities)
    for r in _rates_per_user(utilities, (0.1, 0.35, 0.6, 0.9, 1.3)):
        h = 1e-6 * np.maximum(1.0, r)
        m, dm = marginals(params, r)
        fd_m = (marginals(params, r + h)[0] - marginals(params, r - h)[0]) / (2.0 * h)
        for u, x, step, got_m, got_dm, fd in zip(utilities, r, h, m, dm, fd_m):
            ln_u_fd = central_diff(lambda v: log_utility(u, v), float(x), float(step))
            assert abs(got_m - ln_u_fd) <= 1e-5 * abs(ln_u_fd) + fd_marginal_tolerance(u, x, step)
            # the kernel's marginal is accurate to a few ulp, so its own
            # central difference carries noise of about 4 eps |m| / h
            assert abs(got_dm - fd) <= 1e-5 * abs(fd) + 4.0 * EPS * got_m / step


@pytest.mark.filterwarnings("error")
def test_demands_match_closed_form_inverters():
    rng = np.random.default_rng(63)
    utilities = random_utilities(rng, 200)
    params = parameter_arrays(utilities)
    for frac in (0.05, 0.3, 0.6, 0.9):
        # sigmoidal users at frac * a: the closed form is stable below p = a
        prices = np.array([frac * u.a if isinstance(u, SigmoidalUtility) else frac for u in utilities])
        rates, slopes = demands(params, prices, 1e6)
        assert (slopes < 0.0).all()
        for u, p, r in zip(utilities, prices, rates):
            if isinstance(u, SigmoidalUtility):
                want = sig_demand_closed_form(u.a, u.b, float(p))
            else:
                want = log_demand_lambertw(u.k, float(p))
            assert r == pytest.approx(want, rel=1e-12, abs=0.0)
            assert solve_rate_for_price(u, float(p), 1e6) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_demands_stop_at_the_rate_ceiling():
    params = parameter_arrays([LogarithmicUtility(k=0.5, r_max=100.0), SigmoidalUtility(a=2.0, b=5.0)])
    rates, slopes = demands(params, np.array([1e-9, 1.0]), 50.0)
    assert rates[0] == 50.0 and slopes[0] == 0.0
    assert rates[1] == pytest.approx(sig_demand_closed_form(2.0, 5.0, 1.0), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_demands_answer_each_user_as_it_answers_it_alone():
    """A user's rate and slope keep their bits whatever users share its batch."""
    utilities = random_utilities(np.random.default_rng(63), 200)
    params = parameter_arrays(utilities)
    for p in (1e-3, 0.1, 1.0, 10.0):
        rates, slopes = demands(params, p, 1e6)
        for u, r, slope in zip(utilities, rates.tolist(), slopes.tolist()):
            assert solve_rate_for_price(u, p, 1e6).hex() == r.hex(), (u, p)
            assert demands(parameter_arrays([u]), p, 1e6)[1][0].hex() == slope.hex(), (u, p)


# ---------------------------------------------------------------------------
# Layout


def _layout_scenarios():
    named = {f"small {name}": s for name, s in small_synthetic().items()}
    named.update((f"paper R1={20 + 10 * i}", build_paper_scenario(20.0 + 10.0 * i))
                 for i in range(29))
    # carriers listed 2, 1 and users shuffled
    named["reordered paper R1=150"] = reordered(build_paper_scenario(150.0), np.random.default_rng(3))
    named.update(itertools.islice(overlap_family().items(), 10))
    return named


LAYOUT_SCENARIOS = _layout_scenarios()


@pytest.mark.parametrize("name", sorted(LAYOUT_SCENARIOS))
def test_layout_orders_by_id_and_round_trips_bit_for_bit(name):
    s = LAYOUT_SCENARIOS[name]
    layout = Layout(s)
    carriers = sorted(s.carriers, key=lambda c: c.id)
    ues = sorted(s.ues, key=lambda u: u.id)
    assert layout.cids == [c.id for c in carriers]
    assert layout.uids == [u.id for u in layout.ues] == [u.id for u in ues]
    assert layout.caps.tolist() == [c.capacity for c in carriers]
    assert layout.mask.tolist() == [[c.id in u.carriers for u in ues] for c in carriers]
    for got, want in zip(layout.params, parameter_arrays([u.utility for u in ues])):
        assert got.tolist() == want.tolist()
    # rates over five decades on the reach mask, so that the order of a sum shows in its bits
    rng = np.random.default_rng(5)
    rates = np.where(layout.mask, 10.0 ** rng.uniform(-2.0, 3.0, layout.mask.shape), 0.0)
    prices = 10.0 ** rng.uniform(-3.0, 1.0, len(carriers))
    allocation = layout.allocation(rates, prices)
    assert list(allocation["rates"]) == [
        (c.id, u.id) for c in carriers for u in ues if c.id in u.carriers
    ]
    back_rates, back_prices = layout.arrays(SimpleNamespace(**allocation))
    assert back_rates.tobytes() == rates.tobytes() and back_prices.tobytes() == prices.tobytes()
    for j, ue in enumerate(ues):
        total = 0.0  # left to right, in carrier order
        for k in np.flatnonzero(layout.mask[:, j]):
            total += float(rates[k, j])
        assert allocation["totals"][ue.id].hex() == total.hex(), ue.id
    assert allocation["prices"] == dict(zip(layout.cids, prices.tolist()))
    totals = np.array(list(allocation["totals"].values()))
    assert allocation["objective"] == math.fsum(log_utilities(layout.params, totals).tolist())


def test_layout_arrays_are_read_only():
    layout = build_paper_scenario().layout
    for array in (layout.caps, layout.mask, *layout.params):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array.copy()
    with pytest.raises(ValueError, match="read-only"):
        layout.caps *= 2.0


@pytest.mark.parametrize("name", sorted(LAYOUT_SCENARIOS))
def test_layout_reach_is_each_users_one_exact_sum(name):
    s = LAYOUT_SCENARIOS[name]
    layout = s.layout
    caps = {c.id: c.capacity for c in s.carriers}
    assert layout.reach.tolist() == [math.fsum(caps[cid] for cid in u.carriers) for u in layout.ues]
    with pytest.raises(ValueError, match="read-only"):
        layout.reach[0] = 0.0


def test_layout_reach_is_exactly_rounded():
    # a matrix product of capacities and mask rounds each partial sum: it
    # gives 0.6000000000000001 here, and 224.58715178063787 for user 9 of 0-12-4
    u = LogarithmicUtility(k=1.0, r_max=1.0)
    carriers = tuple(CarrierSpec(id=l, capacity=c) for l, c in ((1, 0.1), (2, 0.2), (3, 0.3)))
    assert Scenario(carriers=carriers, ues=(UESpec(1, u, (1, 2, 3)),)).layout.reach[0] == 0.6
    small = small_synthetic()["0-12-4"].layout
    assert small.reach[small.column[9]] == 224.5871517806379


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
