"""Centralized solver: projection, optima, its certificate, KKT residuals, duality."""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    fd_marginal_tolerance,
    flat_stretch_scenario,
    gap_rounding_budget,
    log_demand_lambertw,
    oracle_outcome,
    random_utilities,
    sig_demand_closed_form,
    wide_range_scenario,
)
from carrieralloc import oracle
from carrieralloc.oracle import (
    OracleError,
    duality_gap,
    kkt_check,
    project_carrier_block,
    solve_central,
)
from carrieralloc.protocol import EngineConfig, run
from carrieralloc.scenario import CarrierSpec, Scenario, UESpec, build_paper_scenario
from carrieralloc.utility import (
    GAP_TOL,
    LogarithmicUtility,
    RootFindingError,
    SigmoidalUtility,
    log_utility,
    marginal,
    marginals,
    parameter_arrays,
    solve_rate_for_price,
)


LOG_HALF = LogarithmicUtility(k=0.5, r_max=100.0)


def two_ue_scenario():
    return Scenario(
        carriers=(CarrierSpec(id=1, capacity=100.0),),
        ues=(
            UESpec(id=1, utility=SigmoidalUtility(a=5.0, b=10.0), carriers=(1,)),
            UESpec(id=2, utility=LogarithmicUtility(k=0.5, r_max=100.0), carriers=(1,)),
        ),
        name="sig-vs-log",
    )


# ---------------------------------------------------------------------------
# projection


def test_projection_clips_negatives():
    out = project_carrier_block(np.array([-1.0, 2.0]), 10.0)
    assert np.allclose(out, [0.0, 2.0])


def test_projection_applies_simplex_threshold():
    out = project_carrier_block(np.array([6.0, 6.0]), 10.0)
    assert np.allclose(out, [5.0, 5.0])
    assert out.sum() == pytest.approx(10.0, abs=1e-12)


def test_projection_zero_is_fixed_point():
    out = project_carrier_block(np.zeros(2), 10.0)
    assert np.allclose(out, 0.0)
    with pytest.raises(OracleError, match="R > 0"):
        project_carrier_block(np.zeros(2), 0.0)


def test_projection_variational_inequality():
    # P(x) is the projection iff (x - P(x)) . (z - P(x)) <= 0 for all feasible z
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = rng.integers(1, 8)
        R = rng.uniform(0.5, 20.0)
        x = rng.normal(0.0, 10.0, size=n)
        px = project_carrier_block(x, R)
        assert (px >= -1e-12).all()
        assert px.sum() <= R * (1.0 + 1e-12)
        for _ in range(5):
            z = rng.uniform(0.0, 1.0, size=n)
            z = z / max(z.sum(), 1e-12) * rng.uniform(0.0, R)
            assert float((x - px) @ (z - px)) <= 1e-9 * (1.0 + np.abs(x).max())


# ---------------------------------------------------------------------------
# solve_central


def test_identical_ues_split_evenly():
    u = LogarithmicUtility(k=3.0, r_max=100.0)
    s = Scenario(
        carriers=(CarrierSpec(id=1, capacity=100.0),),
        ues=(UESpec(id=1, utility=u, carriers=(1,)), UESpec(id=2, utility=u, carriers=(1,))),
        name="twins",
    )
    sol = solve_central(s)
    assert sol.totals[1] == pytest.approx(50.0, abs=1e-6)
    assert sol.totals[2] == pytest.approx(50.0, abs=1e-6)
    assert sol.objective == pytest.approx(2.0 * log_utility(u, 50.0), abs=1e-9)


def test_sig_log_pair_equalizes_marginals():
    s = two_ue_scenario()
    sol = solve_central(s)
    # independent scalar bisection on marginal_sig(r) = marginal_log(100 - r)
    sig, log = s.ues[0].utility, s.ues[1].utility
    lo, hi = 1e-9, 100.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if marginal(sig, mid) > marginal(log, 100.0 - mid):
            lo = mid
        else:
            hi = mid
    r_sig = 0.5 * (lo + hi)
    assert sol.totals[1] == pytest.approx(r_sig, abs=1e-6)
    assert sol.totals[2] == pytest.approx(100.0 - r_sig, abs=1e-6)


def test_paper_scenario_totals_at_r1_300():
    s = build_paper_scenario(300.0)
    sol = solve_central(s)
    expected = [11.27, 21.94, 34.72, 19.82, 25.67, 36.36]
    for j, want in enumerate(expected):
        assert sol.totals[13 + j] == pytest.approx(want, abs=1.0)
    assert sol.duality_gap <= GAP_TOL and kkt_check(sol, s, 1e-9).passed


def test_single_price_totals_match_closed_form_demands():
    # Where both carriers share one price, every total is the user's demand
    # at the price that clears 100 + R1 units.  The helpers invert the
    # marginals in closed form, independently of solve_rate_for_price.
    def demand(u, p):
        if isinstance(u, SigmoidalUtility):
            return sig_demand_closed_form(u.a, u.b, p)
        return log_demand_lambertw(u.k, p)

    for r1 in (110.0, 180.0):
        s = build_paper_scenario(r1)
        sol = solve_central(s)
        assert sol.prices[1] == sol.prices[2]
        lo, hi = 1e-6, 10.0
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            if sum(demand(u.utility, mid) for u in s.ues) > s.total_capacity:
                lo = mid
            else:
                hi = mid
        for ue in s.ues:
            assert sol.totals[ue.id] == pytest.approx(demand(ue.utility, lo), abs=1e-11)


@pytest.mark.filterwarnings("error")
def test_paper_sweep_points_certify():
    # The 29 reference points of the sweep, R1 = 20..300: each certifies,
    # passes the KKT diagnostic at 1e-9 and fills both carriers, without a
    # numpy warning.
    for r1 in range(20, 301, 10):
        s = build_paper_scenario(float(r1))
        sol = solve_central(s)
        assert sol.duality_gap <= GAP_TOL and kkt_check(sol, s, 1e-9).passed
        for c in s.carriers:
            load = sum(r for (cid, _), r in sol.rates.items() if cid == c.id)
            assert load == pytest.approx(c.capacity, rel=1e-12)


def test_oracle_capacity_exhausted_exactly():
    sol = solve_central(build_paper_scenario(110.0))
    loads = {1: 0.0, 2: 0.0}
    for (cid, _), r in sol.rates.items():
        assert r >= 0.0
        loads[cid] += r
    assert abs(loads[1] - 110.0) <= 1e-9 * 110.0
    assert abs(loads[2] - 100.0) <= 1e-9 * 100.0


def test_totals_unique_across_listing_orders():
    s = build_paper_scenario(150.0)
    base = solve_central(s)
    rng = np.random.default_rng(31)
    for _ in range(2):
        carriers, ues = list(s.carriers), list(s.ues)
        rng.shuffle(carriers)
        rng.shuffle(ues)
        other = solve_central(Scenario(tuple(carriers), tuple(ues), s.name))
        for uid, total in base.totals.items():
            assert other.totals[uid] == pytest.approx(total, abs=1e-7)


def test_oracle_objective_dominates_random_feasible_points():
    s = build_paper_scenario(90.0)
    sol = solve_central(s)
    rng = np.random.default_rng(37)
    utilities = {u.id: u.utility for u in s.ues}
    for _ in range(100):
        totals = {uid: 0.0 for uid in utilities}
        for c in s.carriers:
            members = [u.id for u in s.ues if c.id in u.carriers]
            weights = rng.uniform(0.0, 1.0, size=len(members))
            weights = weights / weights.sum() * c.capacity
            for uid, w in zip(members, weights):
                totals[uid] += float(w)
        candidate = sum(log_utility(utilities[uid], t) for uid, t in totals.items())
        assert candidate <= sol.objective + 1e-9


def test_gradient_matches_finite_differences():
    s = build_paper_scenario(150.0)
    utilities = {u.id: u.utility for u in s.ues}
    rng = np.random.default_rng(41)
    for _ in range(50):
        uid = int(rng.integers(1, 19))
        total = float(rng.uniform(0.5, 60.0))
        h = 1e-6 * max(1.0, total)
        fd = (
            log_utility(utilities[uid], total + h)
            - log_utility(utilities[uid], total - h)
        ) / (2.0 * h)
        noise = fd_marginal_tolerance(utilities[uid], total, h)
        assert abs(marginal(utilities[uid], total) - fd) <= 1e-5 * abs(fd) + noise


def test_duality_gap_is_small():
    # D(p) - P(T*) at every reference point, within the rounding the gap makes
    for r1 in range(20, 301, 10):
        s = build_paper_scenario(float(r1))
        sol = solve_central(s)
        assert abs(duality_gap(sol, s)) <= gap_rounding_budget(s, sol), r1


def _one_user(utility, capacities):
    """One user reaching carriers 1, 2, ... of the given capacities."""
    carriers = tuple(CarrierSpec(id=l, capacity=c) for l, c in enumerate(capacities, 1))
    return Scenario(carriers=carriers, ues=(UESpec(1, utility, tuple(range(1, len(capacities) + 1))),))


def _candidate(rates, prices):
    """Rates and prices of one user on carriers 1, 2, ..., as a result carries them."""
    return SimpleNamespace(
        rates={(l, 1): r for l, r in enumerate(rates, 1)},
        prices=dict(enumerate(prices, 1)),
        totals={1: sum(rates)},
    )


def test_duality_gap_vanishes_at_demand_and_grows_off_it():
    demand = solve_rate_for_price(LOG_HALF, 0.05, 100.0)
    split = [0.25 * demand, 0.75 * demand]
    s = _one_user(LOG_HALF, split)  # the user reaches exactly its demand
    assert duality_gap(_candidate(split, [0.05, 0.05]), s) == pytest.approx(0.0, abs=1e-12)
    short = [0.25 * demand, 0.5 * demand]
    lost = log_utility(LOG_HALF, demand) - log_utility(LOG_HALF, 0.75 * demand)
    unsold = 0.05 * 0.25 * demand  # carrier 2's price times its idle capacity
    gap = duality_gap(_candidate(short, [0.05, 0.05]), s)
    assert gap == pytest.approx((lost - 0.05 * 0.25 * demand) + unsold)


def test_duality_gap_charges_rate_bought_above_the_cheapest_price():
    demand = solve_rate_for_price(LOG_HALF, 0.05, 100.0)
    s = _one_user(LOG_HALF, [demand - 1.0, 1.0])
    gap = duality_gap(_candidate([demand - 1.0, 1.0], [0.05, 0.08]), s)
    assert gap == pytest.approx(0.03 * 1.0, rel=1e-9)
    assert duality_gap(_candidate([0.0, 0.0], [0.05, 0.08]), s) == math.inf


@pytest.mark.parametrize("capacity", (20.0, 30.0, 60.0, 150.0))
def test_duality_gap_is_defined_at_a_zero_price(capacity):
    # one steep user alone on one carrier: its marginal underflows at R=150,
    # so the oracle prices it at exactly 0, and D(0) takes the user's cap
    s = _one_user(SigmoidalUtility(a=8.72, b=16.72), [capacity])
    sol = solve_central(s)
    gap = duality_gap(sol, s)
    assert abs(gap) <= gap_rounding_budget(s, sol)
    assert (sol.prices[1] == 0.0) == (capacity == 150.0)


# ---------------------------------------------------------------------------
# the reference experiment's prices, without the KKT residuals

U = 2.0**-53  # unit roundoff


def _objective_error(s, sol):
    """How far the oracle's objective may be from the optimum P*: its duality
    gap and that gap's rounding, plus the rounding of the sum itself.  Each
    scalar ln U value adds terms no larger than |ln U| + 2 a (T + b) + 2
    (logarithmic: |ln U| + 2 |ln ln(1 + k r_max)| + 2), each a few roundings
    off, and M of them are summed: (M + 8) u times the terms in all."""
    terms = 0.0
    for ue in s.ues:
        u, t = ue.utility, sol.totals[ue.id]
        if isinstance(u, SigmoidalUtility):
            terms += abs(log_utility(u, t)) + 2.0 * u.a * (t + u.b) + 2.0
        else:
            terms += abs(log_utility(u, t)) + 2.0 * abs(math.log(math.log1p(u.k * u.r_max))) + 2.0
    return abs(duality_gap(sol, s)) + gap_rounding_budget(s, sol) + (len(s.ues) + 8) * U * terms


@pytest.mark.parametrize("r1", (20.0, 150.0, 300.0))
def test_objective_derivative_in_r1_is_the_price_of_carrier_1(r1):
    # Envelope theorem: where P*(R1) is differentiable, dP*/dR1 = p1.  R1 =
    # 20, 150 and 300 lie inside the three price regimes.  A central
    # difference with step h errs by h^2/6 |P'''| = h^2/6 |p1''| (taken as
    # twice the second difference of p1 over 10 h), plus the error of the two
    # objectives divided by the step.
    h = 1e-4 * r1
    grid = (r1 - 10.0 * h, r1 - h, r1, r1 + h, r1 + 10.0 * h)
    s = {x: build_paper_scenario(x) for x in grid}
    sol = {x: solve_central(s[x]) for x in grid}
    p1 = {x: sol[x].prices[1] for x in grid}
    lo, hi = grid[1], grid[3]
    fd = (sol[hi].objective - sol[lo].objective) / (hi - lo)
    curvature = abs(p1[grid[4]] - 2.0 * p1[r1] + p1[grid[0]]) / (0.5 * (grid[4] - grid[0])) ** 2
    truncation = 2.0 * (0.5 * (hi - lo)) ** 2 / 6.0 * curvature
    rounding = (_objective_error(s[hi], sol[hi]) + _objective_error(s[lo], sol[lo])) / (hi - lo)
    assert abs(fd - p1[r1]) <= truncation + rounding, (fd, p1[r1], truncation, rounding)


def _regime(r1):
    """1 while the optimum prices carrier 1 above carrier 2, 0 while they
    share one price, -1 when carrier 1 is the cheaper."""
    p = solve_central(build_paper_scenario(r1)).prices
    return (p[1] > p[2]) - (p[1] < p[2])


def test_price_regimes_change_at_r1_50_and_200():
    # Fig. 4: p1 > p2, then one shared price, then p1 < p2.  Groups 1 and 2
    # are alike and group 3 reaches both carriers, so at one shared price the
    # three sets demand (R1 + 100)/3 each: carrier 1 alone holds group 1's
    # share down to R1 = 50, and carrier 2 group 2's up to R1 = 200.  There
    # carrier 1's room moves by 2/3 per unit of R1 and carrier 2's by 1/3.
    # The oracle's Hall split counts room up to 1e-12 (R1 + 100) as zero, its
    # clearing leaves as much excess, and rounding in ln m_i moves the shared
    # price by eps_i, so each user's total by T_i e_i eps_i (e_i its demand
    # elasticity, eps_i as in tests/test_invariance): those over the slope.
    assert (_regime(20.0), _regime(150.0), _regime(300.0)) == (1, 0, -1)
    for exact, slope, lo, hi in ((50.0, 2.0 / 3.0, 20.0, 150.0), (200.0, 1.0 / 3.0, 150.0, 300.0)):
        start = _regime(lo)
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _regime(mid) == start else (lo, mid)
        s = build_paper_scenario(exact)
        sol = solve_central(s)
        params = parameter_arrays([ue.utility for ue in s.ues])
        sig, a, b, k, _ = params
        t = np.array([sol.totals[ue.id] for ue in s.ues])
        m, dm = marginals(params, t)
        eps = U * (8.0 * np.where(sig, a * (t + b), k * t) + 16.0)
        shift = (t * m / (t * -dm) * eps).sum()
        assert abs(hi - exact) <= (2e-12 * (exact + 100.0) + shift) / slope, (exact, hi)


def test_failed_certificate_raises_naming_the_gap(monkeypatch):
    monkeypatch.setattr(oracle, "dual_gap", lambda *args: 3e-6)
    with pytest.raises(OracleError, match=r"duality gap 3\.000e-06 \(at most 1e-09\)"):
        solve_central(two_ue_scenario())


def test_hall_split_prices_captive_users_apart():
    # Six identical users, 110 units: a common price would give each 55/3,
    # but the three captive on the 10-unit carrier can only share 10.
    u = LogarithmicUtility(k=2.0, r_max=100.0)
    s = Scenario(
        carriers=(CarrierSpec(id=1, capacity=10.0), CarrierSpec(id=2, capacity=100.0)),
        ues=tuple(UESpec(id=i, utility=u, carriers=(1,)) for i in (1, 2, 3))
        + tuple(UESpec(id=i, utility=u, carriers=(1, 2)) for i in (4, 5, 6)),
        name="captive",
    )
    sol = solve_central(s)
    for uid in (1, 2, 3):
        assert sol.totals[uid] == pytest.approx(10.0 / 3.0, abs=1e-9)
    for uid in (4, 5, 6):
        assert sol.totals[uid] == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert sol.rates[(1, uid)] == 0.0
    assert sol.prices[1] == pytest.approx(marginal(u, 10.0 / 3.0), rel=1e-9)
    assert sol.prices[2] == pytest.approx(marginal(u, 100.0 / 3.0), rel=1e-9)
    assert sol.prices[1] > 2.0 * sol.prices[2]


def test_hall_split_on_twelve_carrier_chain():
    # Carriers 1..12 of 10 units; user l reaches carriers l and l+1, and three
    # more users only carrier 12.  Those three share carrier 12; the chain
    # users then fill carriers 1..11 with 10 each.
    u = LogarithmicUtility(k=1.0, r_max=100.0)
    s = Scenario(
        carriers=tuple(CarrierSpec(id=l, capacity=10.0) for l in range(1, 13)),
        ues=tuple(UESpec(id=l, utility=u, carriers=(l, l + 1)) for l in range(1, 12))
        + tuple(UESpec(id=i, utility=u, carriers=(12,)) for i in (12, 13, 14)),
        name="chain",
    )
    sol = solve_central(s)
    for uid in range(1, 12):
        assert sol.totals[uid] == pytest.approx(10.0, abs=1e-9)
    for uid in (12, 13, 14):
        assert sol.totals[uid] == pytest.approx(10.0 / 3.0, abs=1e-9)
    assert sol.prices[12] == pytest.approx(marginal(u, 10.0 / 3.0), rel=1e-9)
    for cid in range(1, 12):
        assert sol.prices[cid] == pytest.approx(marginal(u, 10.0), rel=1e-9)


def test_hall_split_push_rounds_on_its_own_scale():
    # 1e-3 taken from a user holding 1e4 is 1e-3 exactly: a share computed
    # as 1e-3 - 1e4 + 1e4 overloads a carrier of 1e-3 by 2e-10 relative
    assert oracle._first(np.array([1e4, 1.0]), 1e-3).tolist() == [1e-3, 0.0]
    assert oracle._first(np.array([2.0, 3.0, 4.0]), 6.0).tolist() == [2.0, 3.0, 1.0]


def _random_flow_network(rng, kind):
    """Demands, capacities and a carrier x user reach mask for ``_hall_split``.

    ``kind`` "tight": the demands and capacities are the user and carrier
    sums of a random flow on the mask, so every demand can be routed and
    fills every carrier; "slack": the same with spare capacity; "random":
    independent draws, so Hall's condition often fails.  About a fifth of
    the users copy the previous user's reach and weight, and about a third
    reach a single carrier.  "chain": 2-32 carriers in a row, each user on
    carrier l and usually l+1, and capacities near the mean load, so that
    routing needs long augmenting paths and Hall's condition may fail.
    """
    if kind == "chain":
        n_carriers = int(rng.integers(2, 33))
        n_users = int(rng.integers(n_carriers, 4 * n_carriers + 1))
        demand = rng.uniform(1.0, 20.0, size=n_users)
        first, users = rng.integers(0, n_carriers, size=n_users), np.arange(n_users)
        mask = np.zeros((n_carriers, n_users), dtype=bool)
        mask[first, users] = True
        mask[np.minimum(first + 1, n_carriers - 1), users] |= rng.random(n_users) < 0.8
        return demand, demand.sum() / n_carriers * rng.uniform(0.7, 1.3, size=n_carriers), mask
    n_carriers, n_users = int(rng.integers(1, 7)), int(rng.integers(1, 13))
    mask = np.zeros((n_carriers, n_users), dtype=bool)
    weight = rng.uniform(1.0, 20.0, size=n_users)
    for j in range(n_users):
        if j and rng.random() < 0.2:
            mask[:, j], weight[j] = mask[:, j - 1], weight[j - 1]
            continue
        size = 1 if rng.random() < 0.3 else int(rng.integers(1, min(3, n_carriers) + 1))
        mask[rng.choice(n_carriers, size=size, replace=False), j] = True
    if kind == "random":
        return weight, rng.uniform(1.0, 20.0, size=n_carriers) * rng.uniform(0.2, 2.0), mask
    share = rng.uniform(0.0, 1.0, size=mask.shape) * mask
    flow = weight * share / share.sum(axis=0)  # identical users get identical flows
    caps = flow.sum(axis=1)
    if kind == "slack":
        caps = caps + rng.uniform(0.0, 5.0, size=n_carriers)
    return flow.sum(axis=0), caps, mask


@pytest.mark.parametrize("kind", ["tight", "slack", "random", "chain"])
def test_hall_split_flow_and_cut_certify_each_other(kind):
    # Max-flow/min-cut certificate: the flow is feasible, no cut user reaches
    # a carrier outside the cut, and the flow's value equals the capacity of
    # the cut, the demand of the users outside it plus the cut carriers'.
    rng = np.random.default_rng({"tight": 11, "slack": 12, "random": 13, "chain": 14}[kind])
    proper_cuts = 0
    for _ in range(300):
        demand, caps, mask = _random_flow_network(rng, kind)
        eps = 1e-12 * caps.sum()
        flow, cut_users, cut_carriers = oracle._hall_split(demand, caps, mask)
        assert flow.shape == mask.shape
        assert (flow >= 0.0).all() and (flow[~mask] == 0.0).all()
        assert (flow.sum(axis=0) <= demand + eps).all()
        assert (flow.sum(axis=1) <= caps + eps).all()
        assert not mask[~cut_carriers][:, cut_users].any()
        cut_value = demand[~cut_users].sum() + caps[cut_carriers].sum()
        assert abs(flow.sum() - cut_value) <= len(caps) * eps
        if kind in ("tight", "slack"):  # Hall's condition holds: every demand is routed
            assert abs(flow.sum() - demand.sum()) <= len(caps) * eps
        if kind == "tight":  # every carrier full, so no user reaches the sink
            assert cut_users.all()
        proper_cuts += 0 < cut_users.sum() < cut_users.size
    if kind in ("random", "chain"):
        assert proper_cuts > 0


def test_satiated_users_share_spare_capacity():
    # Past b + 37/a the scalar sigmoidal marginal cancels to 0, but the
    # kernel's form does not: at 43 units each the pair's marginal is about
    # 2e-144, a real clearing price, and the identical users split evenly.
    u = SigmoidalUtility(a=9.0, b=6.0)
    s = Scenario(
        carriers=(CarrierSpec(id=1, capacity=86.0),),
        ues=(UESpec(id=1, utility=u, carriers=(1,)), UESpec(id=2, utility=u, carriers=(1,))),
        name="satiated",
    )
    sol = solve_central(s)
    assert sol.totals == {1: 43.0, 2: 43.0}
    assert 0.0 < sol.prices[1] <= 1e-15


def _random_multi_carrier_scenario(rng, name, n_carriers=None, n_ues=None):
    n_carriers = n_carriers or int(rng.integers(2, 17))
    n_ues = n_ues or int(rng.integers(2, 2 * n_carriers + 3))
    utilities = random_utilities(rng, n_ues)
    for j in range(1, n_ues):
        if rng.random() < 0.2:
            utilities[j] = utilities[j - 1]  # an identical-user pair
    ues = []
    for j, utility in enumerate(utilities):
        size = int(rng.integers(1, min(3, n_carriers) + 1))
        reach = rng.choice(n_carriers, size=size, replace=False) + 1
        ues.append(UESpec(id=j + 1, utility=utility, carriers=tuple(sorted(int(c) for c in reach))))
    carriers = tuple(
        CarrierSpec(id=l, capacity=float(rng.uniform(5.0, 100.0)))
        for l in range(1, n_carriers + 1)
    )
    return Scenario(carriers=carriers, ues=tuple(ues), name=name)


@pytest.mark.filterwarnings("error")
def test_random_multi_carrier_scenarios_certify():
    rng = np.random.default_rng(53)
    failures = []
    for i in range(201):
        # after 200 small scenarios, one of 1000 users on 8 carriers
        s = _random_multi_carrier_scenario(rng, f"random-{i}", *([8, 1000] if i == 200 else []))
        try:
            sol = solve_central(s)
        except OracleError as exc:
            failures.append(str(exc))
            continue
        assert sol.duality_gap <= GAP_TOL and kkt_check(sol, s, 1e-9).passed, s.name
        utilities = {u.id: u.utility for u in s.ues}
        for _ in range(20):
            totals = dict.fromkeys(utilities, 0.0)
            for c in s.carriers:
                members = [u.id for u in s.ues if c.id in u.carriers]
                if not members:
                    continue
                weights = rng.uniform(0.0, 1.0, size=len(members))
                for uid, w in zip(members, weights / weights.sum() * c.capacity):
                    totals[uid] += float(w)
            candidate = sum(log_utility(utilities[uid], t) for uid, t in totals.items())
            assert candidate <= sol.objective + 1e-9, s.name
    assert not failures, failures
    assert sol.iterations > 1, "the 1000-user scenario needs a Hall split"


@pytest.mark.filterwarnings("error")
def test_inverter_failure_raises_oracle_error_naming_the_group(monkeypatch):
    def failing_demands(*args):
        raise RootFindingError("Newton inverter failed to converge")

    monkeypatch.setattr(oracle, "demands", failing_demands)
    with pytest.raises(OracleError, match=r"users \[1, 2\] on capacity 181\.3") as info:
        solve_central(flat_stretch_scenario())
    assert "price bracket [" in str(info.value)
    assert isinstance(info.value.__cause__, RootFindingError)


@pytest.mark.filterwarnings("error")
def test_flat_stretch_scenario_certifies():
    # Both marginals equal a to machine precision over most of the capacity.
    s = flat_stretch_scenario()
    sol = solve_central(s)
    assert sol.duality_gap <= GAP_TOL and kkt_check(sol, s, 1e-9).passed
    assert 41.6 <= sol.prices[1] <= 44.5


@pytest.mark.filterwarnings("error")
def test_flat_clearing_prices_a_vertical_demand_at_its_own_marginal():
    # Two users of a steep profile (a*b = 21,728) share one carrier with two
    # of a profile whose marginal falls through that a.  The first two end on
    # their flat stretch, where the marginal is a to machine precision: their
    # demand is vertical there, so the price is a.  Priced 1.7e-12 relative
    # below a, each would buy about 913 instead of 615, a gap of 2.4e-8 that
    # KKT residuals of 4e-11 do not see.
    flat = SigmoidalUtility(a=23.772953595469016, b=913.9907971921706)
    steep = SigmoidalUtility(a=38.333562084391005, b=1.7796294689159602)
    s = Scenario(
        carriers=(CarrierSpec(id=1, capacity=1233.5),),
        ues=tuple(
            UESpec(id=i, utility=u, carriers=(1,))
            for i, u in enumerate((flat, flat, steep, steep), 1)
        ),
        name="flat-clearing",
    )
    sol = solve_central(s)
    assert sol.duality_gap <= GAP_TOL
    assert abs(sol.prices[1] - flat.a) <= 4.0 * math.ulp(flat.a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(1, 7))
def test_random_scenarios_of_2000_users_on_16_carriers_certify(seed):
    # groups of hundreds of users priced next to their sigmoidal steepness
    rng = np.random.default_rng(seed)
    s = _random_multi_carrier_scenario(rng, f"random-2000-{seed}", 16, 2000)
    sol = solve_central(s)
    assert sol.duality_gap <= GAP_TOL and kkt_check(sol, s, 1e-9).passed


def test_wide_range_scenarios_certify_or_raise_oracle_error():
    # Far outside the paper's ranges (helpers.wide_range_scenario): a*b up to
    # 5e4, capacities over seven decades, shared profiles.  Every scenario
    # counts; one that the flat clearing cannot certify must raise
    # OracleError from the certificate, never fail in the demand inverter.
    # Every one certifies today, and passes the KKT diagnostic at 1e-9 too.
    rng = np.random.default_rng(15)
    certified = []
    counts = Counter(
        oracle_outcome(wide_range_scenario(rng, f"wide-{i}"), certified) for i in range(100)
    )
    assert counts["inverter"] == 0, counts
    assert counts["certified"] == 100, counts
    assert all(kkt for _, kkt in certified)


# ---------------------------------------------------------------------------
# kkt_check


def test_exact_solution_passes_kkt_at_solver_tol():
    s = build_paper_scenario(200.0)
    sol = solve_central(s)
    assert kkt_check(sol, s, tol=1e-9).passed
    assert duality_gap(sol, s) == sol.duality_gap  # the dict front reads the solver's arrays back


def test_perturbation_grows_stationarity_residual():
    s = two_ue_scenario()
    sol = solve_central(s)
    base = kkt_check(sol, s, tol=1e-9)
    bumped = dict(sol.rates)
    key = (1, 1)
    bumped[key] = bumped[key] * 1.01

    class Candidate:
        rates = bumped
        prices = sol.prices

    worse = kkt_check(Candidate(), s, tol=1e-9)
    assert worse.stationarity_active > base.stationarity_active
    assert not worse.passed


def test_kkt_residuals_match_hand_computation():
    # carrier 1 is priced below capacity, carrier 2 overloaded; user 1 holds
    # an active link and a negative (so inactive) one whose marginal exceeds
    # its price; user 2's rate below tol leaves its link inactive; user 3's
    # rate on carrier 2, which it does not reach, counts in its total and that
    # carrier's load only; user 4 holds no rate.
    def m_log(k, t):
        return k / ((1.0 + k * t) * math.log1p(k * t))

    def m_sig(a, b, t):
        return a * (1.0 / -math.expm1(-a * t) - 1.0 / (1.0 + math.exp(-a * (t - b))))

    ues = (
        UESpec(id=1, utility=LogarithmicUtility(k=1.0, r_max=10.0), carriers=(1, 2)),
        UESpec(id=2, utility=SigmoidalUtility(a=2.0, b=5.0), carriers=(1, 2)),
        UESpec(id=3, utility=LogarithmicUtility(k=0.5, r_max=10.0), carriers=(1,)),
        UESpec(id=4, utility=LogarithmicUtility(k=2.0, r_max=10.0), carriers=(1, 2)),
    )
    carriers = (CarrierSpec(id=1, capacity=10.0), CarrierSpec(id=2, capacity=5.0))

    class Candidate:
        rates = {(1, 1): 3.0, (2, 1): -0.25, (1, 2): 1e-10, (2, 2): 7.0, (1, 3): 3.0, (2, 3): 0.5}
        prices = {1: 0.2, 2: 0.05}

    m1, m2, m3 = m_log(1.0, 2.75), m_sig(2.0, 5.0, 7.0 + 1e-10), m_log(0.5, 3.5)
    expected = {
        "stationarity_active": max(abs(m1 - 0.2), abs(m2 - 0.05), abs(m3 - 0.2)),
        "stationarity_inactive": m1 - 0.05,
        "complementary_slackness": max(0.2 * (10.0 - 6.0 - 1e-10), 0.05 * (7.25 - 5.0)),
        "capacity_violation": (7.25 - 5.0) / 5.0,
        "negativity_violation": 0.25,
    }
    without_4 = kkt_check(Candidate(), Scenario(carriers=carriers, ues=ues[:3]), tol=1e-9)
    with_4 = kkt_check(Candidate(), Scenario(carriers=carriers, ues=ues), tol=1e-9)
    for name, value in expected.items():
        assert getattr(without_4, name) == pytest.approx(value, rel=1e-12), name
        if name != "stationarity_active":
            assert getattr(with_4, name) == pytest.approx(value, rel=1e-12), name
    assert with_4.stationarity_active == math.inf
    assert not without_4.passed and not with_4.passed
    # a rate on an unknown carrier or user is an error, not a zero
    for key in ((9, 1), (1, 9)):
        Candidate.rates = {(1, 1): 3.0, key: 1.0}
        with pytest.raises(KeyError):
            kkt_check(Candidate(), Scenario(carriers=carriers, ues=ues), tol=1e-9)


def test_converged_protocol_passes_kkt_at_10_delta():
    s = build_paper_scenario(130.0)
    res = run(s, EngineConfig())
    report = kkt_check(res, s, tol=10.0 * 1e-3)
    assert report.passed
