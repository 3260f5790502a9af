"""Centralized solver: projection, optima, KKT certification, duality."""

import math
from collections import Counter

import numpy as np
import pytest

from helpers import (
    fd_marginal_tolerance,
    flat_stretch_scenario,
    log_demand_lambertw,
    oracle_outcome,
    random_utilities,
    sig_demand_closed_form,
    wide_range_scenario,
)
from carrieralloc import oracle
from carrieralloc.oracle import (
    KKTReport,
    OracleError,
    kkt_check,
    project_carrier_block,
    solve_central,
)
from carrieralloc.protocol import EngineConfig, run
from carrieralloc.scenario import CarrierSpec, Scenario, UESpec, build_paper_scenario
from carrieralloc.subproblem import gap_term
from carrieralloc.utility import (
    LogarithmicUtility,
    RootFindingError,
    SigmoidalUtility,
    log_utility,
    marginal,
)


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
    sol = solve_central(s, tol=1e-9)
    assert sol.totals[1] == pytest.approx(50.0, abs=1e-6)
    assert sol.totals[2] == pytest.approx(50.0, abs=1e-6)
    assert sol.objective == pytest.approx(2.0 * log_utility(u, 50.0), abs=1e-9)


def test_sig_log_pair_equalizes_marginals():
    s = two_ue_scenario()
    sol = solve_central(s, tol=1e-9)
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
    sol = solve_central(build_paper_scenario(300.0), tol=1e-9)
    expected = [11.27, 21.94, 34.72, 19.82, 25.67, 36.36]
    for j, want in enumerate(expected):
        assert sol.totals[13 + j] == pytest.approx(want, abs=1.0)
    assert sol.kkt.passed


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
        sol = solve_central(s, tol=1e-9)
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
    # The 29 reference points of the sweep, R1 = 20..300: each certifies at
    # 1e-9 and fills both carriers, without a numpy warning.
    for r1 in range(20, 301, 10):
        s = build_paper_scenario(float(r1))
        sol = solve_central(s, tol=1e-9)
        assert sol.kkt.passed and sol.kkt.tol == 1e-9
        for c in s.carriers:
            load = sum(r for (cid, _), r in sol.rates.items() if cid == c.id)
            assert load == pytest.approx(c.capacity, rel=1e-12)


def test_oracle_capacity_exhausted_exactly():
    sol = solve_central(build_paper_scenario(110.0), tol=1e-9)
    loads = {1: 0.0, 2: 0.0}
    for (cid, _), r in sol.rates.items():
        assert r >= 0.0
        loads[cid] += r
    assert abs(loads[1] - 110.0) <= 1e-9 * 110.0
    assert abs(loads[2] - 100.0) <= 1e-9 * 100.0


def test_totals_unique_across_listing_orders():
    s = build_paper_scenario(150.0)
    tol = 1e-9
    base = solve_central(s, tol=tol)
    rng = np.random.default_rng(31)
    for _ in range(2):
        carriers, ues = list(s.carriers), list(s.ues)
        rng.shuffle(carriers)
        rng.shuffle(ues)
        other = solve_central(Scenario(tuple(carriers), tuple(ues), s.name), tol=tol)
        for uid, total in base.totals.items():
            assert other.totals[uid] == pytest.approx(total, abs=10.0 * tol + 1e-7)


def test_oracle_objective_dominates_random_feasible_points():
    s = build_paper_scenario(90.0)
    sol = solve_central(s, tol=1e-9)
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
    # the protocol's dual function: one gap_term per user plus
    # p_l (R_l - load_l) per carrier
    s = build_paper_scenario(150.0)
    sol = solve_central(s, tol=1e-9)
    gap = 0.0
    for ue in s.ues:
        prices = [sol.prices[cid] for cid in ue.carriers]
        rates = [sol.rates.get((cid, ue.id), 0.0) for cid in ue.carriers]
        r_cap = sum(s.carrier(cid).capacity for cid in ue.carriers)
        gap += gap_term(ue.utility, prices, rates, r_cap)
    for c in s.carriers:
        load = sum(r for (cid, _), r in sol.rates.items() if cid == c.id)
        gap += sol.prices[c.id] * (c.capacity - load)
    assert -1e-9 <= gap <= 1e-5


def test_failed_certificate_raises_naming_worst_residual(monkeypatch):
    def failing_check(candidate, scenario, tol):
        return KKTReport(
            stationarity_active=3e-6,
            stationarity_inactive=0.0,
            complementary_slackness=1e-7,
            capacity_violation=0.0,
            negativity_violation=0.0,
            tol=tol,
            passed=False,
        )

    monkeypatch.setattr(oracle, "kkt_check", failing_check)
    with pytest.raises(OracleError, match=r"stationarity_active = 3\.000e-06"):
        solve_central(two_ue_scenario(), tol=1e-9)


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
    sol = solve_central(s, tol=1e-9)
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
    sol = solve_central(s, tol=1e-9)
    for uid in range(1, 12):
        assert sol.totals[uid] == pytest.approx(10.0, abs=1e-9)
    for uid in (12, 13, 14):
        assert sol.totals[uid] == pytest.approx(10.0 / 3.0, abs=1e-9)
    assert sol.prices[12] == pytest.approx(marginal(u, 10.0 / 3.0), rel=1e-9)
    for cid in range(1, 12):
        assert sol.prices[cid] == pytest.approx(marginal(u, 10.0), rel=1e-9)


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
    sol = solve_central(s, tol=1e-9)
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
            sol = solve_central(s, tol=1e-9)
        except OracleError as exc:
            failures.append(str(exc))
            continue
        assert sol.kkt.passed and sol.kkt.tol == 1e-9
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


def test_oracle_rejects_bad_tol():
    with pytest.raises(OracleError):
        solve_central(two_ue_scenario(), tol=0.0)


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
    sol = solve_central(flat_stretch_scenario(), tol=1e-9)
    assert sol.kkt.passed and sol.kkt.tol == 1e-9
    assert 41.6 <= sol.prices[1] <= 44.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(1, 7))
def test_random_scenarios_of_2000_users_on_16_carriers_certify(seed):
    # groups of hundreds of users priced next to their sigmoidal steepness
    rng = np.random.default_rng(seed)
    s = _random_multi_carrier_scenario(rng, f"random-2000-{seed}", 16, 2000)
    sol = solve_central(s, tol=1e-9)
    assert sol.kkt.passed and sol.kkt.tol == 1e-9


def test_wide_range_scenarios_certify_or_raise_oracle_error():
    # Far outside the paper's ranges (helpers.wide_range_scenario): a*b up to
    # 5e4, capacities over seven decades, shared profiles.  Every scenario
    # counts; the few that the flat clearing cannot certify yet must raise
    # OracleError from the certificate, never fail in the demand inverter.
    rng = np.random.default_rng(15)
    counts = Counter(oracle_outcome(wide_range_scenario(rng, f"wide-{i}")) for i in range(100))
    assert counts["inverter"] == 0, counts
    assert counts["certified"] >= 97, counts


# ---------------------------------------------------------------------------
# kkt_check


def test_exact_solution_passes_kkt_at_solver_tol():
    s = build_paper_scenario(200.0)
    sol = solve_central(s, tol=1e-9)
    report = kkt_check(sol, s, tol=1e-9)
    assert report.passed


def test_perturbation_grows_stationarity_residual():
    s = two_ue_scenario()
    sol = solve_central(s, tol=1e-9)
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
