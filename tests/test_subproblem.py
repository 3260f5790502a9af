"""UE bidding step: reference demand, damping, invariants."""

import math
import random

import pytest

from generators import random_utilities
from helpers import (
    RecordingUtility,
    _sum_from_zero,
    anchored_demand_reference,
    outcome,
)
from carrieralloc import subproblem
from carrieralloc.protocol import PRICE_FLOOR
from carrieralloc.subproblem import ANCHOR_GAIN, ProtocolError, _anchored_demand, ue_step
from carrieralloc.utility import (
    LogarithmicUtility,
    SigmoidalUtility,
    solve_rate_for_price,
)

LOG_HALF = LogarithmicUtility(k=0.5, r_max=100.0)


def test_damping_mixes_raw_with_last_bids():
    # the raw bid is the one a step at full damping sends
    (raw,), _ = ue_step(LOG_HALF, [0.05], [1.0], [2.0], 100.0, 1.0)
    assert raw != 1.0
    bids, anchor = ue_step(LOG_HALF, [0.05], [1.0], [2.0], 100.0, 0.7)
    assert bids[0] == pytest.approx(0.7 * raw + 0.3 * 1.0, rel=1e-12)
    # the new anchor is the rate the damped bid buys
    assert anchor == [bids[0] / 0.05]
    for damping in (0.0, 1.5):
        with pytest.raises(ProtocolError, match="damping"):
            ue_step(LOG_HALF, [0.05], [1.0], [2.0], 100.0, damping)


def test_fixed_point_is_preserved_for_any_damping():
    # if raw bids equal last_bids, the step returns last_bids
    p = 0.05
    demand = solve_rate_for_price(LOG_HALF, p, 100.0)
    for damping in (0.1, 0.5, 1.0):
        bids, anchor = ue_step(LOG_HALF, [p], [p * demand], [demand], 100.0, damping)
        assert bids[0] == pytest.approx(p * demand, rel=1e-9)
        assert anchor[0] == pytest.approx(demand, rel=1e-9)


def test_anchored_step_keeps_stationary_split_across_carriers():
    # a stationary two-carrier split (equal prices) must reproduce itself
    p = 0.03
    total = solve_rate_for_price(LOG_HALF, p, 200.0)
    split = [0.25 * total, 0.75 * total]
    bids, _ = ue_step(LOG_HALF, [p, p], [p * r for r in split], split, 200.0, 1.0)
    assert bids[0] == pytest.approx(p * split[0], rel=1e-6)
    assert bids[1] == pytest.approx(p * split[1], rel=1e-6)


def test_anchored_step_has_no_rate_ceiling():
    # the capacity the user reaches (10) only scales its step: at price 1e-9
    # its demand is 5.8e7, and its anchored steps climb there
    p = 1e-9
    demand = solve_rate_for_price(LOG_HALF, p, 1e9)
    bids, anchor = ue_step(LOG_HALF, [p], [9.0], [9.0], 10.0, 1.0)
    assert anchor[0] > 1e4
    assert bids[0] == p * anchor[0]
    for _ in range(20):
        bids, anchor = ue_step(LOG_HALF, [p], bids, anchor, 10.0, 1.0)
    # nu is resolved to ~1e-14 absolute, ~1e-5 relative at this price
    assert anchor[0] == pytest.approx(demand, rel=1e-4)


def test_single_carrier_bid_meets_the_anchored_kkt_equation():
    # one link: marginal(r) = p + rho (r - q), and the bid is p r
    p, q = 0.05, 2.0
    (w,), (r,) = ue_step(LOG_HALF, [p], [1.0], [q], 100.0, 1.0)
    rho = ANCHOR_GAIN * p / q
    assert r > q  # the demand at 0.05 (9.46) pulls the step up from its anchor
    assert LOG_HALF.marginal(r) == pytest.approx(p + rho * (r - q), rel=1e-9)
    assert w == p * r


def test_cheaper_carrier_buys_more_by_the_price_gap_over_rho():
    # equal anchors: on two buying links the rates differ by (p2 - p1)/rho
    q = 3.0
    rho = ANCHOR_GAIN * 0.05 / (2.0 * q)
    for prices in ([0.05, 0.051], [0.051, 0.05]):
        _, rates = ue_step(LOG_HALF, prices, [0.1, 0.1], [q, q], 100.0, 1.0)
        cheap, dear = (0, 1) if prices[0] < prices[1] else (1, 0)
        assert rates[cheap] > rates[dear] > 0.0, rates
        assert rates[cheap] - rates[dear] == pytest.approx(0.001 / rho, rel=1e-9)


def test_equal_prices_and_anchors_split_evenly():
    # the anchored step has no tie-break: twin links get the same bits
    for prices, anchor in (([0.05, 0.05], [2.0, 2.0]), ([0.3] * 3, [0.0] * 3)):
        bids, rates = ue_step(LOG_HALF, prices, [0.0] * len(prices), anchor, 100.0, 1.0)
        assert len(set(bids)) == 1 and bids[0] > 0.0, bids
        assert len(set(rates)) == 1, rates


def test_permuting_carriers_permutes_the_step():
    rng = random.Random(7)
    for _ in range(200):
        (utility,) = random_utilities(rng, 1)
        n = rng.choice((2, 3, 4))
        prices = [10.0 ** rng.uniform(-2.0, 0.5) for _ in range(n)]
        last = [rng.uniform(0.0, 5.0) for _ in range(n)]
        anchor = [rng.choice((0.0, rng.uniform(0.0, 40.0))) for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        bids, _ = ue_step(utility, prices, last, anchor, 100.0, 0.8)
        moved, _ = ue_step(utility, *([x[c] for c in order] for x in (prices, last, anchor)), 100.0, 0.8)
        scale = math.fsum(bids)
        for c, w in zip(order, moved):
            assert w == pytest.approx(bids[c], abs=1e-9 * scale), (utility, prices, last, anchor, order)


def test_anchored_total_demand_falls_as_prices_rise():
    # At a fixed anchor and rho, each link's rate max(0, q + (nu - p)/rho)
    # falls in its price and rises in nu = marginal(T), which falls in T; so
    # a total that rose with the prices would contradict itself.
    rng = random.Random(3)
    for _ in range(200):
        (utility,) = random_utilities(rng, 1)
        n = rng.choice((1, 2, 3))
        base = [10.0 ** rng.uniform(-2.0, 0.5) for _ in range(n)]
        raised = [p * rng.uniform(1.0, 3.0) for p in base]
        anchor = [rng.choice((0.0, rng.uniform(0.0, 40.0))) for _ in range(n)]
        rho = ANCHOR_GAIN * min(base) / max(math.fsum(anchor), 1.0)
        before = math.fsum(_anchored_demand(utility, base, anchor, rho))
        after = math.fsum(_anchored_demand(utility, raised, anchor, rho))
        assert after <= before * (1.0 + 1e-9), (utility, base, raised, anchor)


def test_from_a_zero_anchor_the_cheapest_carriers_buy():
    # with q = 0 a link buys iff its price is below nu: the buying links are
    # the cheapest ones, and a dearer link never buys more
    rng = random.Random(5)
    for _ in range(200):
        (utility,) = random_utilities(rng, 1)
        n = rng.choice((2, 3, 4))
        prices = [10.0 ** rng.uniform(-2.0, 0.5) for _ in range(n)]
        _, rates = ue_step(utility, prices, [0.0] * n, [0.0] * n, 100.0, 1.0)
        by_price = [rates[c] for c in sorted(range(n), key=prices.__getitem__)]
        assert by_price[0] > 0.0, (utility, prices, rates)
        assert all(a >= b for a, b in zip(by_price, by_price[1:])), (utility, prices, rates)


def test_total_demand_strictly_positive():
    # marginal(0+) = +inf exceeds any price, so every step buys something
    utility = SigmoidalUtility(a=5.0, b=10.0)
    for prices in ([1e6, 1e6], [0.5, 80.0]):
        for anchor in ([0.0, 0.0], [1.0, 0.0], [50.0, 50.0]):
            bids, rates = ue_step(utility, prices, [0.0, 0.0], anchor, 200.0, 1.0)
            assert sum(bids) > 0.0 and sum(rates) > 0.0, (prices, anchor)


def anchored_cases(rng):
    """Inputs of the user step: random draws, then the edges of its ranges."""
    for case in range(2400):
        n = (1, 2, 3, 5)[case % 4]
        (utility,) = random_utilities(rng, 1)
        prices = [10.0 ** rng.uniform(-3.0, 1.0) for _ in range(n)]
        style = case // 4 % 3
        if style == 0:
            anchor = [0.0] * n
        elif style == 1:
            anchor = [rng.choice((0.0, rng.uniform(0.0, 60.0))) for _ in range(n)]
        else:
            anchor = [rng.uniform(0.0, 60.0) for _ in range(n)]
        rho = 10.0 ** rng.uniform(-9.0, 6.0)
        # the ceiling the user step once had, drawn to keep the stream
        old_cap = 10.0 ** rng.uniform(-1.0, 1.5) if case % 5 == 0 else 100.0 * n
        yield utility, prices, anchor, rho, old_cap
    # steep sigmoids, tied prices, extreme anchor weights, negative nu_min
    utilities = (
        SigmoidalUtility(a=50.0, b=5.0),
        SigmoidalUtility(a=23.0, b=40.0),
        SigmoidalUtility(a=1.0, b=30.0),
        LogarithmicUtility(k=15.0, r_max=100.0),
    )
    for utility in utilities:
        for rho in (1e-12, 1e-3, 1e9):
            for prices, anchor in (
                ([0.3, 0.3, 0.3], [1.0, 2.0, 0.0]),
                ([0.04, 0.04], [20.0, 25.0]),
                ([2.0], [6.0]),
                ([0.5, 0.5, 0.5, 0.5, 0.5], [0.0] * 5),
            ):
                yield utility, prices, anchor, rho, 100.0 * len(prices)
    for _ in range(400):
        n = rng.choice((1, 2, 3))
        utility = SigmoidalUtility(a=rng.uniform(10.0, 50.0), b=rng.uniform(1.0, 50.0))
        price = 10.0 ** rng.uniform(-3.0, 1.5)
        prices = [price if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 1.5) for _ in range(n)]
        anchor = [rng.uniform(0.0, 80.0) for _ in range(n)]
        yield utility, prices, anchor, 10.0 ** rng.uniform(-12.0, 9.0), 100.0 * n


def test_anchored_demand_bitwise_matches_reference(monkeypatch):
    """The replayed bisection returns the closure form's rates bit for bit.

    The replay evaluates only the midpoints its search has not settled, so
    the marginal sees other totals than the reference's.  Every total it
    sees must still be summed exactly as the reference sums, left to right
    from 0 on any Python: checked for each total of several links, which all
    go through ``_total``.
    """
    real_total = subproblem._total
    sums = []

    def checked_total(links, rho, nu):
        t = real_total(links, rho, nu)
        want = _sum_from_zero(r for r in (q + (nu - p) / rho for q, p in links) if r > 0.0)
        assert float(t).hex() == float(want).hex(), (links, rho, nu)
        sums.append(float(t).hex())
        return t

    monkeypatch.setattr(subproblem, "_total", checked_total)
    rng = random.Random(20141)
    cases = above_old_cap = zero_anchor_cases = negative_nu_min = 0
    for utility, prices, anchor, rho, old_cap in anchored_cases(rng):
        cases += 1
        zero_anchor_cases += not any(anchor)
        negative_nu_min += min(p - rho * q for q, p in zip(anchor, prices)) < 0.0
        del sums[:]
        seen = RecordingUtility(utility)
        got = outcome(_anchored_demand, seen, prices, anchor, rho)
        want = outcome(anchored_demand_reference, utility, prices, anchor, rho)
        assert got == want, (utility, prices, anchor, rho)
        if len(prices) > 1:
            assert set(seen.args) <= set(sums), (utility, prices, anchor, rho)
        if isinstance(got, list) and sum(map(float.fromhex, got)) > old_cap:
            above_old_cap += 1
    assert cases == 2848
    assert zero_anchor_cases >= 500
    assert above_old_cap >= 300
    assert negative_nu_min >= 300


def test_anchored_demand_at_the_price_floor():
    """A carrier priced at PRICE_FLOOR: rho and the root are ~1e-308.

    A Newton probe there lies within half an ulp of the marginal, and the
    rates, with no ceiling, reach ~1e305.
    """
    rho = ANCHOR_GAIN * PRICE_FLOOR / 0.5
    cases = [
        ([0.5, PRICE_FLOOR], [0.5, 0.0], rho),
        ([PRICE_FLOOR, 0.5], [0.0, 0.5], rho),
        ([PRICE_FLOOR], [0.5], rho),
        ([PRICE_FLOOR, PRICE_FLOOR], [100.0, 0.0], ANCHOR_GAIN * PRICE_FLOOR / 100.0),
    ]
    utilities = (
        SigmoidalUtility(a=1.0, b=5.0),
        SigmoidalUtility(a=23.0, b=40.0),
        LogarithmicUtility(k=15.0, r_max=100.0),
    )
    for utility in utilities:
        for prices, anchor, rho in cases:
            got = outcome(_anchored_demand, utility, prices, anchor, rho)
            want = outcome(anchored_demand_reference, utility, prices, anchor, rho)
            assert got == want, (utility, prices, anchor)
            assert isinstance(got, list), got
            rates = list(map(float.fromhex, got))
            assert all(math.isfinite(r) and r >= 0.0 for r in rates), got


def test_step_bids_on_a_floor_priced_carrier_at_its_marginal():
    # Carrier 2 holds no bid, so it is priced at PRICE_FLOOR.  The step
    # scales rho by carrier 1's price, and bids on carrier 2 at the user's
    # marginal, so carrier 2 gets a price that answers its load.
    for utility in (
        SigmoidalUtility(a=1.0, b=5.0),
        SigmoidalUtility(a=23.0, b=40.0),
        LogarithmicUtility(k=15.0, r_max=100.0),
    ):
        bids, anchor = ue_step(utility, [0.5, PRICE_FLOOR], [0.25, 0.0], [0.5, 0.0], 200.0, 1.0)
        assert all(math.isfinite(x) and x >= 0.0 for x in bids + anchor), (bids, anchor)
        assert anchor[1] > 0.0
        assert bids[1] == pytest.approx(utility.marginal(sum(anchor)) * anchor[1], rel=1e-12)
        assert bids[0] == 0.5 * anchor[0]


def test_anchored_demand_search_stays_cheap():
    """The Newton search keeps the user step's marginal evaluations few.

    A search that degrades towards the full bisection keeps every result
    bit, so only its cost shows it: over the bitwise cases above it makes
    12.4 marginal evaluations a call, where the full bisection of
    anchored_demand_reference makes 54.3.
    """
    rng = random.Random(20141)
    calls = cases = 0
    for utility, prices, anchor, rho, _ in anchored_cases(rng):
        seen = RecordingUtility(utility)
        _anchored_demand(seen, prices, anchor, rho)
        calls += seen.calls
        cases += 1
    assert calls / cases <= 12.5
