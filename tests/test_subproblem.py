"""UE bidding step: reference bids, tie-breaks, damping, invariants."""

import math
import random

import numpy as np
import pytest

from generators import random_utilities
from helpers import (
    RecordingUtility,
    _sum_from_zero,
    anchored_demand_reference,
    outcome,
    staged_demand_reference,
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


def first_step(utility, prices, r_reach=100.0, damping=1.0):
    """Bids of a user's first step (no anchor yet) from zero last bids."""
    bids, _ = ue_step(utility, prices, [0.0] * len(prices), None, r_reach, damping)
    return bids


def test_single_carrier_bid_matches_demand():
    (w,) = first_step(LOG_HALF, [0.05])
    assert w == pytest.approx(0.473, abs=1e-3)
    # bid = price * demand at that price
    assert w == pytest.approx(0.05 * solve_rate_for_price(LOG_HALF, 0.05, 100.0), rel=1e-12)


def test_two_carriers_whole_demand_to_cheaper():
    bids = first_step(LOG_HALF, [0.05, 0.10])
    # demand at 0.10 (~5.54) is below demand at 0.05 (~9.46): the increment
    # for the dearer carrier clamps to zero
    assert bids[0] == pytest.approx(0.473, abs=1e-3)
    assert bids[1] == 0.0
    # the same routing when the cheaper carrier is listed second
    bids = first_step(LOG_HALF, [0.10, 0.05])
    assert bids[0] == 0.0
    assert bids[1] == pytest.approx(0.473, abs=1e-3)


def test_equal_prices_tie_break_to_lower_id():
    bids = first_step(LOG_HALF, [0.05, 0.05])
    assert bids[0] > 0.4
    assert bids[1] == 0.0


def test_damping_mixes_raw_with_last_bids():
    raw = 0.05 * solve_rate_for_price(LOG_HALF, 0.05, 100.0)
    # a first step (no anchor yet) bids the unanchored demand
    bids, anchor = ue_step(LOG_HALF, [0.05], [1.0], None, 100.0, 0.7)
    assert bids[0] == pytest.approx(0.7 * raw + 0.3 * 1.0, rel=1e-12)
    # the new anchor is the rate the damped bid buys
    assert anchor == [bids[0] / 0.05]
    for damping in (0.0, 1.5):
        with pytest.raises(ProtocolError, match="damping"):
            ue_step(LOG_HALF, [0.05], [1.0], None, 100.0, damping)


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


def test_demand_monotonicity_in_prices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        utility = (
            SigmoidalUtility(a=rng.uniform(0.5, 8.0), b=rng.uniform(5.0, 40.0))
            if rng.random() < 0.5
            else LogarithmicUtility(k=rng.uniform(0.1, 10.0), r_max=100.0)
        )
        base = [10.0 ** rng.uniform(-2, 0.5), 10.0 ** rng.uniform(-2, 0.5)]
        raised = [p * rng.uniform(1.0, 3.0) for p in base]

        def total_demand(prices):
            bids = first_step(utility, prices, r_reach=400.0)
            return sum(w / p for w, p in zip(bids, prices))

        assert total_demand(raised) <= total_demand(base) * (1.0 + 1e-9)


def test_positive_increments_form_cheapest_prefix():
    # a first step bids on exactly one carrier: the cheapest, lowest index on ties
    rng = np.random.default_rng(5)
    for _ in range(50):
        utility = LogarithmicUtility(k=rng.uniform(0.1, 10.0), r_max=100.0)
        prices = [10.0 ** rng.uniform(-2, 0.5) for _ in range(3)]
        if rng.random() < 0.5:
            prices[2] = prices[1] = min(prices)
        bids = first_step(utility, prices, r_reach=300.0)
        cheapest = prices.index(min(prices))
        assert [c for c, w in enumerate(bids) if w > 0.0] == [cheapest]
        assert all(w == 0.0 for c, w in enumerate(bids) if c != cheapest)


def first_step_cases(rng):
    """Prices of 1-4 carriers, tied exactly, a few ulps apart, or spread."""
    for case in range(10000):
        (utility,) = random_utilities(rng, 1)
        base = 10.0 ** rng.uniform(-3.0, 1.0)
        prices = []
        for _ in range(1 + case % 4):
            style = rng.randrange(3)
            if style == 0:
                prices.append(base)
            elif style == 1:
                p = base
                for _ in range(rng.randint(1, 4)):
                    p = math.nextafter(p, rng.choice((0.0, math.inf)))
                prices.append(p)
            else:
                prices.append(base * 10.0 ** rng.uniform(-1.0, 1.0))
        yield utility, prices, 10.0 ** rng.uniform(0.0, 2.5)


def test_first_step_bitwise_matches_staged_reference():
    """The whole demand at the cheapest price equals the staged split's rates.

    The staged form inverts the marginal at every price and clamps each
    dearer increment at zero; the scalar inversion's demand never grows
    with price, so those increments are all exactly 0.0.
    """
    for utility, prices, r_reach in first_step_cases(random.Random(11)):
        rates = staged_demand_reference(utility, prices, r_reach)
        bids = first_step(utility, prices, r_reach=r_reach)
        assert [w.hex() for w in bids] == [(p * r).hex() for p, r in zip(prices, rates)], (
            utility, prices, r_reach)


def test_total_demand_strictly_positive():
    for prices in ([1e6, 1e6], [0.5, 80.0]):
        bids = first_step(SigmoidalUtility(a=5.0, b=10.0), prices, r_reach=200.0)
        assert sum(bids) > 0.0


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
