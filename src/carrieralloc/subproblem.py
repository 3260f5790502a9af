"""Per-user bidding decision: map announced carrier prices to money bids.

Each round a user receives the current shadow prices of its reachable
carriers, computes the rate it wants at those prices, and answers with one
money bid w = p * r per carrier.  Its demand answers the prices alone: the
carriers' capacities reach it only through them.  A user's first step sends
its whole demand at the cheapest price, found by inverting the marginal
utility, to the cheapest carrier (ties broken by carrier id).  Demand does
not grow with price, so no dearer carrier could add to it.

That all-or-nothing routing is a fixed-point map with two failure modes when
iterated: it flip-flops between carriers whose prices are nearly equal, and
it jumps across the near-flat stretches of a sigmoidal marginal where demand
is numerically set-valued.  After its first step a user therefore anchors
its decision to the rates it last held: it solves

    maximize  ln U(sum_l r_l) - sum_l p_l r_l - (rho/2) * sum_l (r_l - q_l)^2

over r >= 0, where q is the previous rate vector and rho scales with the
current price level.  The anchor term vanishes at any stationary point
(r = q implies marginal(sum r) = p_l on carriers with r_l > 0), so the fixed
points of the iteration are exactly the unanchored ones; only the path to
them is damped.  Bids are additionally smoothed as theta*raw + (1-theta)*last.
The round engine's stop test prices the resulting allocation with
utility.dual_gap, which writes out the dual function.

A carrier priced at PRICE_FLOOR holds no bid, and its price says nothing
about its load.  A user that reaches one scales rho by the prices that
carry bids and bids on it at its own marginal, which gives it a price.

ue_step is pure and takes one user's per-carrier values as lists,
all in the same order: the user's reachable carriers by ascending id.
It reads no utility family's parameters: the marginal, its log-slope and
its rounding margin are the utility's methods (utility.py).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import reduce
from operator import add
from typing import List, Optional, Sequence, Tuple

from .utility import UtilityFunction, solve_rate_for_price

__all__ = [
    "ProtocolError",
    "ue_step",
]

# Division guard, the smallest positive normal double: keeps every rate
# w / p finite while a carrier holds no positive bid, and binds on no other
# price short of a subnormal sum(w) / R.
PRICE_FLOOR = sys.float_info.min
# Scale of the proximal anchor weight rho, relative to p_min / T_prev.
ANCHOR_GAIN = 0.3


class ProtocolError(ValueError):
    """Raised on malformed bids or engine parameters."""


def _left_sum(values) -> float:
    """The values added left to right from 0.0, as the builtin sum() does up to
    Python 3.11 (3.12 compensates it), so the protocol's bits do not depend on
    the Python version."""
    return reduce(add, values, 0.0)


def _total(links: List[Tuple[float, float]], rho: float, nu: float) -> float:
    t = 0.0  # left to right, as _left_sum adds
    for q, p in links:
        r = q + (nu - p) / rho
        if r > 0.0:
            t += r
    return t


def _rates(links: List[Tuple[float, float]], rho: float, nu: float) -> List[float]:
    # max(0, q + (nu - p)/rho) per link
    return [r if (r := q + (nu - p) / rho) > 0.0 else 0.0 for q, p in links]


def _anchored_demand(
    utility: UtilityFunction,
    prices: Sequence[float],
    anchor: Sequence[float],
    rho: float,
) -> List[float]:
    """Rates maximizing ln U(T) - sum p r - (rho/2)||r - q||^2 over r >= 0.

    KKT gives r_l(nu) = max(0, q_l + (nu - p_l)/rho) with nu = marginal(T);
    T(nu) is nondecreasing and the marginal is strictly decreasing, so the
    scalar root is unique and bracketed by bisection, whose upper end
    doubles until the excess there is not positive.  A Newton search first
    finds probes around the root whose test outcome is certain; the
    bisection then evaluates only the midpoints between them, with the same
    result bits.

    Every probe at nu computes T(nu) (one link: q + (nu - p)/rho; more:
    _total), then the excess m - nu with m = marginal(T), and the utility's
    rounding_margin(m) past which the excess's sign is certain; a T <= 0 has
    excess +inf (marginal(0+) = +inf exceeds any finite nu).
    """
    marginal, inf = utility.marginal, math.inf
    log_slope, rounding = utility.log_slope, utility.rounding_margin
    q1, p1 = anchor[0], prices[0]
    single = len(prices) == 1
    links = [(q1, p1)] if single else list(zip(anchor, prices))
    # T(nu) has a knot at each p - rho q, where its link starts to buy
    knots = [p1 - rho * q1] if single else sorted([p - rho * q for q, p in links])
    lo = knots[0]  # T(lo) = 0
    hi = (p1 + rho * q1 if single else max(prices) + rho * max(anchor)) + 1.0

    # Newton steps in u = ln T from the nu at which T(nu) is the anchor total.
    # T is piecewise linear in nu, so nu = x + tn expm1(u) with tn = T rho / n
    # over the n links that buy at x (the knots below x); the utility's
    # log_slope is d ln m / d ln T.
    known_lo, known_hi, x = -inf, inf, p1
    if not single:
        s, t0 = 0.0, rho * _left_sum(anchor)
        for n, knot in enumerate(knots, 1):
            s += knot
            x = (t0 + s) / n
            if n == len(knots) or x <= knots[n]:
                break
    # d: how far off the root a probe is certain (0 until known), no less
    # than floor; last: the previous Newton step, 0 after any other step
    floor = 1.25e-15 * (x if x > 1.0 else -x if x < -1.0 else 1.0)
    d, last = 0.0, 0.0
    for _ in range(12):
        t = q1 + (x - p1) / rho if single else _total(links, rho, x)
        if not t > 0.0:
            known_lo = x
        else:
            m = marginal(t)
            e, margin = m - x, rounding(m)
            if -margin <= e <= margin:
                d = d or max(2.0 * margin, floor)  # no slope seen yet: de/dnu <= -1
                break
            if e > 0.0:
                known_lo = x
            else:
                known_hi = x
            if m > 0.0:
                slope = log_slope(t, m)
                tn = t * rho if single else t * rho / (bisect_left(knots, x) or 1)
                d = 2.0 * margin * tn / (tn - m * slope)  # the excess is certain this far off
                d = d if d > floor else floor
                if x > 0.0:
                    du = (math.log(x) - math.log(m)) / (slope - tn / x)
                    new = x + tn * math.expm1(du if -3.0 < du < 3.0 else math.copysign(3.0, du))
                    step = new - x if new > x else x - new
                    # Newton's error is about c step^2, c estimated from the last two steps
                    if step <= d or step * step * step <= 0.25 * d * last * last:
                        x = new
                        break
                else:  # Newton in nu: de/dnu = m slope / tn - 1
                    new, step = x - e * tn / (m * slope - tn), 0.0
            else:  # a marginal flat at 0: the excess -x vanishes at 0
                new, step = 0.0, 0.0
            if known_lo < new < known_hi:
                x, last = new, step
                continue
        # else bisect what is known (with hi for a missing upper end)
        x = 0.5 * (max(known_lo, lo) + (known_hi if known_hi < inf else hi))
        last = 0.0
    # Straddle the estimate: a certain probe on each side not yet within 4 d.
    d = d or floor
    for y in (x - d, x + d):
        while known_lo < y < known_hi and (x - known_lo if y < x else known_hi - x) > 4.0 * d:
            t = q1 + (y - p1) / rho if single else _total(links, rho, y)
            if not t > 0.0:
                known_lo = y
            else:
                m = marginal(t)
                e, margin = m - y, rounding(m)
                if e > margin:
                    known_lo = y
                elif e < -margin:
                    known_hi = y
            y = x + 4.0 * (y - x)
    if not known_hi <= hi:  # else the excess at hi is certainly not positive
        t = _total(links, rho, hi)
        # marginal(0+) = +inf exceeds any finite nu, so t <= 0 counts as excess
        while t <= 0.0 or marginal(t) - hi > 0.0:
            hi *= 2.0
            t = _total(links, rho, hi)
    # Replay the bisection (test: excess(mid) > 0).  T(nu) is nondecreasing
    # in floating point, term by term and sum by sum; the computed marginal is
    # within E = rounding_margin(m)/2 of the exact one, and m - E and m + E
    # decrease in T as m does.  So the excess is positive at every nu below a
    # probe whose excess exceeds its margin, and not positive above one below
    # minus its margin: a midpoint outside (known_lo, known_hi) goes the way
    # its evaluation would, and lo and hi follow the full bisection exactly.
    cap = -lo if -lo > 1.0 else 1.0
    cap = 1e-14 * (hi if hi > cap else cap)  # 1e-14 max(1, -lo, hi): no tolerance below is larger
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= known_lo:
            lo = mid
        elif not mid < known_hi:
            hi = mid
        else:
            t = q1 + (mid - p1) / rho if single else _total(links, rho, mid)
            if not t > 0.0 or marginal(t) - mid > 0.0:
                lo = mid
            else:
                hi = mid
        # hi - lo <= 1e-14 * max(1.0, abs(hi))
        if hi - lo <= cap and hi - lo <= 1e-14 * (hi if hi > 1.0 else -hi if hi < -1.0 else 1.0):
            break
    nu = 0.5 * (lo + hi)
    if single:  # _rates, for one link
        r = q1 + (nu - p1) / rho
        return [r if r > 0.0 else 0.0]
    return _rates(links, rho, nu)


def ue_step(
    utility: UtilityFunction,
    prices: Sequence[float],
    last_bids: Sequence[float],
    anchor: Optional[Sequence[float]],
    r_reach: float,
    damping: float,
) -> Tuple[List[float], List[float]]:
    """One bidding round of one user: its new bids and anchor rates.

    ``anchor`` is the rate vector the user held after its previous step, or
    None before its first step (which uses the unanchored rule).  ``r_reach``,
    the capacity the user reaches, is no ceiling: it starts the first step's
    bracket, doubled until the marginal there is at most the price, and
    scales T_prev's floor 1e-12 * r_reach.  ``damping`` is theta in
    new = theta*raw + (1-theta)*last.  The proximal weight is
    rho = ANCHOR_GAIN * p_min / T_prev.  The new anchor is the rate each new
    bid buys at the price it was bid at (module docstring).
    """
    if not (0.0 < damping <= 1.0):
        raise ProtocolError(f"damping must be in (0, 1], got {damping}")

    if anchor is None:
        rates = [0.0] * len(prices)
        cheapest = min(range(len(prices)), key=prices.__getitem__)  # lowest index on ties
        p, hi = prices[cheapest], r_reach
        while utility.marginal(hi) > p:
            hi *= 2.0
        rates[cheapest] = solve_rate_for_price(utility, p, hi)
    else:
        t_prev, t_min = _left_sum(anchor), 1e-12 * r_reach
        p_min = min(prices)
        floored = p_min <= PRICE_FLOOR
        if floored:  # rho from the prices that carry bids
            p_min = min([p for p in prices if p > PRICE_FLOOR] or prices)
        rho = ANCHOR_GAIN * p_min / (t_min if t_min > t_prev else t_prev)
        rates = _anchored_demand(utility, prices, anchor, rho)
        if floored and (t := _left_sum(rates)) > 0.0:  # bid at the marginal instead
            nu = utility.marginal(t)
            prices = [nu if p <= PRICE_FLOOR < nu else p for p in prices]

    bids = [
        damping * (p * r) + (1.0 - damping) * w
        for p, r, w in zip(prices, rates, last_bids)
    ]
    return bids, [w / p for w, p in zip(bids, prices)]

