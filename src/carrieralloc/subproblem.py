"""Per-user bidding decision: map announced carrier prices to money bids.

Each round a user receives the current shadow prices of its reachable
carriers, computes the rate it wants at those prices, and answers with one
money bid w = p * r per carrier.  A user's first step sends its whole
demand at the cheapest price, found by inverting the marginal utility, to
the cheapest carrier (ties broken by carrier id).  Demand does not grow
with price, so no dearer carrier could add to it.

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

ue_step is pure and takes one user's per-carrier values as lists,
all in the same order: the user's reachable carriers by ascending id.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .utility import UtilityFunction, solve_rate_for_price

__all__ = [
    "ProtocolError",
    "ue_step",
]

# Scale of the proximal anchor weight rho, relative to p_min / T_prev.
ANCHOR_GAIN = 0.3
# Twice a bound on the scalar marginal's rounding error per unit of m + 2a
# (a = 0 for the logarithmic family), as tests/test_utility.py checks.
_MARGIN = 10.0 * 2.0**-52


class ProtocolError(ValueError):
    """Raised on malformed bids or engine parameters."""


def _total(links: List[Tuple[float, float]], rho: float, nu: float) -> float:
    t = 0.0  # left to right, as the builtin sum() does up to Python 3.11
    for q, p in links:
        r = q + (nu - p) / rho
        if r > 0.0:
            t += r
    return t


def _nu_at_ceiling(
    links: List[Tuple[float, float]], rho: float, r_cap: float, lo: float, hi: float
) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        halved = (mid, hi) if _total(links, rho, mid) < r_cap else (lo, mid)
        if halved == (lo, hi):
            break  # a fixed point: no later halving moves either end
        lo, hi = halved
    return 0.5 * (lo + hi)


def _anchored_demand(
    utility: UtilityFunction,
    prices: Sequence[float],
    anchor: Sequence[float],
    rho: float,
    r_cap: float,
) -> List[float]:
    """Rates maximizing ln U(T) - sum p r - (rho/2)||r - q||^2 over r >= 0.

    KKT gives r_l(nu) = max(0, q_l + (nu - p_l)/rho) with nu = marginal(T);
    T(nu) is nondecreasing and the marginal is strictly decreasing, so the
    scalar root is unique and bracketed by bisection.  The total is capped
    at r_cap like the unanchored inversion.  A secant search first finds
    probes around the root whose test outcome is certain; the bisection then
    evaluates only the midpoints between them, with the same result bits.
    """
    marginal = utility.marginal
    links = list(zip(anchor, prices))
    single, (q1, p1) = len(links) == 1, links[0]
    nu_min = p1 - rho * q1 if single else min(p - rho * q for q, p in links)  # total 0
    lo = nu_min
    hi = (p1 + rho * q1 if single else max(prices) + rho * max(anchor)) + 1.0
    a2, inf = 2.0 * getattr(utility, "a", 0.0), math.inf

    def probe(nu: float) -> Tuple[float, float, float, float]:
        """The bisection's excess at nu, the margin past which it is certain, T, m."""
        t = q1 + (nu - p1) / rho if single else _total(links, rho, nu)
        if not t > 0.0:
            return inf, 0.0, t, inf
        m = marginal(t)
        return m - nu, _MARGIN * (m + a2), t, m

    # Search from the nu at which T(nu) is the anchor total: one Newton step
    # in ln T taking d ln m / d ln T = -1 - T (a - m)+, then secants.
    known_lo, known_hi, x = -inf, inf, p1
    if not single:
        knots, s, t0 = sorted(p - rho * q for q, p in links), 0.0, rho * sum(anchor)
        for n, knot in enumerate(knots, 1):
            s += knot
            x = (t0 + s) / n
            if n == len(knots) or x <= knots[n]:
                break
    d, step, px, pe, floor = 0.0, 0.0, 0.0, inf, 1.25e-15 * max(1.0, abs(x))
    for _ in range(12):
        e, margin, t, m = probe(x)
        if -margin <= e <= margin:
            d = max(2.0 * margin, floor)
            break
        known_lo, known_hi = (x, known_hi) if e > 0.0 else (known_lo, x)
        new = inf
        if pe < inf and e < inf and e != pe:
            slope = (e - pe) / (x - px)
            new = x - e / slope
            d = 2.0 * margin / (-slope if slope < -1.0 else 1.0)  # certain this far off
        elif 0.0 < m < inf and x > 0.0:
            tn = t * rho / (1 if single else sum(q + (x - p) / rho > 0.0 for q, p in links))
            slope = -1.0 - (t * (0.5 * a2 - m) if 0.5 * a2 > m else 0.0)  # d ln m / d ln T
            du = (math.log(x) - math.log(m)) / (slope - tn / x)
            new = x + tn * math.expm1(du if du < 700.0 else 700.0)
        d = d if d > floor else floor
        if (new - x) * (new - x) <= 8.0 * d * step:  # the error the next secant leaves
            x = new
            break
        if not known_lo < new < known_hi:
            new = 0.5 * (max(known_lo, lo) + min(known_hi, hi))
        px, pe, step, x = x, e, new - x if new > x else x - new, new
    # Straddle the estimate: a certain probe on each side not yet within 4 d.
    for y in (x - d, x + d):
        while known_lo < y < known_hi and abs((known_lo if y < x else known_hi) - x) > 4.0 * d:
            e, margin, _, _ = probe(y)
            if not -margin <= e <= margin:
                known_lo, known_hi = (y, known_hi) if e > 0.0 else (known_lo, y)
            y = x + 4.0 * (y - x)
    if not known_hi <= hi:  # else the excess at hi is certainly not positive
        t = _total(links, rho, hi)
        # marginal(0+) = +inf exceeds any finite nu, so t <= 0 counts as excess
        while t < r_cap and (t <= 0.0 or marginal(t) - hi > 0.0):
            hi *= 2.0
            t = _total(links, rho, hi)
        if t >= r_cap and marginal(t) - hi > 0.0:
            # demand hits the ceiling: pick nu with total == r_cap instead
            nu = _nu_at_ceiling(links, rho, r_cap, lo, hi)
            return [max(0.0, q + (nu - p) / rho) for q, p in links]
    # Replay the bisection (test: excess(mid) > 0).  T(nu) is nondecreasing
    # in floating point, term by term and sum by sum; the computed marginal is
    # within E = _MARGIN/2 (m + 2a) of the exact one, and m - E and m + E
    # decrease in T as m does.  So the excess is positive at every nu below a
    # probe whose excess exceeds its margin, and not positive above one below
    # minus its margin: a midpoint outside (known_lo, known_hi) goes the way
    # its evaluation would, and lo and hi follow the full bisection exactly.
    cap = 1e-14 * max(1.0, -lo, hi)  # no tolerance below is larger
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= known_lo or mid < known_hi and probe(mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
        # hi - lo <= 1e-14 * max(1.0, abs(hi))
        if hi - lo <= cap and hi - lo <= 1e-14 * (hi if hi > 1.0 else -hi if hi < -1.0 else 1.0):
            break
    nu = 0.5 * (lo + hi)
    if _total(links, rho, nu) > r_cap:
        nu = _nu_at_ceiling(links, rho, r_cap, nu_min, nu)
    return [max(0.0, q + (nu - p) / rho) for q, p in links]


def ue_step(
    utility: UtilityFunction,
    prices: Sequence[float],
    last_bids: Sequence[float],
    anchor: Optional[Sequence[float]],
    r_cap: float,
    damping: float,
) -> Tuple[List[float], List[float]]:
    """One bidding round of one user: its new bids and anchor rates.

    ``anchor`` is the rate vector the user held after its previous step, or
    None before its first step (which uses the unanchored rule).  ``r_cap``
    caps the user's total rate.  ``damping`` is theta in
    new = theta*raw + (1-theta)*last.  The proximal weight is
    rho = ANCHOR_GAIN * p_min / T_prev.  The new anchor is the rate each new
    bid buys at the current price.
    """
    if not (0.0 < damping <= 1.0):
        raise ProtocolError(f"damping must be in (0, 1], got {damping}")

    if anchor is None:
        rates = [0.0] * len(prices)
        cheapest = min(range(len(prices)), key=prices.__getitem__)  # lowest index on ties
        rates[cheapest] = solve_rate_for_price(utility, prices[cheapest], r_cap)
    else:
        t_prev = sum(anchor)
        rho = ANCHOR_GAIN * min(prices) / max(t_prev, 1e-12 * r_cap)
        rates = _anchored_demand(utility, prices, anchor, rho, r_cap)

    bids = [
        damping * (p * r) + (1.0 - damping) * w
        for p, r, w in zip(prices, rates, last_bids)
    ]
    return bids, [w / p for w, p in zip(bids, prices)]

