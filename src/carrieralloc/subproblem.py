"""Per-user bidding decision: map announced carrier prices to money bids.

Each round a user receives the current shadow prices of its reachable
carriers, computes the rate it wants at those prices, and answers with one
money bid w = p * r per carrier.  The raw decision routes demand to carriers
in ascending price order: the total demand at the cheapest price is computed
by inverting the marginal utility, and each successively dearer carrier only
receives the (clamped, non-negative) increment beyond what cheaper carriers
already supply.  Since demand is non-increasing in price, a user's first
step sends its whole demand to the single cheapest carrier (ties broken by
carrier id).

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

Each user can also price its own distance from the optimum: gap_term is its
non-negative share of the duality gap at the current prices, which the round
engine sums into its stop test.

Both functions are pure and take one user's per-carrier values as lists,
all in the same order: the user's reachable carriers by ascending id.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .utility import UtilityFunction, log_utility, solve_rate_for_price

__all__ = [
    "ProtocolError",
    "ue_step",
    "gap_term",
]

DEFAULT_DAMPING = 0.7
DEFAULT_ANCHOR_GAIN = 0.3


class ProtocolError(ValueError):
    """Raised on malformed bids or engine parameters."""


def _staged_demand(
    utility: UtilityFunction, prices: Sequence[float], r_cap: float
) -> List[float]:
    """Cheapest-first staged rates: stage m claims max(0, D_m - claimed)."""
    order = sorted(range(len(prices)), key=lambda c: (prices[c], c))
    rates = [0.0] * len(prices)
    claimed = 0.0
    for c in order:
        demand = solve_rate_for_price(utility, prices[c], r_cap)
        increment = demand - claimed
        if increment < 0.0:
            increment = 0.0
        rates[c] = increment
        claimed += increment
    return rates


def _total(links: List[Tuple[float, float]], rho: float, nu: float) -> float:
    return sum(r for r in (q + (nu - p) / rho for q, p in links) if r > 0.0)


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
    at r_cap like the unanchored inversion.  The bisection evaluates T(nu)
    inline: it runs about 50 times per user per round.
    """
    marginal = utility.marginal
    links = list(zip(anchor, prices))
    nu_min = min(p - rho * q for q, p in links)  # total(nu_min) == 0
    lo = nu_min
    hi = max(prices) + rho * max(anchor) + 1.0
    t = _total(links, rho, hi)
    # marginal(0+) = +inf exceeds any finite nu, so t <= 0 counts as excess
    while t < r_cap and (t <= 0.0 or marginal(t) - hi > 0.0):
        hi *= 2.0
        t = _total(links, rho, hi)
    if t >= r_cap and marginal(t) - hi > 0.0:
        # demand hits the ceiling: pick nu with total == r_cap instead
        nu = _nu_at_ceiling(links, rho, r_cap, lo, hi)
        return [max(0.0, q + (nu - p) / rho) for q, p in links]
    single = len(links) == 1
    q1, p1 = links[0]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if single:
            t = q1 + (mid - p1) / rho
        else:
            t = 0.0
            for q, p in links:
                r = q + (mid - p) / rho
                if r > 0.0:
                    t += r
        if not t > 0.0 or marginal(t) - mid > 0.0:
            lo = mid
        else:
            hi = mid
        # hi - lo <= 1e-14 * max(1.0, abs(hi))
        if hi - lo <= 1e-14 * (hi if hi > 1.0 else -hi if hi < -1.0 else 1.0):
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
    anchor_gain: float,
) -> Tuple[List[float], List[float]]:
    """One bidding round of one user: its new bids and anchor rates.

    ``anchor`` is the rate vector the user held after its previous step, or
    None before its first step (which uses the unanchored rule).  ``r_cap``
    caps the user's total rate.  ``damping`` is theta in
    new = theta*raw + (1-theta)*last.  ``anchor_gain`` scales the proximal
    anchor (rho = anchor_gain * p_min / T_prev); 0 disables anchoring
    entirely, giving the pure cheapest-first update every round.  The new
    anchor is the rate each new bid buys at the current price.
    """
    if not (0.0 < damping <= 1.0):
        raise ProtocolError(f"damping must be in (0, 1], got {damping}")
    if anchor_gain < 0.0:
        raise ProtocolError(f"anchor_gain must be >= 0, got {anchor_gain}")

    if anchor is None or anchor_gain == 0.0:
        rates = _staged_demand(utility, prices, r_cap)
    else:
        t_prev = sum(anchor)
        rho = anchor_gain * min(prices) / max(t_prev, 1e-12 * r_cap)
        rates = _anchored_demand(utility, prices, anchor, rho, r_cap)

    bids = [
        damping * (p * r) + (1.0 - damping) * w
        for p, r, w in zip(prices, rates, last_bids)
    ]
    return bids, [w / p for w, p in zip(bids, prices)]


def gap_term(
    utility: UtilityFunction,
    prices: Sequence[float],
    rates: Sequence[float],
    r_cap: float,
) -> float:
    """This user's share of the duality gap D(p) - sum_i ln U_i(T_i).

    With pi the cheapest reachable price and T = sum_l r_l the user's total,

        gap_i = [max_t (ln U(t) - pi t) - (ln U(T) - pi T)] + sum_l (p_l - pi) r_l,

    both parts non-negative: the first is how far T is from the demand at
    pi, the second what the user pays above pi on dearer carriers.  Summed
    over users, plus p_l R_l - sum_i w_li per carrier, it is exactly the
    gap between the dual function and the primal objective.  It is +inf
    while the user holds no rate.
    """
    pi = min(prices)
    total = sum(rates)
    if not (total > 0.0):
        return math.inf
    best = solve_rate_for_price(utility, pi, r_cap)
    shortfall = (log_utility(utility, best) - pi * best) - (
        log_utility(utility, total) - pi * total
    )
    overpay = sum((p - pi) * r for p, r in zip(prices, rates))
    return shortfall + overpay
