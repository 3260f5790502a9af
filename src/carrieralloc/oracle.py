"""Centralized ground-truth solver, its certificate and the KKT diagnostic.

Solves max sum_i ln U_i(total_i) subject to per-carrier capacities and
non-negativity, independently of the bidding protocol, so the distributed
fixed point can be checked against a certified optimum.

The solver works in price space alone.  Every ln U_i is strictly concave with
a positive marginal, so at the optimum user i buys its demand T_i(pi) at the
price pi of the carriers it uses.  The per-user totals the carriers can serve
form a transversal polymatroid: for every set S of users, the sum of T_i over
S is at most the capacity of the carriers N(S) that S reaches.  A separable
concave function over a polymatroid is maximized by decomposition (Fujishige
1980; Groenevelt, EJOR 1991).  For a group of users and the carriers they
reach:

1. clear the common price at which the group's demand equals its capacity,
   by safeguarded Newton steps over the vectorized marginals of
   utility.marginals (see _clear_price);
2. route every user's demand at that price by max flow, source -> user
   (demand) -> reachable carrier -> sink (capacity).  User -> carrier edges
   have no capacity, so the augmenting paths are searched over carriers:
   flow moves from one carrier to another through a user that reaches both.
   A flow that routes all demand is Hall's condition: the group shares that
   price, and the flow, its rates, fills every carrier; so the source side
   of the maximal min cut (the users and carriers that cannot reach the
   sink in the residual graph) holds every user;
3. otherwise that cut holds some but not all users, overloaded at that price.
   They become a group of their own, priced higher, and the other users on
   the other carriers form a second group, priced lower.

Each split leaves two strictly smaller groups, so a solve makes at most 2M-1
price clearings and needs no starting point.  A carrier that no user reaches
gets price 0.  The result is certified as the protocol's stop test
certifies, in any unit of rate, on utility.dual_gap at most GAP_TOL alone
(+inf for a negative rate or a load over its capacity beyond rounding).
kkt_check's residuals are a diagnostic of any candidate, in its own unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .utility import GAP_TOL, Layout, RootFindingError, demands, dual_gap, marginals

__all__ = [
    "OracleError",
    "KKTReport",
    "OracleSolution",
    "project_carrier_block",
    "solve_central",
    "kkt_check",
    "duality_gap",
]


class OracleError(RuntimeError):
    """Raised when the centralized solver cannot produce a certified solution."""


_CLEARING_STEPS = 200
_BISECT_EVERY = 3
_LN_TINY = math.log(np.finfo(float).tiny)


def project_carrier_block(x: np.ndarray, R: float) -> np.ndarray:
    """Euclidean projection of a vector onto {x >= 0, sum(x) <= R}.

    Clips negatives; if the clipped sum still exceeds R, applies the standard
    simplex-projection threshold so the result sums to R exactly.
    """
    if not R > 0.0:
        raise OracleError(f"projection needs R > 0, got {R}")
    x = np.asarray(x, dtype=float)
    clipped = np.maximum(x, 0.0)
    if clipped.sum() <= R:
        return clipped
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - R
    j = np.arange(1, x.size + 1)
    rho = np.nonzero(u - css / j > 0.0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(x - tau, 0.0)


@dataclass(frozen=True)
class KKTReport:
    """First-order optimality residuals of a candidate allocation."""

    stationarity_active: float
    stationarity_inactive: float
    complementary_slackness: float
    capacity_violation: float
    negativity_violation: float
    tol: float
    passed: bool


@dataclass
class OracleSolution:
    rates: Dict[Tuple[int, int], float]
    totals: Dict[int, float]
    prices: Dict[int, float]
    objective: float
    duality_gap: float
    iterations: int
    converged: bool


def _clear_price(
    layout: Layout, users: Sequence[int], capacity: float, rates: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Common price p at which the users' total demand equals ``capacity``.

    At rates summing to capacity (``rates``, scaled) p lies between the
    smallest and largest marginal, so each kernel evaluation narrows a
    bracket on y = ln p.  Newton steps in x = ln r and y solve m_i(r_i) = p
    with sum r_i = capacity (each user's step capped at a factor e, a y out
    of the bracket replaced by its midpoint).  A bracket that has not halved
    in _BISECT_EVERY steps, or with every marginal underflowed (no negative
    slope), is halved by moving every user to its demand at the midpoint.
    y stays above the smallest normal double.  A final linearised step
    y + dy, r + (dr/dy) dy sums the totals to capacity.

    A user whose marginal is flat to machine precision (a steep sigmoidal
    one below its inflection) has a vertical demand, dr/dy = -inf, and pins
    the price: a Newton step puts y at its marginal.  At the final step a
    user is also vertical when one resolvable step of y (1e-15 max(1, |y|))
    moves its demand by 1e-12 of the capacity; the group is then priced at
    the first vertical user's own marginal, and the vertical users share, in
    proportion to their rates, what the others leave.  A demand inversion
    that fails raises OracleError naming the users.
    """
    params = tuple(v[users] for v in layout.params)
    r_cap = float(layout.caps.sum())
    r = np.maximum(rates, 1e-12 * capacity)
    r *= capacity / r.sum()
    y_lo, y_hi = _LN_TINY, math.inf
    widths = [math.inf] * _BISECT_EVERY
    for _ in range(_CLEARING_STEPS):
        m, dm = marginals(params, r)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lm = np.log(m)
            # dr/dy along each demand curve: -inf where the marginal is flat
            slope = np.where(m > 0.0, m / dm, 0.0)
            spread = lm.max() - lm.min()
        y_lo, y_hi = max(y_lo, lm.min()), max(min(y_hi, lm.max()), _LN_TINY)
        width = y_hi - y_lo
        widths.append(width)
        eps = 1e-15 * max(1.0, abs(y_hi))
        if spread <= 100.0 * eps:
            break
        if width <= eps or width > 0.5 * widths[-1 - _BISECT_EVERY] or not (slope < 0.0).any():
            y = 0.5 * (y_lo + y_hi) if width > eps else y_hi
            try:
                r, slope = demands(params, math.exp(y), r_cap, r)
            except RootFindingError as exc:
                raise OracleError(
                    f"price clearing of users {[layout.uids[j] for j in users]} on capacity "
                    f"{capacity!r} in the price bracket [{math.exp(y_lo)!r}, "
                    f"{math.exp(y_hi)!r}]: {exc}"
                ) from exc
            lm = np.full(r.shape, y)
            excess = r.sum() - capacity
            if width <= eps or abs(excess) <= 1e-12 * capacity:
                break
            y_lo, y_hi = (y, y_hi) if excess > 0.0 else (y_lo, y)
            r *= capacity / r.sum()
            continue
        ref, dev, dy = _price_step(r, lm, slope, capacity)
        if not y_lo - eps <= ref + dy <= y_hi + eps:
            dy = 0.5 * (y_lo + y_hi) - ref
        with np.errstate(invalid="ignore", over="ignore"):
            # a user whose marginal underflows holds too much at any price
            step = np.where(slope < 0.0, (dy - dev) * slope / r, -1.0)
        # nan: 0 * -inf, a vertical user already at the price
        r = r * np.exp(np.clip(np.nan_to_num(step, nan=0.0), -1.0, 1.0))
        r *= capacity / r.sum()
    else:
        raise OracleError(f"price clearing did not converge in {_CLEARING_STEPS} steps")
    vertical = slope * eps <= -1e-12 * capacity
    slope[vertical] = -np.inf
    ref, dev, dy = _price_step(r, lm, slope, capacity)
    steep = ~vertical
    r[steep] += slope[steep] * (dy - dev[steep])
    if not vertical.any():
        return math.exp(ref + dy), r
    r[vertical] *= (capacity - r[steep].sum()) / r[vertical].sum()
    v = [np.argmin(slope)]
    m, _ = marginals(tuple(p[v] for p in params), r[v])
    return float(m[0]), r


def _price_step(r: np.ndarray, lm: np.ndarray, slope: np.ndarray, capacity: float) -> tuple:
    """(ref, lm - ref, dy): r + slope * (ref + dy - lm) sums to capacity, with ref
    the flattest user's log-marginal, so that its tiny deviation stays exact.
    A vertical user (slope -inf) takes any rate at its own marginal: ref is
    then that marginal and dy is 0."""
    ref = lm[np.argmin(slope)]
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.where(slope < 0.0, lm - ref, 0.0)
        total = slope.sum()  # 0 when every marginal has underflowed: no step
        if not -np.inf < total < 0.0:
            return ref, dev, 0.0
        dy = (capacity - r.sum() + (slope * dev).sum()) / total
    return ref, dev, float(dy)


def _hall_split(
    demand: np.ndarray, caps: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max flow source -> user (demand) -> reachable carrier -> sink (capacity).

    ``mask[l, j]``: user j reaches carrier l.  Returns the flow, shaped like
    ``mask``, and masks of the users and carriers that cannot reach the sink
    in the final residual graph (the source side of the maximal min cut).
    Residuals up to 1e-12 of the total capacity count as zero.  A flow that
    routes a demand summing to the capacity fills every carrier, and the cut
    then holds every user.  Row 0 of ``held`` is each user's unrouted demand,
    as if on a carrier that every user reaches and that has no room; each
    augmentation is a breadth-first search from it to a carrier with room.
    """
    eps = 1e-12 * float(sum(caps))
    reach = np.vstack([np.ones(mask.shape[1], dtype=bool), mask])
    held = np.vstack([demand, np.zeros(mask.shape)])
    room = np.concatenate([[0.0], caps])
    while True:
        moves = reach @ (held > eps).T  # moves[b, a]: a user with flow on row a reaches row b
        parent = np.full(len(room), -1)
        parent[0], queue, end = 0, [0], 0
        for a in queue:
            ahead = np.flatnonzero(moves[:, a] & (parent < 0))
            parent[ahead] = a
            queue.extend(ahead)
            if (room[ahead] > eps).any():
                end = ahead[room[ahead] > eps][0]
                break
        if not end:
            break
        # each hop moves the same amount from row a to row b, over its users
        hops, b = [], end
        while b:
            hops.append((parent[b], b, reach[b] & (held[parent[b]] > eps)))
            b = parent[b]
        push = min(room[end], *(held[a, users].sum() for a, _, users in hops))
        room[end] -= push
        for a, b, users in hops:
            moved = _first(held[a, users], push)
            held[a, users] -= moved
            held[b, users] += moved

    # Reach the sink backwards: the carriers with room, then every carrier
    # whose flow can move onto one of them.
    to_sink, grown = None, room > eps
    while not np.array_equal(to_sink, grown):
        to_sink, grown = grown, grown | moves[grown].any(axis=0)
    return held[1:], ~mask[to_sink[1:]].any(axis=0), ~to_sink[1:]


def _first(amounts: np.ndarray, total: float) -> np.ndarray:
    """The first ``total`` of ``amounts``, taken in index order.

    Each share is ``total`` less the amounts before it, so it rounds on the
    scale of ``total``, not of the amounts: 1e-3 taken from 1e4 is 1e-3, and
    a small carrier's load stays within rounding of its capacity.
    """
    before = np.concatenate(([0.0], np.cumsum(amounts[:-1])))
    return np.minimum(amounts, np.maximum(total - before, 0.0))


def _decompose(layout: Layout) -> Tuple[np.ndarray, np.ndarray, int]:
    """Prices, rates and the number of price clearings of the optimum.

    A group is a mask of users and a mask of the carriers they may use; its
    last entry holds each user's rate to start its price clearing from.
    """
    mask = layout.mask
    n_carriers, n_users = mask.shape
    prices, rates = np.zeros(n_carriers), np.zeros(mask.shape)
    groups = [(np.ones(n_users, dtype=bool), np.ones(n_carriers, dtype=bool), np.ones(n_users))]
    clearings = 0
    while groups:
        users, carriers, start = groups.pop()
        carriers = carriers & mask[:, users].any(axis=1)
        caps, sub = layout.caps[carriers], np.ix_(carriers, users)
        pi, totals = _clear_price(layout, np.flatnonzero(users), float(caps.sum()), start)
        clearings += 1
        flow, cut_users, cut_carriers = _hall_split(totals, caps, mask[sub])
        if 0 < cut_users.sum() < cut_users.size:
            for side, side_carriers in ((cut_users, cut_carriers), (~cut_users, ~cut_carriers)):
                inside, reached = users.copy(), carriers.copy()
                inside[users], reached[carriers] = side, side_carriers
                groups.append((inside, reached, totals[side]))
            continue
        prices[carriers] = pi
        rates[sub] = flow
    return prices, rates, clearings


def solve_central(scenario) -> OracleSolution:
    """Certified optimum of the log-utility allocation problem.

    ``iterations`` counts price clearings.  Raises OracleError, naming the
    duality gap (+inf for rates that are not feasible up to rounding), its
    least rate and largest overload, when the gap is above GAP_TOL.
    """
    layout = scenario.layout
    prices, rates, clearings = _decompose(layout)
    gap = dual_gap(layout, rates, prices)
    if not gap <= GAP_TOL:
        raise OracleError(
            f"optimum of {scenario.name!r} fails its certificate: duality gap {gap:.3e} "
            f"(at most {GAP_TOL:g}), least rate {rates.min():.3e}, largest relative "
            f"overload {(rates.sum(axis=1) / layout.caps).max() - 1.0:.3e}"
        )
    return OracleSolution(
        **layout.allocation(rates, prices), duality_gap=gap, iterations=clearings, converged=True
    )


def kkt_check(candidate, scenario, tol: float) -> KKTReport:
    """First-order residuals of any allocation carrying rates and prices.

    ``candidate`` needs ``rates[(carrier_id, ue_id)]`` and
    ``prices[carrier_id]`` mappings (both the protocol and oracle results
    qualify).  Rates at or below ``tol`` are treated as zero for the
    stationarity split.  A user without a positive total makes the active
    stationarity residual infinite; rates on links a user does not reach
    count in its total and its carrier's load only.
    """
    layout = scenario.layout
    rates, prices = layout.arrays(candidate)
    totals = rates.sum(axis=0)
    alive = totals > 0.0
    m, _ = marginals(layout.params, np.where(alive, totals, 1.0))
    surplus = m - prices[:, None]  # marginal minus price on every link
    links = layout.mask & alive
    active = links & (rates > tol)
    slack = layout.caps - rates.sum(axis=1)
    stat_active = float(np.abs(surplus[active]).max(initial=0.0)) if alive.all() else math.inf
    residuals = dict(
        stationarity_active=stat_active,
        stationarity_inactive=float(surplus[links & ~active].max(initial=0.0)),
        complementary_slackness=float(np.abs(prices * slack).max()),
        capacity_violation=max(0.0, float((-slack / layout.caps).max())),
        negativity_violation=max(0.0, float(-rates.min())),
    )
    return KKTReport(**residuals, tol=tol, passed=all(r <= tol for r in residuals.values()))


def duality_gap(candidate, scenario) -> float:
    """utility.dual_gap of ``candidate`` (as in kkt_check) on ``scenario``."""
    layout = scenario.layout
    return dual_gap(layout, *layout.arrays(candidate))
