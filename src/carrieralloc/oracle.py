"""Centralized ground-truth solver and KKT certification.

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
   (demand) -> reachable carrier -> sink (capacity).  A flow that routes all
   demand is Hall's condition: the group shares that price, and the flow is
   its rates;
3. otherwise the source side of the maximal min cut (the users and carriers
   that cannot reach the sink in the residual graph) is overloaded at that
   price.  It becomes a group of its own, priced higher, and the other users
   on the other carriers form a second group, priced lower.

Each split leaves two strictly smaller groups, so a solve makes at most 2M-1
price clearings and needs no starting point.  A
carrier that no user reaches gets price 0.  The result is returned only when
kkt_check certifies it at the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .utility import UtilityFunction, demands, log_utility, marginals, parameter_arrays

__all__ = [
    "OracleError",
    "KKTReport",
    "OracleSolution",
    "project_carrier_block",
    "solve_central",
    "kkt_check",
    "dual_objective",
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


_RESIDUALS = (
    "stationarity_active",
    "stationarity_inactive",
    "complementary_slackness",
    "capacity_violation",
    "negativity_violation",
)


@dataclass
class OracleSolution:
    rates: Dict[Tuple[int, int], float]
    totals: Dict[int, float]
    prices: Dict[int, float]
    objective: float
    kkt: Optional[KKTReport]
    iterations: int
    converged: bool


class _Problem:
    """Scenario unpacked into arrays for the vectorized solver."""

    def __init__(self, scenario):
        self.carriers = sorted(scenario.carriers, key=lambda c: c.id)
        self.ues = sorted(scenario.ues, key=lambda u: u.id)
        self.cids = [c.id for c in self.carriers]
        self.caps = np.array([c.capacity for c in self.carriers], dtype=float)
        self.uids = [u.id for u in self.ues]
        self.utilities: List[UtilityFunction] = [u.utility for u in self.ues]
        self.params = parameter_arrays(self.utilities)
        self.K = len(self.carriers)
        self.M = len(self.ues)
        self.r_cap = float(self.caps.sum())
        cindex = {cid: k for k, cid in enumerate(self.cids)}
        self.reach = [sorted(cindex[cid] for cid in ue.carriers) for ue in self.ues]
        self.mask = np.zeros((self.K, self.M), dtype=bool)
        for j, reach in enumerate(self.reach):
            self.mask[reach, j] = True


def _clear_price(
    prob: _Problem, users: Sequence[int], capacity: float, rates: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Common price p at which the users' total demand equals ``capacity``.

    At rates summing to capacity (``rates``, scaled) p lies between the
    smallest and largest marginal, so each kernel evaluation narrows a
    bracket on y = ln p.  Newton steps in x = ln r and y solve m_i(r_i) = p
    with sum r_i = capacity (each user's step capped at a factor e, a y out
    of the bracket replaced by its midpoint).  A bracket that has not halved
    in _BISECT_EVERY steps is halved by moving every user to its demand at
    the midpoint.  y stays above the smallest normal double.  A final
    linearised step y + dy, r + (dr/dy) dy sums the totals to capacity.
    """
    params = tuple(v[users] for v in prob.params)
    r = np.maximum(rates, 1e-12 * capacity)
    r *= capacity / r.sum()
    y_lo, y_hi = _LN_TINY, math.inf
    widths = [math.inf] * _BISECT_EVERY
    for _ in range(_CLEARING_STEPS):
        m, dm = marginals(params, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            lm = np.log(m)
            slope = np.where(dm < 0.0, m / dm, 0.0)  # dr/dy along each demand curve
            spread = lm.max() - lm.min()
        y_lo, y_hi = max(y_lo, lm.min()), max(min(y_hi, lm.max()), _LN_TINY)
        width = y_hi - y_lo
        widths.append(width)
        eps = 1e-15 * max(1.0, abs(y_hi))
        if spread <= 100.0 * eps:
            break
        if width <= eps or width > 0.5 * widths[-1 - _BISECT_EVERY]:
            y = 0.5 * (y_lo + y_hi) if width > eps else y_hi
            r, slope = demands(params, math.exp(y), prob.r_cap, r)
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
        with np.errstate(invalid="ignore"):
            # a user whose marginal underflows holds too much at any price
            r = r * np.exp(np.clip(np.where(slope < 0.0, (dy - dev) * slope / r, -1.0), -1.0, 1.0))
        r *= capacity / r.sum()
    else:
        raise OracleError(f"price clearing did not converge in {_CLEARING_STEPS} steps")
    ref, dev, dy = _price_step(r, lm, slope, capacity)
    return math.exp(ref + dy), r + slope * (dy - dev)


def _price_step(r: np.ndarray, lm: np.ndarray, slope: np.ndarray, capacity: float) -> tuple:
    """(ref, lm - ref, dy): r + slope * (ref + dy - lm) sums to capacity, with ref
    the flattest user's log-marginal, so that its tiny deviation stays exact."""
    ref = lm[np.argmin(slope)]
    with np.errstate(invalid="ignore"):
        dev = np.where(slope < 0.0, lm - ref, 0.0)
    return ref, dev, float((capacity - r.sum() + (slope * dev).sum()) / slope.sum())


def _hall_split(
    demand: Sequence[float], caps: Sequence[float], reach: List[List[int]]
) -> Tuple[List[Dict[int, float]], List[int], List[int]]:
    """Max flow source -> user (demand) -> reachable carrier -> sink (capacity).

    Users and carriers are numbered locally; ``reach[j]`` lists the carriers
    of user j.  Returns the flow on every user-carrier edge, and the users
    and carriers that cannot reach the sink in the final residual graph (the
    source side of the maximal min cut).  Residuals up to 1e-12 of the total
    capacity count as zero, so the cut holds no user exactly when the flow
    routes every demand to that precision.  Shortest augmenting paths
    (Edmonds-Karp) over at most M + K + 2 nodes.
    """
    eps = 1e-12 * float(sum(caps))
    users_of: List[List[int]] = [[] for _ in caps]
    for j, carriers in enumerate(reach):
        for l in carriers:
            users_of[l].append(j)
    flow = [dict.fromkeys(carriers, 0.0) for carriers in reach]
    need = list(demand)  # residual of source -> user
    room = list(caps)  # residual of carrier -> sink

    while True:
        # from_user[l]: the user a carrier was reached from; from_carrier[j]:
        # the carrier a user was reached from (None: from the source)
        from_carrier: Dict[int, Optional[int]] = {
            j: None for j in range(len(reach)) if need[j] > eps
        }
        from_user: Dict[int, int] = {}
        queue = list(from_carrier)
        end = None
        for j in queue:
            for l in reach[j]:
                if l in from_user:
                    continue
                from_user[l] = j
                if room[l] > eps:
                    end = l
                    break
                for i in users_of[l]:
                    if i not in from_carrier and flow[i][l] > eps:
                        from_carrier[i] = l
                        queue.append(i)
            if end is not None:
                break
        if end is None:
            break
        forward, backward = [], []
        l = end
        while l is not None:
            j = from_user[l]
            forward.append((j, l))
            l = from_carrier[j]
            if l is not None:
                backward.append((j, l))
        first = forward[-1][0]
        push = min([need[first], room[end]] + [flow[j][l] for j, l in backward])
        for j, l in forward:
            flow[j][l] += push
        for j, l in backward:
            flow[j][l] -= push
        need[first] -= push
        room[end] -= push

    # Reach the sink backwards: a carrier with room, every user of such a
    # carrier, and every carrier whose flow to such a user can be pushed back.
    to_sink = {l for l, r in enumerate(room) if r > eps}
    queue = list(to_sink)
    reaching_users = set()
    for l in queue:
        for j in users_of[l]:
            if j in reaching_users:
                continue
            reaching_users.add(j)
            for l2, x in flow[j].items():
                if x > eps and l2 not in to_sink:
                    to_sink.add(l2)
                    queue.append(l2)
    cut_users = [j for j in range(len(reach)) if j not in reaching_users]
    cut_carriers = [l for l in range(len(caps)) if l not in to_sink]
    return flow, cut_users, cut_carriers


def _decompose(prob: _Problem) -> Tuple[np.ndarray, np.ndarray, int]:
    """Prices, rates and the number of price clearings of the optimum.

    A group is a list of users and the set of carriers they may use; its
    last entry holds each user's rate to start its price clearing from.
    """
    prices = np.zeros(prob.K)
    rates = np.zeros((prob.K, prob.M))
    groups = [(list(range(prob.M)), set(range(prob.K)), np.ones(prob.M))]
    clearings = 0
    while groups:
        users, carriers, start = groups.pop()
        reach = [[l for l in prob.reach[j] if l in carriers] for j in users]
        reached = sorted({l for r in reach for l in r})
        pi, totals = _clear_price(prob, users, float(prob.caps[reached].sum()), start)
        clearings += 1
        local = {l: i for i, l in enumerate(reached)}
        flow, cut_users, cut_carriers = _hall_split(
            totals, prob.caps[reached], [[local[l] for l in r] for r in reach]
        )
        if 0 < len(cut_users) < len(users):
            inside = np.isin(np.arange(len(users)), cut_users)
            inside_carriers = {reached[l] for l in cut_carriers}
            others = set(reached) - inside_carriers
            for side, side_carriers in ((inside, inside_carriers), (~inside, others)):
                groups.append((np.array(users)[side].tolist(), side_carriers, totals[side]))
            continue
        prices[reached] = pi
        for i, j in enumerate(users):
            for l, x in flow[i].items():
                rates[reached[l], j] = x
    return prices, rates, clearings


def solve_central(scenario, tol: float = 1e-9) -> OracleSolution:
    """Certified optimum of the log-utility allocation problem.

    ``tol`` is the KKT tolerance the returned solution is certified against;
    ``iterations`` counts price clearings.  Raises OracleError, naming the
    worst KKT residual, when the result does not certify.
    """
    if not (tol > 0.0):
        raise OracleError(f"tol must be > 0, got {tol}")
    prob = _Problem(scenario)
    prices, rates, clearings = _decompose(prob)
    totals = rates.sum(axis=0)
    sol = OracleSolution(
        rates={
            (prob.cids[k], prob.uids[j]): float(rates[k, j])
            for k in range(prob.K)
            for j in range(prob.M)
            if prob.mask[k, j]
        },
        totals={prob.uids[j]: float(totals[j]) for j in range(prob.M)},
        prices={prob.cids[k]: float(prices[k]) for k in range(prob.K)},
        objective=sum(log_utility(u, float(t)) for u, t in zip(prob.utilities, totals)),
        kkt=None,  # filled below
        iterations=clearings,
        converged=True,
    )
    sol.kkt = kkt_check(sol, scenario, tol)
    if not sol.kkt.passed:
        worst = max(_RESIDUALS, key=lambda name: getattr(sol.kkt, name))
        raise OracleError(
            f"optimum of {scenario.name!r} fails its KKT "
            f"certificate at tol {tol:g}: {worst} = {getattr(sol.kkt, worst):.3e}"
        )
    return sol


def kkt_check(candidate, scenario, tol: float, activity_threshold: Optional[float] = None) -> KKTReport:
    """First-order certificate for any allocation carrying rates and prices.

    ``candidate`` needs ``rates[(carrier_id, ue_id)]`` and
    ``prices[carrier_id]`` mappings (both the protocol and oracle results
    qualify).  Rates at or below ``activity_threshold`` (default: ``tol``)
    are treated as zero for the stationarity split.
    """
    if activity_threshold is None:
        activity_threshold = tol
    utilities = {ue.id: ue.utility for ue in scenario.ues}
    reach = {ue.id: tuple(ue.carriers) for ue in scenario.ues}
    caps = {c.id: c.capacity for c in scenario.carriers}

    totals: Dict[int, float] = {uid: 0.0 for uid in utilities}
    loads: Dict[int, float] = {cid: 0.0 for cid in caps}
    neg = 0.0
    for (cid, uid), r in candidate.rates.items():
        totals[uid] += r
        loads[cid] += r
        neg = max(neg, -r)

    stat_active = 0.0
    stat_inactive = 0.0
    for uid, utility in utilities.items():
        total = totals[uid]
        if total <= 0.0:
            stat_active = float("inf")
            continue
        m = utility.marginal(total)
        for cid in reach[uid]:
            price = candidate.prices[cid]
            r = candidate.rates.get((cid, uid), 0.0)
            if r > activity_threshold:
                stat_active = max(stat_active, abs(m - price))
            else:
                stat_inactive = max(stat_inactive, m - price)
    stat_inactive = max(stat_inactive, 0.0)

    cap_violation = 0.0
    comp_slack = 0.0
    for cid, cap in caps.items():
        slack = cap - loads[cid]
        cap_violation = max(cap_violation, -slack / cap)
        comp_slack = max(comp_slack, abs(candidate.prices[cid] * slack))

    passed = (
        stat_active <= tol
        and stat_inactive <= tol
        and comp_slack <= tol
        and cap_violation <= tol
        and neg <= tol
    )
    return KKTReport(
        stationarity_active=stat_active,
        stationarity_inactive=stat_inactive,
        complementary_slackness=comp_slack,
        capacity_violation=cap_violation,
        negativity_violation=neg,
        tol=tol,
        passed=passed,
    )


def dual_objective(scenario, prices: Dict[int, float]) -> float:
    """D(p) = sum_i max_T (ln U_i(T) - pi_i T) + sum_l p_l R_l.

    pi_i is the cheapest reachable price for user i; the inner maximum is
    attained at the demand T_i(pi_i), making the duality gap of a candidate
    directly computable.
    """
    prob = _Problem(scenario)
    pi = np.array([max(min(prices[prob.cids[k]] for k in reach), 1e-300) for reach in prob.reach])
    best, _ = demands(prob.params, pi, prob.r_cap)
    total = sum(u.log_utility(float(t)) for u, t in zip(prob.utilities, best)) - float(pi @ best)
    for c in prob.carriers:
        total += prices[c.id] * c.capacity
    return total
