"""Normalized utility families for rate allocation.

Two families model user satisfaction as a function of the total rate a user
receives, both normalized so that U(0) = 0:

* sigmoidal:    U(r) = c * (1 / (1 + exp(-a*(r - b))) - d)
  with c = (1 + exp(a*b)) / exp(a*b) and d = 1 / (1 + exp(a*b)), so U -> 1
  as r -> infinity.  S-shaped, models inelastic/real-time traffic with an
  inflection at rate b.
* logarithmic:  U(r) = log(1 + k*r) / log(1 + k*r_max)
  so U(r_max) = 1.  Concave, models elastic/delay-tolerant traffic.

The solver works throughout with ln U and its derivative ("marginal"),
which is strictly positive and strictly decreasing, so demand at a given
price is well defined and unique.  Each family's formulas are written here
alone; the other modules read no family parameter.
Each ``Scenario`` builds its ``Layout`` once: the read-only arrays these
functions take, which the protocol, the oracle and --verify all read.

ln U has one expression, ``log_utilities``, free of cancellation; the
objectives, ``dual_gap`` and the verification budget call it once over all
users, and the ``log_utility`` methods (so ``evaluate``, exp(log_utility))
call it for one user.  ``marginals``, ``demands`` and ``dual_gap`` work on
many users at once, and ``log_utility_scales`` bounds the rounding of
ln U.  What stays scalar: the protocol's user step keeps the scalar
``marginal``, whose last bits its round counts depend on, and the methods
its search reads beside it: ``log_slope``, d ln m / d ln r, and
``rounding_margin``.  ``solve_rate_for_price`` is ``demands`` for one user,
for callers of the library; no solver here calls it.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "UtilityDomainError",
    "RootFindingError",
    "SigmoidalUtility",
    "LogarithmicUtility",
    "UtilityFunction",
    "evaluate",
    "log_utility",
    "marginal",
    "parameter_arrays",
    "log_utilities",
    "log_utility_scales",
    "marginals",
    "demands",
    "dual_gap",
    "Layout",
    "GAP_TOL",
    "solve_rate_for_price",
]

_LN_MIN_RATE = math.log(5e-324)  # the smallest positive rate; 1/r, so every marginal, is +inf
# Twice a bound on the scalar marginal's rounding error per unit of m + 2a
# (a = 0 for the logarithmic family), as tests/test_utility.py checks.
_MARGIN = 10.0 * 2.0**-52


class UtilityDomainError(ValueError):
    """Raised for invalid utility parameters or out-of-domain arguments."""


class RootFindingError(RuntimeError):
    """Raised when ``demands``, the Newton inverter of the marginal, fails to converge."""


class CandidateError(ValueError, KeyError):
    """Raised for a candidate's rate or price whose id the scenario lacks."""
    __str__ = ValueError.__str__  # KeyError's would quote the message


def log_utility(u: "UtilityFunction", r_total: float) -> float:
    """ln U(r_total), ``log_utilities`` for one user; -inf at r_total = 0 rather than raising."""
    if not (r_total >= 0.0):
        raise UtilityDomainError(f"rate must be >= 0, got {r_total}")
    return float(log_utilities(parameter_arrays([u]), np.array([r_total], dtype=float))[0])


def _check_parameter(value: float, what: str) -> None:
    """Refuse a parameter that is not a finite number > 0; true and false are not numbers."""
    if isinstance(value, bool) or not (value > 0.0 and math.isfinite(value)):
        raise UtilityDomainError(f"{what} must be a finite number > 0, got {value}")


@dataclass(frozen=True)
class SigmoidalUtility:
    """S-shaped normalized utility with steepness a and inflection rate b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _check_parameter(self.a, "sigmoidal steepness a")
        _check_parameter(self.b, "sigmoidal inflection b")

    log_utility = log_utility  # in the class namespace, where bench/tracer.py counts calls

    def marginal(self, r: float) -> float:
        if not (r > 0.0):
            raise UtilityDomainError(f"marginal requires r > 0, got {r}")
        a = self.a
        # d/dr ln U = a * (1 / (1 - e^{-a r}) - sigmoid(a (r - b))), with the
        # sigmoid in its overflow-free sign-split form.
        x = a * (r - self.b)
        if x >= 0.0:
            s = 1.0 / (1.0 + math.exp(-x))
        else:
            ex = math.exp(x)
            s = ex / (1.0 + ex)
        try:
            return a * (1.0 / (-math.expm1(-a * r)) - s)
        except ZeroDivisionError:  # a*r underflowed to 0: the r -> 0+ limit
            return math.inf

    def log_slope(self, r: float, m: float) -> float:
        """d ln m / d ln r at r from m = marginal(r) > 0 and finite:
        -a^2 r (g (g - 1) + s (1 - s)) / m, g = 1/(1 - e^-ar), s = g - m/a."""
        a = self.a
        g = -1.0 / math.expm1(-a * r)
        s = g - m / a
        return -a * a * r * (g * (g - 1.0) + s * (1.0 - s)) / m

    def rounding_margin(self, m: float) -> float:
        """_MARGIN (m + 2a): twice a bound on the rounding of a marginal m."""
        return _MARGIN * (m + 2.0 * self.a)


@dataclass(frozen=True)
class LogarithmicUtility:
    """Concave normalized utility with growth rate k and 100%-rate r_max."""

    k: float
    r_max: float

    def __post_init__(self) -> None:
        _check_parameter(self.k, "logarithmic growth k")
        _check_parameter(self.r_max, "logarithmic r_max")

    log_utility = log_utility  # in the class namespace, where bench/tracer.py counts calls

    def marginal(self, r: float) -> float:
        if not (r > 0.0):
            raise UtilityDomainError(f"marginal requires r > 0, got {r}")
        kr = self.k * r
        # d/dr ln U = k / ((1 + k r) ln(1 + k r)); the r_max normalization cancels.
        try:
            return self.k / ((1.0 + kr) * math.log1p(kr))
        except ZeroDivisionError:  # k*r underflowed to 0: the r -> 0+ limit
            return math.inf

    def log_slope(self, r: float, m: float) -> float:
        """d ln m / d ln r at r from m = marginal(r): -kr/(1 + kr) - r m."""
        kr = self.k * r
        return -kr / (1.0 + kr) - r * m

    def rounding_margin(self, m: float) -> float:
        """_MARGIN m: twice a bound on the rounding of a marginal m."""
        return _MARGIN * m


UtilityFunction = Union[SigmoidalUtility, LogarithmicUtility]


def evaluate(u: UtilityFunction, r_total: float) -> float:
    """Utility value U(r_total) = exp(ln U), in [0, 1] for sigmoidal inputs.

    A sigmoidal U rounds to exactly 1 once ln U underflows.  Logarithmic
    inputs may exceed r_max, in which case the value exceeds 1; protocol
    paths never produce such inputs.
    """
    return math.exp(u.log_utility(r_total))


def marginal(u: UtilityFunction, r_total: float) -> float:
    """d/dr ln U at r_total > 0: strictly positive, strictly decreasing."""
    return u.marginal(r_total)


def solve_rate_for_price(u: UtilityFunction, p: float, r_cap: float) -> float:
    """``demands`` for one user: the unique r in (0, r_cap] with marginal(r) = p,
    or r_cap where even marginal(r_cap) > p; strictly positive for every
    finite p > 0, as the marginal -> infinity when r -> 0+."""
    _check_parameter(p, "price")
    _check_parameter(r_cap, "r_cap")
    return float(demands(parameter_arrays([u]), p, r_cap)[0][0])


def parameter_arrays(utilities: Sequence[UtilityFunction]) -> Tuple[np.ndarray, ...]:
    """(sigmoidal, a, b, k, r_max): each user's family and parameters (1 where unused)."""
    sig = np.array([isinstance(u, SigmoidalUtility) for u in utilities], dtype=bool)
    names = ("a", "b", "k", "r_max")
    return (sig, *(np.array([getattr(u, name, 1.0) for u in utilities]) for name in names))


def log_utilities(params: Tuple[np.ndarray, ...], r: np.ndarray) -> np.ndarray:
    """ln U for every user of ``params`` at its rate r; -inf at r = 0.

    Sigmoidal: ln(-expm1(-a r)) - log1p(e^-|x|) + min(x, 0), x = a (r - b),
    which is ln[(1 - e^-ar) / (1 + e^-x)] = ln[c (sigmoid(x) - d)].  No term
    is positive, so none is larger than |ln U| and nothing cancels: U <= 1.
    Logarithmic: ln ln(1 + k r) - ln ln(1 + k r_max).
    """
    sig, a, b, k, r_max = params
    x = a * (r - b)
    with np.errstate(divide="ignore"):
        ln_sig = np.log(-np.expm1(-a * r)) - np.log1p(np.exp(-np.abs(x))) + np.minimum(x, 0.0)
        ln_log = np.log(np.log1p(k * r)) - np.log(np.log1p(k * r_max))
    return np.where(sig, ln_sig, ln_log)


def log_utility_scales(params: Tuple[np.ndarray, ...], r: np.ndarray) -> np.ndarray:
    """|ln U| + 2 (t + 1) for every user of ``params`` at its rate r, with t
    the size of ln U's largest term: a max(0, b - r) for a sigmoidal user,
    |ln ln(1 + k r_max)| for a logarithmic one.  ``log_utilities`` is within
    a few roundings of this scale.
    """
    sig, a, b, k, r_max = params
    terms = np.where(sig, a * np.maximum(0.0, b - r), np.abs(np.log(np.log1p(k * r_max))))
    return np.abs(log_utilities(params, r)) + 2.0 * (terms + 1.0)


def marginals(params: Tuple[np.ndarray, ...], r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """d/dr ln U and its derivative for every user of ``params`` at its rate r.

    Sigmoidal: a (E + S) and -a^2 (E (1 + E) + S (1 - S)), E = 1/expm1(a r),
    S = sigmoid(a (b - r)): no cancellation (the scalar form is 0 past
    b + 37/a), underflow to 0 only past b + 745/a.  Logarithmic:
    m = k/((1 + k r) ln(1 + k r)) and -m^2 (1 + ln(1 + k r)).  +inf at r = 0.
    """
    sig, a, b, k, _ = params
    with np.errstate(over="ignore", divide="ignore"):
        e = 1.0 / np.expm1(a * r)
        z = np.exp(-np.abs(a * (r - b)))  # S is 1/(1 + z) below b, z/(1 + z) above
        ln1p = np.log1p(k * r)
        m_log = k / ((1.0 + k * r) * ln1p)
        m = np.where(sig, a * (e + np.where(r < b, 1.0, z) / (1.0 + z)), m_log)
        dm = np.where(sig, -a * a * (e * (1 + e) + z / (1 + z) ** 2), -m_log * m_log * (1 + ln1p))
    return m, dm


def demands(
    params: Tuple[np.ndarray, ...], price, r_cap, start: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Every user's rate in (0, r_cap] where its marginal equals its price.

    ``price`` and ``r_cap`` are one value or one per user; at price 0 the rate
    is r_cap.  Newton on ln m(e^x) = ln p in x = ln r from ``start`` (default
    1/p: both marginals behave like 1/r near 0), clipped into the bracket
    [ln 5e-324, ln r_cap + 1e-12] that starts at the smallest positive rate
    and that every evaluation narrows; a step that leaves the bracket goes
    to its midpoint, unless it is a Newton step of zero on a falling marginal
    below the cap: that is the root, even on a bracket end.  Returns the
    rates and dr/d(ln p) = m/m' from the last evaluation.
    """
    with np.errstate(divide="ignore"):
        y = np.log(np.broadcast_to(np.asarray(price, dtype=float), params[0].shape))
    # the oracle's one cap keeps libm's log, whose last bit numpy's does not always match
    cap = np.log(r_cap) if np.ndim(r_cap) else math.log(r_cap)
    x_lo, x_hi = np.full(y.shape, _LN_MIN_RATE), np.full(y.shape, cap + 1e-12)  # cap is tried once
    x = np.clip(-y if start is None else np.log(start), _LN_MIN_RATE, cap)
    for _ in range(200):
        r = np.exp(x)
        m, dm = marginals(params, r)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lm = np.log(m)
            slope = m / dm
            new = np.minimum(x + (y - lm) * slope / r, cap)
        x_lo, x_hi = np.where(lm > y, x, x_lo), np.where(lm > y, x_hi, x)
        done = (new == x) & (slope < 0.0) & (x < cap)
        new = np.where((new > x_lo) & (new < x_hi) | done, new, 0.5 * (x_lo + x_hi))
        if np.all(np.abs(new - x) <= 1e-10) or np.all(x_hi - x_lo <= 1e-15):
            return np.minimum(np.exp(new), r_cap), np.where(new < cap, slope, 0.0)
        x = new
    raise RootFindingError("Newton inverter failed to converge")


# Duality-gap tolerance of every certificate: the protocol's stop test, the
# oracle's optimum and --verify.  In units of ln U, which is dimensionless,
# so one absolute value serves every unit of rate and capacity scale.
# ln U_i is strictly concave, so the optimal totals T* are unique, and for a
# feasible allocation
#     (mu / 2) * ||T - T*||^2  <=  P(T*) - P(T)  <=  gap,
# with mu the least curvature -(ln U_i)'' between T and T*: a gap of eps
# leaves every total within sqrt(2 eps / mu) of the optimum.  A
# sigmoidal(a, b) marginal is flattest around r = b/2, with mu ~ 2 a^2
# exp(-a b / 2); for the reference utilities' sigmoidal(1, 30) that is
# 6e-7, and eps = 1e-9 keeps totals within 0.06 of the optimum, under 1% of
# any total above 6.  eps also stays well above the rounding in the gap:
# each user's term is a difference of two ln U values (log_utilities) whose
# terms are of size up to a * max(0, b - T), rounded to ~1e-16 times that,
# so 10^3 users held far below a steep inflection (a * (b - T) = 500) add up
# to ~5e-11.  The oracle's optima meet it with room: |gap| <= 4.9e-14 on the
# 29 reference points and under every change of units s = 1e-9 .. 1e9,
# <= 1.0e-12 on the 201 random scenarios of tests/test_oracle.py, and
# <= 1.6e-10 on 900 wide-range ones with a * b up to 5e4
# (tests/helpers.wide_range_scenario, seeds 1-3).
GAP_TOL = 1e-9


def dual_gap(layout: "Layout", rates, prices, tol=None) -> float:
    """D(p) - sum_i ln U_i(T_i) of ``rates`` (carriers x users, T_i a column's
    sum) at carrier prices p >= 0 on ``layout``'s carriers and users.

        D(p) = sum_i max_{0 < T <= C_i} (ln U_i(T) - pi_i T) + sum_l p_l R_l,

    pi_i the cheapest price and C_i the capacity user i reaches, bounds the
    optimum at any p >= 0, so a feasible allocation has 0 <= P(T*) - P(T) <=
    gap.  It is summed from non-negative parts: per user, the surplus T_i
    misses at pi_i and its pay above pi_i; per reached carrier, p_l times its
    unsold capacity.  One ``demands`` call, from T_i and capped at C_i (the
    layout's ``reach``), finds every best T (C_i at pi_i = 0).  +inf where the
    bound needs a feasible allocation: a user holds no rate, a rate is negative
    or off the mask, or a load exceeds its capacity by over (M + 2) 2^-52 of it
    (M users: the rounding of M rates w/p whose bids sum to p R) or a sum
    overflows.  Every sum over users or carriers is math.fsum, over the nonzero
    rates only, so their order changes no bit.

    With ``tol``, a gap whose pay and unsold parts alone exceed tol plus a
    bound on the missed surplus's rounding is certainly above tol: their sum
    is returned then, and no demand is solved.  That bound: a user's missed
    surplus is ln U at T_i and at its best T, each within a few roundings of
    its ``log_utility_scales`` s, less pi_i times rates up to C_i; ln U - pi_i T
    is larger at the best T, so s there is below 5 s(T_i) + 3 pi_i C_i.
    """
    params, mask, caps, reach = layout.params, layout.mask, layout.caps, layout.reach
    with np.errstate(over="ignore"):  # a total past the largest float overloads a carrier
        totals = rates.sum(axis=0)
    rows, cols = np.nonzero(rates)
    if not ((totals > 0.0).all() and (rates >= 0.0).all() and mask[rows, cols].all()):
        return math.inf
    try:
        loads = np.array([math.fsum(row[row != 0.0].tolist()) for row in rates])
    except OverflowError:  # a load past the largest float
        return math.inf
    if (loads - caps > (totals.size + 2) * 2.0**-52 * caps).any():
        return math.inf
    pi = np.where(mask, prices[:, None], np.inf).min(axis=0)
    paid = math.fsum(((prices[rows] - pi[cols]) * rates[rows, cols]).tolist())
    unsold = math.fsum(np.where(mask.any(axis=1), prices * (caps - loads), 0.0).tolist())
    if tol is not None:
        scale = math.fsum((log_utility_scales(params, totals) + pi * reach).tolist())
        if paid + unsold > tol + 16.0 * (totals.size + 8) * 2.0**-53 * scale:
            return paid + unsold
    r = np.stack([demands(params, pi, reach, totals)[0], totals])
    ln_u = log_utilities(params, r)
    missed = ln_u[0] - ln_u[1] - pi * (r[0] - r[1])
    return math.fsum([*missed.tolist(), paid, unsold])


class Layout:
    """A scenario as read-only arrays, built once by its ``Scenario``: ``cids``
    and ``uids`` (carriers and users, with ``ues``, in ascending id order;
    ``row`` and ``column`` map ids to indices), the capacities ``caps``, the
    reach mask ``mask[l, i]`` (user i reaches carrier l), ``reach``, each user's
    reached capacity (one math.fsum, for the gap and the user step), and
    ``params``, the users' ``parameter_arrays``.  ``arrays`` and ``allocation``
    convert a candidate's id-keyed dicts to carriers x users rates and prices, and back."""

    def __init__(self, scenario):
        carriers = sorted(scenario.carriers, key=lambda c: c.id)
        self.ues = sorted(scenario.ues, key=lambda u: u.id)
        self.cids = [c.id for c in carriers]
        self.uids = [u.id for u in self.ues]
        self.row = {cid: k for k, cid in enumerate(self.cids)}
        self.column = {uid: j for j, uid in enumerate(self.uids)}
        self.caps = np.array([c.capacity for c in carriers], dtype=float)
        self.mask = np.zeros((len(self.cids), len(self.uids)), dtype=bool)
        self.mask[[self.row[cid] for ue in self.ues for cid in ue.carriers],
                  [j for j, ue in enumerate(self.ues) for _ in ue.carriers]] = True
        reached = np.where(self.mask, self.caps[:, None], 0.0).T.tolist()
        self.reach = np.array([math.fsum(column) for column in reached])
        self.params = parameter_arrays([u.utility for u in self.ues])
        for array in (self.caps, self.mask, self.reach, *self.params):
            array.flags.writeable = False

    def arrays(self, candidate) -> Tuple[np.ndarray, np.ndarray]:
        """``candidate.rates[(carrier id, user id)]`` as a carriers x users
        array (0 where it holds no rate), and ``candidate.prices[carrier id]``
        as a vector; a CandidateError names an unknown link or unpriced carrier."""
        rates = np.zeros(self.mask.shape)
        for (cid, uid), r in candidate.rates.items():
            if cid not in self.row or uid not in self.column:
                raise CandidateError(f"rate on link {(cid, uid)}: no such carrier or user")
            rates[self.row[cid], self.column[uid]] = r
        for cid in self.cids:
            if cid not in candidate.prices:
                raise CandidateError(f"no price for carrier {cid}")
        return rates, np.array([candidate.prices[cid] for cid in self.cids], dtype=float)

    def allocation(self, rates: np.ndarray, prices: np.ndarray) -> dict:
        """The ``rates`` (carriers x users) and ``prices`` of a result: rates
        by link in carrier-major order, each user's total (its column summed
        in carrier order), prices by carrier, and the objective sum_i ln U_i (fsum)."""
        totals = rates.sum(axis=0)
        return dict(
            rates={(self.cids[k], self.uids[j]): float(rates[k, j])
                   for k, j in zip(*np.nonzero(self.mask))},
            totals=dict(zip(self.uids, totals.tolist())),
            prices=dict(zip(self.cids, prices.tolist())),
            objective=math.fsum(log_utilities(self.params, totals).tolist()),
        )
