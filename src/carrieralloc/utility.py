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
price is well defined and invertible by bisection.

``marginals`` and ``demands`` evaluate and invert many users' marginals at
once; the protocol keeps the scalar ``marginal``.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "marginals",
    "demands",
    "solve_rate_for_price",
]

NEG_INF = float("-inf")
_LN_MIN_RATE = math.log(5e-324)  # the smallest positive rate; 1/r, so every marginal, is +inf


class UtilityDomainError(ValueError):
    """Raised for invalid utility parameters or out-of-domain arguments."""


class RootFindingError(RuntimeError):
    """Raised when the bisection inverter fails to meet its tolerance."""


def _softplus(x: float) -> float:
    """Numerically stable ln(1 + exp(x))."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _log_expm1(y: float) -> float:
    """Numerically stable ln(exp(y) - 1) for y > 0."""
    if y > 33.0:
        # expm1(y) would overflow long before y ~ 710; ln(e^y - 1) = y + ln(1 - e^-y)
        return y + math.log1p(-math.exp(-y))
    return math.log(math.expm1(y))


@dataclass(frozen=True)
class SigmoidalUtility:
    """S-shaped normalized utility with steepness a and inflection rate b.

    The normalization constants c and d are derived so that U(0) = 0 and
    U(inf) = 1; they are stored but all evaluation goes through
    overflow-safe expressions (a*b = 50 already overwhelms exp(a*b) paths).
    """

    a: float
    b: float
    c: float = field(init=False)
    d: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise UtilityDomainError(f"sigmoidal steepness a must be > 0, got {self.a}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise UtilityDomainError(f"sigmoidal inflection b must be > 0, got {self.b}")
        # c = (1 + e^{ab}) / e^{ab} = 1 + e^{-ab}, d = 1 / (1 + e^{ab}) =
        # e^{-ab} / (1 + e^{-ab}); these stay finite for arbitrarily large a*b.
        ex = math.exp(-self.a * self.b)
        object.__setattr__(self, "c", 1.0 + ex)
        object.__setattr__(self, "d", ex / (1.0 + ex))

    def log_utility(self, r: float) -> float:
        _check_rate(r)
        if r == 0.0:
            return NEG_INF
        a, b = self.a, self.b
        # ln U = -a*b + ln(e^{a r} - 1) - ln(1 + e^{a (r - b)})
        return -a * b + _log_expm1(a * r) - _softplus(a * (r - b))

    def evaluate(self, r: float) -> float:
        _check_rate(r)
        if r == 0.0:
            return 0.0
        return math.exp(self.log_utility(r))

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


@dataclass(frozen=True)
class LogarithmicUtility:
    """Concave normalized utility with growth rate k and 100%-rate r_max."""

    k: float
    r_max: float

    def __post_init__(self) -> None:
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise UtilityDomainError(f"logarithmic growth k must be > 0, got {self.k}")
        if not (self.r_max > 0.0 and math.isfinite(self.r_max)):
            raise UtilityDomainError(f"logarithmic r_max must be > 0, got {self.r_max}")

    def evaluate(self, r: float) -> float:
        _check_rate(r)
        return math.log1p(self.k * r) / math.log1p(self.k * self.r_max)

    def log_utility(self, r: float) -> float:
        _check_rate(r)
        if r == 0.0:
            return NEG_INF
        return math.log(math.log1p(self.k * r)) - math.log(math.log1p(self.k * self.r_max))

    def marginal(self, r: float) -> float:
        if not (r > 0.0):
            raise UtilityDomainError(f"marginal requires r > 0, got {r}")
        kr = self.k * r
        # d/dr ln U = k / ((1 + k r) ln(1 + k r)); the r_max normalization cancels.
        try:
            return self.k / ((1.0 + kr) * math.log1p(kr))
        except ZeroDivisionError:  # k*r underflowed to 0: the r -> 0+ limit
            return math.inf


UtilityFunction = Union[SigmoidalUtility, LogarithmicUtility]


def _check_rate(r: float) -> None:
    if not (r >= 0.0):
        raise UtilityDomainError(f"rate must be >= 0, got {r}")


def evaluate(u: UtilityFunction, r_total: float) -> float:
    """Utility value U(r_total), in [0, 1) for sigmoidal inputs.

    Logarithmic inputs may exceed r_max, in which case the value exceeds 1;
    protocol paths never produce such inputs.
    """
    return u.evaluate(r_total)


def log_utility(u: UtilityFunction, r_total: float) -> float:
    """ln U(r_total); returns -inf at r_total = 0 rather than raising."""
    return u.log_utility(r_total)


def marginal(u: UtilityFunction, r_total: float) -> float:
    """d/dr ln U at r_total > 0: strictly positive, strictly decreasing."""
    return u.marginal(r_total)


def solve_rate_for_price(u: UtilityFunction, p: float, r_cap: float) -> float:
    """Invert the marginal: the unique r in (0, r_cap] with marginal(r) = p.

    Returns r_cap when even marginal(r_cap) > p (demand hits the search
    ceiling).  Because marginal -> infinity as r -> 0+, the result is
    strictly positive for every finite p > 0.

    Bisection on the strictly decreasing marginal over [r_lo, r_cap], with
    r_lo found by geometric shrink from r_cap; at most 200 iterations,
    absolute rate tolerance 1e-12 * r_cap.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise UtilityDomainError(f"price must be > 0 and finite, got {p}")
    if not (r_cap > 0.0 and math.isfinite(r_cap)):
        raise UtilityDomainError(f"r_cap must be > 0 and finite, got {r_cap}")

    marginal = u.marginal
    if marginal(r_cap) > p:
        return r_cap

    # Shrink until the marginal exceeds p; this brackets the root.
    hi = r_cap
    lo = 0.5 * r_cap
    while marginal(lo) <= p:
        hi = lo
        lo *= 0.5
        if lo < 5e-324:
            raise RootFindingError(
                f"bracketing collapsed inverting marginal at price {p}"
            )

    rate_tol = 1e-12 * r_cap
    price_tol = 1e-10 * p
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = marginal(mid)
        if m > p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rate_tol and abs(m - p) <= price_tol:
            return mid
        if hi == lo or (hi - lo) < abs(mid) * 1e-17:
            return mid
    # Interval tolerance met but residual not: the marginal is too steep for
    # the requested residual at double precision.
    if hi - lo <= rate_tol:
        return mid
    raise RootFindingError(
        f"bisection failed to meet tolerance inverting marginal at price {p}"
    )


def parameter_arrays(utilities: Sequence[UtilityFunction]) -> Tuple[np.ndarray, ...]:
    """(sigmoidal, a, b, k): each user's family and parameters (1 where unused)."""
    sig = np.array([isinstance(u, SigmoidalUtility) for u in utilities], dtype=bool)
    return (sig, *(np.array([getattr(u, name, 1.0) for u in utilities]) for name in "abk"))


def marginals(params: Tuple[np.ndarray, ...], r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """d/dr ln U and its derivative for every user of ``params`` at its rate r.

    Sigmoidal: a (E + S) and -a^2 (E (1 + E) + S (1 - S)), E = 1/expm1(a r),
    S = sigmoid(a (b - r)): no cancellation (the scalar form is 0 past
    b + 37/a), underflow to 0 only past b + 745/a.  Logarithmic:
    m = k/((1 + k r) ln(1 + k r)) and -m^2 (1 + ln(1 + k r)).  +inf at r = 0.
    """
    sig, a, b, k = params
    with np.errstate(over="ignore", divide="ignore"):
        e = 1.0 / np.expm1(a * r)
        z = np.exp(-np.abs(a * (r - b)))  # S is 1/(1 + z) below b, z/(1 + z) above
        ln1p = np.log1p(k * r)
        m_log = k / ((1.0 + k * r) * ln1p)
        m = np.where(sig, a * (e + np.where(r < b, 1.0, z) / (1.0 + z)), m_log)
        dm = np.where(sig, -a * a * (e * (1 + e) + z / (1 + z) ** 2), -m_log * m_log * (1 + ln1p))
    return m, dm


def demands(
    params: Tuple[np.ndarray, ...], price, r_cap: float, start: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Every user's rate in (0, r_cap] where its marginal equals its price.

    Newton on ln m(e^x) = ln p in x = ln r from ``start`` (default 1/p: both
    marginals behave like 1/r near 0), clipped into the bracket
    [ln 5e-324, ln r_cap + 1e-12] that starts at the smallest positive rate
    and that every evaluation narrows; a step that leaves the bracket goes
    to its midpoint.  Returns the rates and dr/d(ln p) = m/m' from the last
    evaluation.
    """
    y = np.log(np.broadcast_to(np.asarray(price, dtype=float), params[0].shape))
    cap = math.log(r_cap)
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
        done = (new == x) & (np.abs(lm - y) <= 1e-12)
        new = np.where((new > x_lo) & (new < x_hi) | done, new, 0.5 * (x_lo + x_hi))
        if np.all(np.abs(new - x) <= 1e-10) or np.all(x_hi - x_lo <= 1e-15):
            return np.minimum(np.exp(new), r_cap), np.where(new < cap, slope, 0.0)
        x = new
    raise RootFindingError("Newton inverter failed to converge")
