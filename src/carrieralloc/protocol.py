"""Round-based engine coupling user bidding with carrier pricing.

Rounds are synchronous: every carrier turns the bids it currently holds into
a shadow price p_l = sum_i w_li / R_l, then every user answers the fresh
prices with new bids.  Final rates are r_li = w_li / p_l, which by
construction exhausts the capacity of each carrier holding a positive bid.
PRICE_FLOOR is only a division guard, for a carrier whose bids are all zero.

The round state is two flat lists over the (carrier, user) links, the bids
w_li and the users' anchor rates q_li, ordered user-major with each user's
carriers by ascending id: a user reads and writes one contiguous slice, and
a carrier reads the links listed for it.  A run is three parts: _Setup, the
links and the users, read from the scenario's own utility.Layout; the pure
round, _prices then _round, which maps a state to the next one and changes
nothing else; and _drive, the one loop over rounds, which owns the stop
test and the result (both over the layout's arrays) and the mixer.  run
starts _drive from its first bids, each user anchored at the rates those
bids buy; the fixed-point tests start it from the oracle's optimum.

Stop rule.  Bid stability alone says the bids are moving slowly, not that
the allocation is near the optimum: where a sigmoidal marginal is nearly
flat, a round may contract the remaining error by only ~1e-4 while every
bid already moves by far less than delta.  A run therefore stops only in a
round after the first where no bid moved by delta or more since the
previous round *and* the duality gap of its prices and rates
(utility.dual_gap), which needs no oracle, is at most GAP_TOL.  The gap is
evaluated only in such rounds and in the last, where a run that has not
stopped raises NonConvergenceError; before the last round, a gap whose pay
and unsold parts already exceed GAP_TOL skips its demand solve.

Acceleration.  After ANDERSON_WARMUP plain rounds, the state a round hands
to the next one -- every bid and every user's anchor rates -- is
Anderson-mixed over the last ANDERSON_DEPTH rounds (type-II Anderson mixing,
Walker & Ni 2011): the new state is the plain round's output corrected by
the combination of past steps that best cancels the current residual.  No
mixed entry may fall below MIX_FLOOR times its plain value: a user whose
anchor rates were pushed to zero would be held there by its proximal term,
whose stiffness grows as 1 / (anchor total).  The fixed points are those of
the plain rounds, and runs that stop within the warm-up are the plain
protocol exactly.

Every sum over users or links -- a carrier's price, a user's totals, the
mixer's dot products and the stop test's sums -- is exactly rounded
(math.fsum), so a run on relabelled or reordered users is the same run, bit
for bit, and no sum's bits depend on the Python version.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .subproblem import PRICE_FLOOR, ProtocolError, ue_step
from .utility import GAP_TOL, dual_gap

__all__ = [
    "EngineConfig",
    "AllocationResult",
    "NonConvergenceError",
    "carrier_step",
    "run",
    "GAP_TOL",
    "PRICE_FLOOR",
]

# Anderson mixing: past rounds used, plain rounds before mixing starts, the
# Tikhonov weight (relative to the largest Gram diagonal entry) that keeps
# its normal equations solvable when recent steps are collinear, and the
# share of its plain value below which no mixed entry may fall (an entry can
# at most halve per round, and never reaches zero unless the plain round
# puts it there).
ANDERSON_DEPTH = 8
ANDERSON_WARMUP = 30
ANDERSON_REGULARIZATION = 1e-12
MIX_FLOOR = 0.5


@dataclass(frozen=True)
class EngineConfig:
    """Engine parameters; defaults reproduce the reference experiments."""

    delta: float = 1e-3
    max_rounds: int = 10000
    damping: float = 0.7

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not isinstance(self.max_rounds, numbers.Integral):
            raise ValueError(f"max_rounds must be an integer, got {self.max_rounds!r}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")


@dataclass
class AllocationResult:
    """Converged (or partial) allocation: rates, bids, prices, diagnostics.

    ``max_bid_delta`` and ``duality_gap`` are the stop rule's two measures in
    the final round: the largest bid move since the round before it, and the
    gap of its prices and rates.
    """

    rates: Dict[Tuple[int, int], float]
    bids: Dict[Tuple[int, int], float]
    prices: Dict[int, float]
    totals: Dict[int, float]
    objective: float
    rounds: int
    converged: bool
    max_bid_delta: float = math.nan
    duality_gap: float = math.nan

    def rate(self, carrier_id: int, ue_id: int) -> float:
        return self.rates.get((carrier_id, ue_id), 0.0)


class NonConvergenceError(RuntimeError):
    """Round limit hit before the run certified; carries the partial result."""

    def __init__(self, result: AllocationResult):
        super().__init__(
            f"no convergence after {result.rounds} rounds: final max bid delta "
            f"{result.max_bid_delta:.3e}, duality gap {result.duality_gap:.3e} "
            f"(a stop needs a bid delta below delta and a gap of at most {GAP_TOL:g})"
        )
        self.result = result


def carrier_step(bids: Sequence[float], capacity: float) -> float:
    """Shadow price p = sum(w)/R of the bids a carrier holds.

    PRICE_FLOOR guards the users' division w / p where no bid is positive.
    Raises ProtocolError on a negative or non-finite bid.
    """
    for w in bids:
        if not (math.isfinite(w) and w >= 0.0):
            raise ProtocolError(f"carrier got bad bid {w}: bids must be finite and >= 0")
    return max(PRICE_FLOOR, math.fsum(bids) / capacity)


class _AndersonMixer:
    """Type-II Anderson mixing of a fixed-point map over float64 arrays.

    Given the state x entering a round and the state g the round maps it to,
    step returns g - dG gamma, where gamma minimizes ||f - dF gamma|| over
    the last ``depth`` differences of residuals f = g - x (dF) and of map
    outputs (dG), kept oldest first in two queues of at most ``depth``
    arrays.  The Gram matrix dF^T dF is kept up to date one row at a time and
    solved by Cholesky, so a step costs O(depth * n).

    Runs repeat bit for bit on any numpy: every dot product is exactly
    rounded (_dots), g - dG gamma subtracts one difference at a time, oldest
    first, and the small Cholesky solve runs in Python floats.
    """

    def __init__(self, depth: int):
        self.df, self.dg = deque(maxlen=depth), deque(maxlen=depth)
        self.last: Optional[Tuple[np.ndarray, np.ndarray]] = None  # the last (f, g)
        # lower triangle, all that _solve reads: row i holds df[i] . df[0..i]
        self.gram: List[List[float]] = []

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        f, last, gamma = g - x, self.last, None
        self.last = f, g
        if last is not None:
            if len(self.df) == self.df.maxlen:  # the oldest difference leaves
                self.gram = [row[1:] for row in self.gram[1:]]
            self.df.append(f - last[0])
            self.dg.append(g - last[1])
            df = np.array(self.df)
            self.gram.append(_dots(df, df[-1]))
            gamma = self._solve(_dots(df, f))
        if gamma is None:
            return g.copy()
        # g - c_0 dg_0 - c_1 dg_1 - ..., one difference at a time, oldest first
        terms = np.concatenate((g[None], np.array(gamma)[:, None] * np.array(self.dg)))
        return np.subtract.accumulate(terms)[-1]

    def _solve(self, rhs: List[float]) -> Optional[List[float]]:
        """(G + lam I) gamma = rhs by Cholesky; None if G is degenerate."""
        gram = self.gram
        scale = max([row[-1] for row in gram])
        if not (scale > 0.0 and math.isfinite(scale)):
            return None
        lam = ANDERSON_REGULARIZATION * scale
        # every sum below starts at 0.0 and adds its terms in index order
        low: List[List[float]] = []
        for i, row in enumerate(gram):
            li: List[float] = []
            for j in range(i):
                lj, acc = low[j], 0.0
                for k in range(j):
                    acc += li[k] * lj[k]
                li.append((row[j] - acc) / lj[j])
            acc = 0.0
            for v in li:
                acc += v * v
            acc = row[i] - acc + lam
            if not acc > 0.0:
                return None
            li.append(math.sqrt(acc))
            low.append(li)
        y: List[float] = []
        for li, b in zip(low, rhs):
            acc = 0.0
            for v, w in zip(li, y):
                acc += v * w
            y.append((b - acc) / li[-1])
        n = len(rhs)
        gamma = [0.0] * n
        for i in reversed(range(n)):
            acc = 0.0
            for k in range(i + 1, n):
                acc += low[k][i] * gamma[k]
            gamma[i] = (y[i] - acc) / low[i][i]
        if not all(math.isfinite(c) for c in gamma):
            return None
        return gamma


def _dots(rows: np.ndarray, v: np.ndarray) -> List[float]:
    """Each row's dot product with v, exactly rounded, or nan where that is no
    float (a sum past the largest float, or inf - inf): _solve refuses nan."""
    dots = []
    for row in (rows * v).tolist():
        try:
            dots.append(math.fsum(row))
        except (OverflowError, ValueError):
            dots.append(math.nan)
    return dots


class _Setup:
    """What a run reads besides its round state: the scenario's ``layout``
    (utility.Layout, built with the scenario and shared with the oracle), the
    links and their spans and carrier lists (module docstring), and each
    user's (utility, span, reach), reach the layout's: a scale for its user
    step, not a ceiling (the carriers' prices bound every total)."""

    def __init__(self, scenario):
        self.layout = layout = scenario.layout
        self.cids, self.caps = layout.cids, layout.caps.tolist()
        # (carrier, user) links, user-major as mask.T lists them, each user's
        # carriers by ascending id: user j owns links[spans[j]]
        users, self.link_carrier = (a.tolist() for a in np.nonzero(layout.mask.T))
        self.links = [(self.cids[k], layout.uids[j]) for j, k in zip(users, self.link_carrier)]
        ends = np.cumsum(layout.mask.sum(axis=0)).tolist()
        self.spans = [slice(start, end) for start, end in zip([0] + ends, ends)]
        # each carrier's links, in user order
        self.carrier_links: List[List[int]] = [[] for _ in self.cids]
        for i, k in enumerate(self.link_carrier):
            self.carrier_links[k].append(i)
        self.users = list(zip([u.utility for u in layout.ues], self.spans, layout.reach.tolist()))


def _prices(setup: _Setup, bids: List[float]) -> List[float]:
    """Every carrier's price of the bids it holds, by carrier_step."""
    return [carrier_step([bids[i] for i in idx], cap)
            for idx, cap in zip(setup.carrier_links, setup.caps)]


def _round(setup: _Setup, prices: List[float], bids: List[float],
           anchors: List[float], damping: float) -> Tuple[List[float], List[float]]:
    """Every user's step against ``prices``: the new bids and anchor rates.

    The arguments are only read, so equal arguments give equal lists, bit
    for bit.
    """
    link_prices = [prices[k] for k in setup.link_carrier]
    new_bids: List[float] = []
    new_anchors: List[float] = []
    for utility, span, r_reach in setup.users:
        w, q = ue_step(utility, link_prices[span], bids[span], anchors[span], r_reach, damping)
        new_bids += w
        new_anchors += q
    return new_bids, new_anchors


def _drive(setup: _Setup, bids: List[float], anchors: List[float],
           config: EngineConfig) -> AllocationResult:
    """Rounds from the state (bids, anchors) until the run certifies.

    Each round prices ``bids`` and applies the stop rule; a round that does
    not stop steps the users, and from round ANDERSON_WARMUP + 1 on the
    state it passes on is Anderson-mixed.  Raises NonConvergenceError
    (carrying the partial result) when the round limit is reached first.
    """
    mixer, layout = _AndersonMixer(ANDERSON_DEPTH), setup.layout
    delta, damping, max_rounds = config.delta, config.damping, config.max_rounds
    seen = [0.0] * len(bids)  # the bids the carriers priced in the previous round
    for n in range(1, max_rounds + 1):
        prices = _prices(setup, bids)
        round_delta = max(map(abs, map(operator.sub, bids, seen)))
        seen = bids
        stable, last = n > 1 and round_delta < delta, n == max_rounds
        if stable or last:
            # the bids as a carriers x users array
            price, held = np.array(prices), np.zeros(layout.mask.shape)
            held.T[layout.mask.T] = bids
            rates = held / price[:, None]
            # short of the last round, a gap whose cheap parts put it above
            # GAP_TOL is left unfinished (utility.dual_gap's tol)
            tol = None if last else GAP_TOL
            gap = dual_gap(layout, rates, price, tol)
            converged = stable and gap <= GAP_TOL
            if converged or last:
                break
        new_bids, new_anchors = _round(setup, prices, bids, anchors, damping)
        if n > ANDERSON_WARMUP:
            plain = np.array(new_bids + new_anchors)
            mixed = mixer.step(np.array(bids + anchors), plain)
            # max(MIX_FLOOR * plain, mixed) entry by entry, the floor on ties
            floor = MIX_FLOOR * plain
            mixed = np.where(mixed > floor, mixed, floor).tolist()
            new_bids, new_anchors = mixed[: len(bids)], mixed[len(bids):]
        bids, anchors = new_bids, new_anchors

    allocation = layout.allocation(rates, price)
    result = AllocationResult(
        **allocation,
        bids=dict(zip(allocation["rates"], held[layout.mask].tolist())),
        rounds=n,
        converged=converged,
        max_bid_delta=round_delta,
        duality_gap=gap,
    )
    if not converged:
        raise NonConvergenceError(result)
    return result


def run(scenario, config: EngineConfig = EngineConfig()) -> AllocationResult:
    """Run the bidding protocol on a scenario until it certifies its optimum.

    _drive runs the rounds, from the initial bids w(1) = R_l / M_l (scale-
    free, strictly positive, and every carrier's first-round price is
    exactly 1) and the rates they buy at that price, the even split
    R_l / M_l, as every user's first anchor.  The result carries its final
    round's largest bid move in ``max_bid_delta`` and its gap in
    ``duality_gap``.
    Raises NonConvergenceError (carrying the partial result) when the round
    limit is reached first.
    """
    setup = _Setup(scenario)
    bids = [setup.caps[k] / len(setup.carrier_links[k]) for k in setup.link_carrier]
    return _drive(setup, bids, list(bids), config)
