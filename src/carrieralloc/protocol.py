"""Round-based engine coupling user bidding with carrier pricing.

Rounds are synchronous: every carrier turns the bids it currently holds into
a shadow price p_l = sum_i w_li / R_l, then every user answers the fresh
prices with new bids.  Final rates are r_li = w_li / p_l, which by
construction exhausts the capacity of each carrier holding a positive bid.
PRICE_FLOOR is only a division guard, for a carrier whose bids are all zero.

The round state is two flat lists over the (carrier, user) links, the bids
w_li and the users' anchor rates q_li, ordered user-major with each user's
carriers by ascending id: a user reads and writes one contiguous slice, and
a carrier reads the links listed for it.

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

Users and carriers are stepped in ascending id order over plain floats, and
the mixer fixes the order of its float64 array arithmetic (see
_AndersonMixer) and solves its small least-squares system in plain floats,
so two runs on identical inputs produce bit-identical results.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .subproblem import PRICE_FLOOR, ProtocolError, _left_sum, ue_step
from .utility import GAP_TOL, dual_gap, log_utilities, parameter_arrays

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
    return max(PRICE_FLOOR, _left_sum(bids) / capacity)


class _AndersonMixer:
    """Type-II Anderson mixing of a fixed-point map over float64 arrays.

    Given the state x entering a round and the state g the round maps it to,
    step returns g - dG gamma, where gamma minimizes ||f - dF gamma|| over
    the last ``depth`` differences of residuals f = g - x (dF) and of map
    outputs (dG), kept oldest first as the rows of two depth x n arrays.
    The Gram matrix dF^T dF is kept up to date one row at a time and solved
    by Cholesky, so a step costs O(depth * n).

    The arithmetic is fixed operation by operation, so runs repeat bit for
    bit on any numpy: every dot product is a strict left-to-right sum
    (_dots), g - dG gamma subtracts one row at a time, oldest first, and the
    small Cholesky solve runs in Python floats.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self.size = 0  # rows of df and dg in use
        self.df = self.dg = np.empty((depth, 0))
        self.last_f: Optional[np.ndarray] = None
        self.last_g: Optional[np.ndarray] = None
        # lower triangle: row i holds the products of row i of df with rows
        # 0..i, all that _solve reads
        self.gram: List[List[float]] = []

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        f = g - x
        if self.last_f is not None:
            self._push(f - self.last_f, g - self.last_g)
        self.last_f, self.last_g = f, g
        gamma = self._solve(_dots(self.df[: self.size], f)) if self.size else None
        if gamma is None:
            return g.copy()
        # g - c_0 dg_0 - c_1 dg_1 - ..., one row at a time, oldest first
        terms = np.concatenate((g[None], np.array(gamma)[:, None] * self.dg[: self.size]))
        return np.subtract.accumulate(terms)[-1]

    def _push(self, df: np.ndarray, dg: np.ndarray) -> None:
        if self.size == 0:
            self.df, self.dg = np.empty((self.depth, df.size)), np.empty((self.depth, dg.size))
        if self.size == self.depth:
            self.df[:-1], self.dg[:-1] = self.df[1:], self.dg[1:]
            self.gram = [row[1:] for row in self.gram[1:]]
            self.size -= 1
        self.df[self.size], self.dg[self.size] = df, dg
        self.size += 1
        self.gram.append(_dots(self.df[: self.size], df))

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
    """Each row's dot product with v, summed from 0.0 in index order.

    np.add.accumulate adds strictly left to right, where np.dot and np.sum
    may reorder; the 0.0 + turns a sum of -0.0 terms into 0.0 as a sum from
    0.0 does.
    """
    return (0.0 + np.add.accumulate(rows * v, axis=1)[:, -1]).tolist()


def run(scenario, config: EngineConfig = EngineConfig()) -> AllocationResult:
    """Run the bidding protocol on a scenario until it certifies its optimum.

    A run stops by the module docstring's stop rule; from round
    ANDERSON_WARMUP + 1 on, the state passed to the next round is
    Anderson-mixed.  The result carries its final round's largest bid move in
    ``max_bid_delta`` and its gap in ``duality_gap``.  Raises
    NonConvergenceError (carrying the partial result) when the round limit
    is reached first.
    """
    carriers = sorted(scenario.carriers, key=lambda c: c.id)
    ues = sorted(scenario.ues, key=lambda u: u.id)
    cids = [c.id for c in carriers]
    caps = [c.capacity for c in carriers]
    column = {cid: k for k, cid in enumerate(cids)}
    # (carrier, user) links, user-major: user j owns links[spans[j]]
    links: List[Tuple[int, int]] = []
    spans: List[slice] = []
    for ue in ues:
        start = len(links)
        links += [(cid, ue.id) for cid in sorted(ue.carriers)]
        spans.append(slice(start, len(links)))
    link_carrier = [column[cid] for cid, _ in links]
    # each carrier's links, in user order
    carrier_links: List[List[int]] = [[] for _ in carriers]
    for i, k in enumerate(link_carrier):
        carrier_links[k].append(i)
    # the capacity each UE reaches: a scale for its user step, not a ceiling
    # (the carriers' prices bound every total)
    reach = [_left_sum(caps[column[cid]] for cid in ue.carriers) for ue in ues]
    # the stop test's arrays; mask.T lists the links in their user-major order
    params = parameter_arrays([ue.utility for ue in ues])
    mask = np.array([[cid in ue.carriers for ue in ues] for cid in cids])
    cap_array = np.array(caps)

    # Initial bids w(1) = R_l / M_l: scale-free, strictly positive, and give
    # every carrier a first-round price of exactly 1.
    bids = [caps[k] / len(carrier_links[k]) for k in link_carrier]
    # anchor rates exist once every user has stepped, from round 2 on
    anchors: Optional[List[float]] = None
    # the bids the carriers priced in the previous round
    seen = [0.0] * len(links)

    # what each user's step reads besides the round state
    users = list(zip([ue.utility for ue in ues], spans, reach))
    link_index = np.array(link_carrier)
    mixer = _AndersonMixer(ANDERSON_DEPTH)
    delta, damping, max_rounds = config.delta, config.damping, config.max_rounds
    converged = False
    gap = math.nan
    rounds = 0
    for n in range(1, max_rounds + 1):
        rounds = n
        prices = [
            carrier_step([bids[i] for i in idx], cap)
            for idx, cap in zip(carrier_links, caps)
        ]
        round_delta = max(map(abs, map(operator.sub, bids, seen)))
        seen = bids
        stable = n > 1 and round_delta < delta
        if stable or n == max_rounds:
            price = np.array(prices)
            rates = np.zeros(mask.shape)
            rates.T[mask.T] = np.array(bids) / price[link_index]
            # short of the last round, a gap whose cheap parts put it above
            # GAP_TOL is left unfinished (utility.dual_gap's tol)
            tol = GAP_TOL if n < max_rounds else None
            gap = dual_gap(params, mask, cap_array, rates, price, tol)
            if stable and gap <= GAP_TOL:
                converged = True
                break
        if n < max_rounds:
            link_prices = [prices[k] for k in link_carrier]
            new_bids: List[float] = []
            new_anchors: List[float] = []
            for utility, span, r_reach in users:
                w, q = ue_step(
                    utility,
                    link_prices[span],
                    bids[span],
                    None if anchors is None else anchors[span],
                    r_reach,
                    damping,
                )
                new_bids += w
                new_anchors += q
            if n > ANDERSON_WARMUP:
                plain = np.array(new_bids + new_anchors)
                mixed = mixer.step(np.array(bids + anchors), plain)
                # max(MIX_FLOOR * plain, mixed) entry by entry, the floor on ties
                floor = MIX_FLOOR * plain
                mixed = np.where(mixed > floor, mixed, floor).tolist()
                new_bids, new_anchors = mixed[: len(links)], mixed[len(links):]
            bids, anchors = new_bids, new_anchors

    rate = [w / prices[k] for w, k in zip(bids, link_carrier)]
    by_carrier = [i for idx in carrier_links for i in idx]
    totals = [_left_sum(rate[span]) for span in spans]
    result = AllocationResult(
        rates={links[i]: rate[i] for i in by_carrier},
        bids={links[i]: bids[i] for i in by_carrier},
        prices=dict(zip(cids, prices)),
        totals={ue.id: t for ue, t in zip(ues, totals)},
        objective=float(log_utilities(params, np.array(totals)).sum()),
        rounds=rounds,
        converged=converged,
        max_bid_delta=round_delta,
        duality_gap=gap,
    )
    if not converged:
        raise NonConvergenceError(result)
    return result

