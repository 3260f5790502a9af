"""Shared test oracles: independent inverters, FD noise bounds and the
reference scenario writer."""

import math

import numpy as np
import yaml
from scipy.special import lambertw

from generators import random_utilities  # noqa: F401 (test_acceptance.py imports it from here)
from carrieralloc.oracle import OracleError, duality_gap, kkt_check, solve_central
from carrieralloc.protocol import ANDERSON_REGULARIZATION
from carrieralloc.utility import (
    GAP_TOL,
    Layout,
    LogarithmicUtility,
    RootFindingError,
    SigmoidalUtility,
    UtilityDomainError,
    log_utility,
)

EPS = float(np.finfo(float).eps)


def log_demand_lambertw(k: float, p: float) -> float:
    """Independent inverter of the logarithmic marginal: (1+kr)ln(1+kr) = k/p."""
    t = math.exp(float(lambertw(k / p).real))
    return (t - 1.0) / k


def sig_demand_closed_form(a: float, b: float, p: float) -> float:
    """Independent inverter of the sigmoidal marginal via its quadratic in s."""
    d = 1.0 / (1.0 + math.exp(min(a * b, 700.0)))
    s = ((a - p) + math.sqrt((a - p) ** 2 + 4.0 * a * p * d)) / (2.0 * a)
    return b + math.log(s / (1.0 - s)) / a


def scenario_yaml_reference(scenario, dumper, sweep=None):
    """A scenario file as ``yaml.dump`` wrote it from the document's dicts and
    lists, through PyYAML's safe representer and serializer: the bytes the
    line writer ``scenario_to_yaml`` must give."""
    family = {SigmoidalUtility: "sigmoidal", LogarithmicUtility: "logarithmic"}
    doc = {
        "name": scenario.name,
        "carriers": [{"id": c.id, "capacity": float(c.capacity)} for c in scenario.carriers],
        "ues": [
            {
                "id": ue.id,
                "utility": {"type": family[type(ue.utility)], **vars(ue.utility)},
                "carriers": list(ue.carriers),
            }
            for ue in scenario.ues
        ],
    }
    if sweep is not None:
        doc["sweep"] = {"carrier": sweep.carrier_id, "from": sweep.start,
                        "to": sweep.stop, "step": sweep.step}
    return yaml.dump(doc, Dumper=dumper, sort_keys=False)


def ln_u_roundoff(u, r: float, h: float) -> float:
    """Absolute FP error bound of one ln U evaluation near r.

    The sigmoidal scale counts terms of magnitude ~a*r and a*b, as a form of
    ln U that cancelled them had; no term of the library's form is larger
    than |ln U|, so for it this bound is loose.
    """
    if isinstance(u, SigmoidalUtility):
        scale = 1.0 + u.a * (r + h) + u.a * u.b
    else:
        scale = 1.0 + abs(u.log_utility(max(r, 1e-12)))
    return EPS * scale


def fd_marginal_tolerance(u, r: float, h: float) -> float:
    """Noise floor of the central first difference of ln U with step h."""
    return 4.0 * ln_u_roundoff(u, r, h) / h


def second_diff_tolerance(u, r: float, h: float) -> float:
    """Noise floor of the (undivided) second central difference of ln U."""
    return 16.0 * ln_u_roundoff(u, r, h)


# ---------------------------------------------------------------------------
# Reference copies of the scalar inverters as they stood before their inner
# loops were flattened.  The library forms must match these bit for bit:
# protocol round counts are chaotic in the last bit of a user's demand.


def sigmoid_reference(x: float) -> float:
    """The sign-split sigmoid the utility module once kept as a helper."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def sigmoidal_marginal_reference(u, r: float) -> float:
    """SigmoidalUtility.marginal with the sigmoid as a separate call."""
    if not (r > 0.0):
        raise UtilityDomainError(f"marginal requires r > 0, got {r}")
    a, b = u.a, u.b
    # d/dr ln U = a * (1 / (1 - e^{-a r}) - sigmoid(a (r - b)))
    return a * (1.0 / (-math.expm1(-a * r)) - sigmoid_reference(a * (r - b)))


def anchored_demand_reference(utility, prices, anchor, rho):
    """subproblem._anchored_demand built from closures over the links."""
    links = list(zip(anchor, prices))

    def split(nu: float):
        return [max(0.0, q + (nu - p) / rho) for q, p in links]

    def total(nu: float) -> float:
        return _sum_from_zero(r for r in (q + (nu - p) / rho for q, p in links) if r > 0.0)

    def excess(nu: float) -> float:
        t = total(nu)
        if t <= 0.0:
            return 1.0  # marginal(0+) = +inf exceeds any finite nu
        return utility.marginal(t) - nu

    lo = min(p - rho * q for q, p in links)  # total(lo) == 0
    hi = max(prices) + rho * max(anchor) + 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    return split(0.5 * (lo + hi))


def _sum_from_zero(terms):
    """The builtin sum() of floats up to Python 3.11: left to right from 0."""
    total = 0.0
    for term in terms:
        total += term
    return total


class anderson_mixer_reference:
    """protocol._AndersonMixer as it stood in plain floats, on lists.

    Its dot products are exactly rounded (math.fsum), and its Cholesky sums
    add left to right from 0.0, as the mixer's loops do.
    """

    def __init__(self, depth):
        self.depth = depth
        self.last_f = None
        self.last_g = None
        self.df = []
        self.dg = []
        self.gram = []

    def step(self, x, g):
        f = [gi - xi for gi, xi in zip(g, x)]
        if self.last_f is not None:
            self._push(
                [a - b for a, b in zip(f, self.last_f)],
                [a - b for a, b in zip(g, self.last_g)],
            )
        self.last_f, self.last_g = f, g
        if not self.df:
            return list(g)
        gamma = self._solve([_dot(col, f) for col in self.df])
        if gamma is None:
            return list(g)
        out = list(g)
        for c, col in zip(gamma, self.dg):
            for i, v in enumerate(col):
                out[i] -= c * v
        return out

    def _push(self, df, dg):
        if len(self.df) == self.depth:
            del self.df[0], self.dg[0], self.gram[0]
            for row in self.gram:
                del row[0]
        self.gram.append([_dot(col, df) for col in self.df] + [_dot(df, df)])
        self.df.append(df)
        self.dg.append(dg)

    def _solve(self, rhs):
        n = len(rhs)
        scale = max(self.gram[i][i] for i in range(n))
        if not (scale > 0.0 and math.isfinite(scale)):
            return None
        lam = ANDERSON_REGULARIZATION * scale
        low = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                acc = self.gram[i][j] - _sum_from_zero(low[i][k] * low[j][k] for k in range(j))
                if i == j:
                    acc += lam
                    if not acc > 0.0:
                        return None
                    low[i][i] = math.sqrt(acc)
                else:
                    low[i][j] = acc / low[j][j]
        y = [0.0] * n
        for i in range(n):
            y[i] = (rhs[i] - _sum_from_zero(low[i][k] * y[k] for k in range(i))) / low[i][i]
        gamma = [0.0] * n
        for i in reversed(range(n)):
            acc = _sum_from_zero(low[k][i] * gamma[k] for k in range(i + 1, n))
            gamma[i] = (y[i] - acc) / low[i][i]
        if not all(math.isfinite(c) for c in gamma):
            return None
        return gamma


def _dot(a, b):
    return math.fsum(x * y for x, y in zip(a, b))


def optimum_state(setup, sol):
    """The protocol's round state (bids, anchor rates) at the oracle's optimum
    ``sol``: bids p*·r* and anchors r*, in the link order of ``setup``."""
    anchors = [sol.rates.get(link, 0.0) for link in setup.links]
    return [sol.prices[cid] * r for (cid, _), r in zip(setup.links, anchors)], anchors


def oracle_outcome(scenario, certified=None):
    """How the oracle ends on ``scenario``: "certified", "inverter" (an
    OracleError from a failed demand inversion) or "OracleError" (any other).
    Every other exception propagates.  A certified optimum must carry a
    duality gap of at most GAP_TOL, and ``duality_gap`` of its rates and
    prices, computed with numpy's floating-point warnings raised as errors,
    must give that gap back.  When ``certified`` is given, (gap, whether
    ``kkt_check`` passes at 1e-9) is appended to it."""
    try:
        sol = solve_central(scenario)
    except OracleError as exc:
        return "inverter" if isinstance(exc.__cause__, RootFindingError) else "OracleError"
    assert sol.duality_gap <= GAP_TOL, (scenario.name, sol.duality_gap)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert duality_gap(sol, scenario) == sol.duality_gap, scenario.name
    if certified is not None:
        certified.append((sol.duality_gap, kkt_check(sol, scenario, 1e-9).passed))
    return "certified"


def gap_rounding_budget(scenario, candidate):
    """A bound on the rounding in ``duality_gap(candidate, scenario)``.

    Per user, the gap takes the difference of two ln U values and pi times
    the difference of two totals.  Each ln U value is summed from terms no
    larger than s = |ln U| + 2 for a sigmoidal user, and s = |ln U| +
    |ln ln(1 + k r_max)| + 2 for a logarithmic one, whose normalization the
    gap leaves out; each term is within 4u of its own size (u the unit
    roundoff), so a value is within 8u s, and a difference within 16u s.
    Per link it adds (p_l - pi) r_l and per carrier p_l (R_l - load_l), with
    the load a sum of M rates: all of them within (K M + M + 4) u sum_l p_l R_l.
    """
    u = EPS / 2.0
    s = 0.0
    for ue in scenario.ues:
        s += abs(log_utility(ue.utility, candidate.totals[ue.id])) + 2.0
        if isinstance(ue.utility, LogarithmicUtility):
            s += abs(math.log(math.log1p(ue.utility.k * ue.utility.r_max)))
    k, m = len(scenario.carriers), len(scenario.ues)
    paid = sum(candidate.prices[c.id] * c.capacity for c in scenario.carriers)
    return 16.0 * u * s + (k * m + m + 4) * u * paid


def outcome(fn, *args):
    """Bitwise-comparable result of a call: hex floats, or the error raised."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(value, list):
        return [float(v).hex() for v in value]
    return float(value).hex()


class RecordingUtility:
    """Delegates ``marginal`` to a utility and logs each argument's bits.

    Repeats of the previous argument are not logged, so two callers that
    evaluate the same points in the same order log the same sequence even
    if one of them re-evaluates a point.
    """

    def __init__(self, utility):
        self.utility = utility
        self.args = []
        self.calls = 0  # every call, repeats included

    def __getattr__(self, name):
        return getattr(self.utility, name)  # the family's parameters

    def marginal(self, r: float) -> float:
        self.calls += 1
        bits = float(r).hex()
        if not self.args or self.args[-1] != bits:
            self.args.append(bits)
        return self.utility.marginal(r)


def count_layouts(monkeypatch):
    """A list that gains the scenario of every utility.Layout built from now on."""
    built, init = [], Layout.__init__

    def counting_init(layout, scenario):
        built.append(scenario)
        init(layout, scenario)

    monkeypatch.setattr(Layout, "__init__", counting_init)
    return built
