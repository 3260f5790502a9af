"""The oracle's optimum does not depend on units, user labels or how a carrier is cut.

Three transforms of the paper scenario have known effects on the optimum:

- units: capacities times s, sigmoidal (a, b) -> (a/s, b*s), logarithmic
  (k, r_max) -> (k/s, r_max*s).  Each new U_i(s*r) is the old U_i(r), so
  totals scale by s and prices by 1/s;
- labels: the user ids permuted.  Each user keeps its total;
- carrier split: carrier 1 replaced by n equal carriers with its reach.  The
  feasible totals depend only on the capacity of each reach set, so each user
  keeps its total and every part takes carrier 1's price.

The two answers are computed in different floating-point orders, so they
agree only up to rounding.  ``_rounding_budget`` bounds that from the base
answer alone; its argument is written out there.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import in_units
from carrieralloc.oracle import solve_central
from carrieralloc.scenario import CarrierSpec, build_paper_scenario
from carrieralloc.utility import marginals, parameter_arrays

POINTS = (20.0, 50.0, 60.0, 100.0, 300.0)
U = 2.0**-53  # unit roundoff


def _rounding_budget(scenario, sol):
    """Relative deviations rounding allows between two equivalent answers:
    ({user id: total}, {carrier id: price}).

    1. One kernel evaluation at a user's total T.  A transform leaves every
       kernel input (a, b, k, T) at most two roundings off (s itself, then the
       product), so the arguments a*T, a*(T - b) and k*T that the kernel
       exponentiates or takes log1p of are off by at most 4u relative and by
       4u*a*(T + b) or 4u*k*T absolute; the kernel's own subtraction T - b
       and a dozen further operations add at most 2u*a*(T + b) and 16u.  So
       ln m_i is evaluated to within eps_i = u * (8 x_i + 16), with x_i =
       a*(T + b) for a sigmoidal user and k*T for a logarithmic one.
    2. A price clearing ends on a linearised step that puts every user's
       ln m_i on the common ln p to second order in the last spread of the
       ln m (at most 1e-13 * |ln p|, squared far below u).  What is left is
       each user's evaluation error eps_i.
    3. The totals of a group sum to its capacity C up to (M + 1)*u relative
       (M users' rates summed, and a split capacity R/n rounded once).
       With elasticities e_i = m_i / (T_i |m_i'|), the demands T_i(ln p)
       then pin the group's price to |d ln p| <= eps + (M + 1)*u * C / W, where eps
       is the largest eps_i and W = sum T_i e_i over the group, and each
       total to |dT_i| / T_i <= e_i * (eps_i + |d ln p|).  A group is taken
       per carrier, as the users with a rate on it (one user may be in two).
    4. Two answers are compared, each carrying these errors, and the known
       map (times s or 1/s) rounds once more on each side.  A user's total
       also sums its rates over up to four carriers: 3u more per answer.
    """
    ues = sorted(scenario.ues, key=lambda ue: ue.id)
    params = parameter_arrays([ue.utility for ue in ues])
    sig, a, b, k, _ = params
    totals = np.array([sol.totals[ue.id] for ue in ues])
    m, dm = marginals(params, totals)
    elasticity = m / (totals * -dm)
    eps = U * (8.0 * np.where(sig, a * (totals + b), k * totals) + 16.0)
    n = len(ues)
    d_lnp = {}
    for c in scenario.carriers:
        group = np.array([sol.rates.get((c.id, ue.id), 0.0) > 0.0 for ue in ues])
        weight = (totals * elasticity)[group].sum()
        d_lnp[c.id] = eps.max() + (n + 1) * U * totals[group].sum() / weight if group.any() else 0.0
    total_rtol = {}
    for j, ue in enumerate(ues):
        d_own = max(d_lnp[cid] for cid in ue.carriers if sol.rates.get((cid, ue.id), 0.0) > 0.0)
        total_rtol[ue.id] = 2.0 * elasticity[j] * (eps[j] + d_own) + 8.0 * U
    price_rtol = {cid: 2.0 * d + 2.0 * U for cid, d in d_lnp.items()}
    return total_rtol, price_rtol


def _relabelled(scenario, new_id):
    return replace(scenario, ues=tuple(replace(ue, id=new_id[ue.id]) for ue in scenario.ues))


def _split(scenario, n):
    """Carrier 1 cut into carriers 1 and 11, 12, ... of equal capacity."""
    parts = (1,) + tuple(range(11, 10 + n))

    def reach(ue):
        rest = tuple(cid for cid in ue.carriers if cid != 1)
        return parts + rest if 1 in ue.carriers else rest

    return replace(
        scenario,
        carriers=tuple(CarrierSpec(cid, scenario.carrier(1).capacity / n) for cid in parts)
        + tuple(c for c in scenario.carriers if c.id != 1),
        ues=tuple(replace(ue, carriers=reach(ue)) for ue in scenario.ues),
    )


def _assert_within(actual, expected, rtol, what):
    for key, value in expected.items():
        assert abs(actual[key] - value) <= rtol[key] * abs(value), (what, key, actual[key], value)


@pytest.fixture(scope="module", params=POINTS, ids=lambda r1: f"R1={r1:g}")
def point(request):
    scenario = build_paper_scenario(request.param)
    sol = solve_central(scenario)
    return scenario, sol, _rounding_budget(scenario, sol)


@pytest.mark.parametrize("s", (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9))
def test_units_scale_totals_by_s_and_prices_by_1_over_s(point, s):
    scenario, sol, (total_rtol, price_rtol) = point
    other = solve_central(in_units(scenario, s))
    _assert_within({uid: t / s for uid, t in other.totals.items()}, sol.totals, total_rtol, "total")
    _assert_within({cid: p * s for cid, p in other.prices.items()}, sol.prices, price_rtol, "price")


@pytest.mark.parametrize("seed", (1, 2))
def test_user_labels_do_not_change_totals(point, seed):
    scenario, sol, (total_rtol, price_rtol) = point
    uids = [ue.id for ue in scenario.ues]
    new_id = dict(zip(uids, np.random.default_rng(seed).permutation(uids).tolist()))
    other = solve_central(_relabelled(scenario, new_id))
    _assert_within({uid: other.totals[new_id[uid]] for uid in uids}, sol.totals, total_rtol, "total")
    _assert_within(other.prices, sol.prices, price_rtol, "price")


@pytest.mark.parametrize("n", (2, 3))
def test_carrier_split_keeps_totals_and_every_part_takes_the_old_price(point, n):
    scenario, sol, (total_rtol, price_rtol) = point
    other = solve_central(_split(scenario, n))
    _assert_within(other.totals, sol.totals, total_rtol, "total")
    for cid in (1,) + tuple(range(11, 10 + n)):
        assert abs(other.prices[cid] - sol.prices[1]) <= price_rtol[1] * sol.prices[1], (cid, other.prices)
    assert abs(other.prices[2] - sol.prices[2]) <= price_rtol[2] * sol.prices[2]
