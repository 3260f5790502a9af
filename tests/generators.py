"""Every scenario the tests, the stability audit and CI draw, and every
transform that rewrites a scenario into an equivalent one.

Generators are seeded: each takes a ``random.Random``, a numpy ``Generator``
or a seed, as its stream was first written, and the same seed always gives
the same scenarios (``tests/test_generators.py`` pins a SHA-256 of each
one's YAML).  All of them but ``scarce``, whose steep users follow one
fixed recipe, draw utilities through ``utility``.

    generator             rng      carriers  users  used by
    synthetic             seed     given     given  CI, fixed-point test, audit
    overlap               numpy    2-6       4-20   fixed-point test, audit
    wide_range            numpy    2-32      1-100  oracle tests, CI
    random_multi_carrier  numpy    2-16      2-2K+2 oracle tests
    multi_carrier         seed     given     given  protocol pins
    scarce                -        4         given  CI's oracle at scale
    few_carriers          numpy    1-3       1-5    file round trip
    flat_stretch          -        1         2      oracle, protocol, CLI

Transforms: ``in_units``, ``relabelled``, ``reordered``, ``replicated``
and ``split_carrier``.  ``ensemble`` gives one scenario's nine equivalent
inputs, on which a change to the protocol's rounds is judged.
"""

import math
import random
from dataclasses import replace

import numpy as np

from carrieralloc.scenario import CarrierSpec, Scenario, UESpec
from carrieralloc.utility import LogarithmicUtility, SigmoidalUtility

# the synthetic recipe: each carrier's mean rate per user is log-spaced in
# RATE_LOW..RATE_HIGH, and a user reaches 1..MAX_REACH carriers
RATE_LOW, RATE_HIGH = 5.0, 50.0
MAX_REACH = 3
SMALL_SHAPES = ((8, 3), (12, 4), (18, 5))  # (users, carriers)


def utility(rng):
    """One utility: by a fair coin, sigmoidal with a in U(0.5, 10) and b in
    U(5, 50), or logarithmic with k in U(0.1, 20) and r_max in U(50, 200).
    ``rng`` is a ``random.Random`` or a numpy ``Generator``."""
    if rng.random() < 0.5:
        return SigmoidalUtility(a=rng.uniform(0.5, 10.0), b=rng.uniform(5.0, 50.0))
    return LogarithmicUtility(k=rng.uniform(0.1, 20.0), r_max=rng.uniform(50.0, 200.0))


def random_utilities(rng, n):
    """``n`` draws of ``utility``."""
    return [utility(rng) for _ in range(n)]


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _reach(rng, n_carriers, size):
    """``size`` distinct carrier ids of 1..n_carriers, sorted, from a numpy
    Generator."""
    return tuple(sorted(int(c) for c in rng.choice(n_carriers, size=size, replace=False) + 1))


def synthetic(seed, count, users, carriers):
    """``count`` scenarios of ``users`` users on ``carriers`` carriers, named
    synthetic-<seed>-<i>: the stream of ``bench/synthetic.generate``.

    Each user reaches 1 to 3 distinct carriers.  Capacities are set so that
    the mean rate each carrier offers its users (a user counted once, split
    evenly over its reach set) is one rung of a log-spaced ladder from 5 to
    50, the rungs shuffled over the carriers.
    """
    rng = random.Random(seed)
    return [_synthetic(rng, f"synthetic-{seed}-{i}", users, carriers) for i in range(count)]


def _synthetic(rng, name, users, carriers):
    cids = list(range(1, carriers + 1))
    share = dict.fromkeys(cids, 0.0)
    ues = []
    for uid in range(1, users + 1):
        reach = tuple(sorted(rng.sample(cids, rng.randint(1, MAX_REACH))))
        for cid in reach:
            share[cid] += 1.0 / len(reach)
        ues.append(UESpec(id=uid, utility=utility(rng), carriers=reach))
    rungs = [RATE_LOW * (RATE_HIGH / RATE_LOW) ** (k / (carriers - 1)) for k in range(carriers)]
    rng.shuffle(rungs)
    # a carrier no user reaches still needs a positive capacity
    specs = tuple(
        CarrierSpec(id=cid, capacity=rate * max(share[cid], 1.0)) for cid, rate in zip(cids, rungs)
    )
    return Scenario(carriers=specs, ues=tuple(ues), name=name)


def small_synthetic():
    """The 18 small scenarios, named seed-users-carriers: ``synthetic`` seeds
    0-5 x 8/3, 12/4 and 18/5 users/carriers."""
    return {
        f"{seed}-{users}-{carriers}": synthetic(seed, 1, users, carriers)[0]
        for seed in range(6)
        for users, carriers in SMALL_SHAPES
    }


def overlap(rng, name):
    """Overlapping reach on a numpy Generator: 2-6 carriers and 4-20 users,
    each reaching 1..min(3, K) distinct carriers.  As in ``synthetic``, a
    carrier's capacity is its mean rate per user, log-uniform in 5-50, times
    max(share, 1)."""
    n_carriers = int(rng.integers(2, 7))
    n_ues = int(rng.integers(4, 21))
    share = [0.0] * n_carriers
    ues = []
    for j in range(n_ues):
        size = int(rng.integers(1, min(MAX_REACH, n_carriers) + 1))
        reach = _reach(rng, n_carriers, size)
        for cid in reach:
            share[cid - 1] += 1.0 / size
        ues.append(UESpec(id=j + 1, utility=utility(rng), carriers=reach))
    carriers = tuple(
        CarrierSpec(id=l + 1, capacity=_log_uniform(rng, RATE_LOW, RATE_HIGH) * max(s, 1.0))
        for l, s in enumerate(share)
    )
    return Scenario(carriers=carriers, ues=tuple(ues), name=name)


def overlap_family():
    """The 100 overlap scenarios of ``numpy.random.default_rng(0)``, by name
    overlap-<i>."""
    rng = np.random.default_rng(0)
    return {s.name: s for s in (overlap(rng, f"overlap-{i}") for i in range(100))}


def wide_range(rng, name):
    """A scenario far outside the paper's ranges, drawn from a numpy Generator.

    2-32 carriers with capacities log-uniform in 1e-3..1e4; 1-100 users, each
    reaching 1..K carriers.  Sigmoidal users draw a log-uniform in 0.05-50 and
    b in 0.1-1000, so a*b reaches 5e4 and many marginals are flat to machine
    precision; logarithmic users draw k log-uniform in 1e-3..1e3.  The users
    share 1, 2, 4 or M utility profiles, so many of them are identical.
    """
    n_carriers = int(rng.integers(2, 33))
    n_ues = int(rng.integers(1, 101))
    profiles = []
    for _ in range(int(rng.choice([1, 2, 4, n_ues]))):
        if rng.random() < 0.5:
            profiles.append(
                SigmoidalUtility(a=_log_uniform(rng, 0.05, 50.0), b=_log_uniform(rng, 0.1, 1000.0))
            )
        else:
            profiles.append(
                LogarithmicUtility(
                    k=_log_uniform(rng, 1e-3, 1e3), r_max=_log_uniform(rng, 1.0, 1e3)
                )
            )
    ues = []
    for j in range(n_ues):
        reach = _reach(rng, n_carriers, int(rng.integers(1, n_carriers + 1)))
        ues.append(
            UESpec(id=j + 1, utility=profiles[int(rng.integers(len(profiles)))], carriers=reach)
        )
    carriers = tuple(
        CarrierSpec(id=l, capacity=_log_uniform(rng, 1e-3, 1e4)) for l in range(1, n_carriers + 1)
    )
    return Scenario(carriers=carriers, ues=tuple(ues), name=name)


def random_multi_carrier(rng, name, n_carriers=None, n_ues=None):
    """2-16 carriers of capacity U(5, 100) and 2..2K+2 users on a numpy
    Generator (either count may be given), each user reaching 1..min(3, K)
    carriers; a user repeats its predecessor's utility with probability 0.2."""
    n_carriers = n_carriers or int(rng.integers(2, 17))
    n_ues = n_ues or int(rng.integers(2, 2 * n_carriers + 3))
    utilities = random_utilities(rng, n_ues)
    for j in range(1, n_ues):
        if rng.random() < 0.2:
            utilities[j] = utilities[j - 1]  # an identical-user pair
    ues = []
    for j, u in enumerate(utilities):
        reach = _reach(rng, n_carriers, int(rng.integers(1, min(3, n_carriers) + 1)))
        ues.append(UESpec(id=j + 1, utility=u, carriers=reach))
    carriers = tuple(
        CarrierSpec(id=l, capacity=float(rng.uniform(5.0, 100.0)))
        for l in range(1, n_carriers + 1)
    )
    return Scenario(carriers=carriers, ues=tuple(ues), name=name)


def multi_carrier(seed, n_carriers, n_users):
    """Users of both families on 1-3 of n_carriers, drawn from ``seed``."""
    rng = random.Random(seed)
    carriers = tuple(
        CarrierSpec(id=c, capacity=rng.uniform(50.0, 300.0)) for c in range(1, n_carriers + 1)
    )
    reach = range(1, n_carriers + 1)
    ues = tuple(
        UESpec(id=j + 1, utility=u, carriers=tuple(sorted(rng.sample(reach, rng.randint(1, 3)))))
        for j, u in enumerate(random_utilities(rng, n_users))
    )
    return Scenario(carriers=carriers, ues=ues, name=f"multi-{seed}")


def scarce(n):
    """``n`` steep sigmoidal users on four carriers of n/4 each, far below
    their inflections: user j (from 0) has a = 50 U(0.9, 1.1), then
    b = 1000 U(0.9, 1.1), from a fresh ``default_rng(0)``, and reaches
    carrier 1 + (j mod 4).  The oracle's scale recipe (ROADMAP item 6)."""
    rng = np.random.default_rng(0)
    ues = []
    for j in range(n):
        a = 50.0 * float(rng.uniform(0.9, 1.1))
        b = 1000.0 * float(rng.uniform(0.9, 1.1))
        ues.append(UESpec(id=j + 1, utility=SigmoidalUtility(a=a, b=b), carriers=(1 + j % 4,)))
    carriers = tuple(CarrierSpec(id=c, capacity=n / 4) for c in range(1, 5))
    return Scenario(carriers=carriers, ues=tuple(ues), name=f"scarce-{n}")


def few_carriers(rng, name):
    """1-3 carriers of capacity U(1, 500) and 1-5 users on a numpy Generator,
    each reaching any non-empty set of carriers."""
    n_carriers = int(rng.integers(1, 4))
    carriers = tuple(
        CarrierSpec(id=c + 1, capacity=float(rng.uniform(1.0, 500.0))) for c in range(n_carriers)
    )
    ues = []
    for uid in range(1, int(rng.integers(2, 7))):
        u = utility(rng)
        reach = _reach(rng, n_carriers, int(rng.integers(1, n_carriers + 1)))
        ues.append(UESpec(id=uid, utility=u, carriers=reach))
    return Scenario(carriers=carriers, ues=tuple(ues), name=name)


def flat_stretch():
    """One carrier and two sigmoidal users whose marginals are flat to machine
    precision over most of its capacity; the optimal price lies in
    [41.6, 44.5], next to the second user's steepness."""
    return Scenario(
        carriers=(CarrierSpec(id=1, capacity=181.3),),
        ues=(
            UESpec(id=1, utility=SigmoidalUtility(a=41.6, b=14.7), carriers=(1,)),
            UESpec(id=2, utility=SigmoidalUtility(a=44.5, b=385.5), carriers=(1,)),
        ),
        name="flat-stretch",
    )


# ---------------------------------------------------------------------------
# Transforms


def in_units(scenario, s):
    """``scenario`` with rates in units 1/s: capacities times s, sigmoidal
    (a, b) -> (a/s, b*s), logarithmic (k, r_max) -> (k/s, r_max*s)."""
    def scaled(u):
        if isinstance(u, SigmoidalUtility):
            return SigmoidalUtility(a=u.a / s, b=u.b * s)
        return LogarithmicUtility(k=u.k / s, r_max=u.r_max * s)

    return replace(
        scenario,
        carriers=tuple(replace(c, capacity=c.capacity * s) for c in scenario.carriers),
        ues=tuple(replace(ue, utility=scaled(ue.utility)) for ue in scenario.ues),
    )


def relabelled(scenario, new_id):
    """``scenario`` with user ``uid`` renamed ``new_id[uid]``."""
    return replace(scenario, ues=tuple(replace(ue, id=new_id[ue.id]) for ue in scenario.ues))


def reversed_ids(scenario):
    """The relabelling that reverses the order of ``scenario``'s user ids."""
    uids = sorted(ue.id for ue in scenario.ues)
    return dict(zip(uids, reversed(uids)))


def reordered(scenario, rng):
    """``scenario`` with its carriers, then its users, listed in an order
    shuffled by ``rng``."""
    carriers, ues = list(scenario.carriers), list(scenario.ues)
    rng.shuffle(carriers)
    rng.shuffle(ues)
    return Scenario(tuple(carriers), tuple(ues), scenario.name)


def replicated(scenario, k):
    """``scenario`` with its users copied ``k`` times, copy c's ids offset by
    c times the largest id, and every capacity times ``k``.  Each copy faces
    the prices of the original, so the optimum keeps its totals and prices."""
    top = max(ue.id for ue in scenario.ues)
    return replace(
        scenario,
        carriers=tuple(replace(c, capacity=c.capacity * k) for c in scenario.carriers),
        ues=tuple(replace(ue, id=ue.id + c * top) for c in range(k) for ue in scenario.ues),
    )


def split_carrier(scenario, n):
    """``scenario`` with carrier 1 cut into carriers 1 and 11, 12, ... of equal
    capacity, each in the reach of every user that reached carrier 1."""
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


def ensemble(scenario):
    """Nine inputs equivalent to ``scenario``, by name: the scenario as given,
    in units s = 2, 1/4, 10 and 0.1, with its user ids reversed, listed in
    another order (seed 0), and replicated x2 and x3.  The oracle's optimum
    is the same on each, up to the known map and rounding; the protocol's
    round count is one draw per input."""
    return {
        "as given": scenario,
        **{f"units s={label}": in_units(scenario, s)
           for label, s in (("2", 2.0), ("1/4", 0.25), ("10", 10.0), ("0.1", 0.1))},
        "ids reversed": relabelled(scenario, reversed_ids(scenario)),
        "reordered": reordered(scenario, random.Random(0)),
        "x2": replicated(scenario, 2),
        "x3": replicated(scenario, 3),
    }
