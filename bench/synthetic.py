"""Seeded synthetic scenarios for the ``synthetic-scale`` workload.

Every scenario has ``users`` users and ``carriers`` carriers.  Each user
draws its utility from one of the two families with the parameter ranges of
``tests/helpers.random_utilities`` and reaches 1 to 3 distinct carriers, so
reach sets overlap.  Carrier capacities are set so that the mean rate each
carrier offers its users (a user counted once, split evenly over its reach
set) is one rung of a log-spaced ladder from 5 to 50: every scenario spans
the sigmoidal inflection range instead of sitting at one point of it.

The same seed gives the same scenarios; only ``Scenario`` objects reach the
program.
"""

from __future__ import annotations

import random
from typing import List

RATE_LOW, RATE_HIGH = 5.0, 50.0
MAX_REACH = 3


def generate(ca, seed: int, count: int, users: int, carriers: int) -> List:
    """``count`` scenarios drawn from ``seed``; ``ca`` is the carrieralloc package."""
    rng = random.Random(seed)
    return [_scenario(ca, rng, f"synthetic-{seed}-{i}", users, carriers)
            for i in range(count)]


def _utility(ca, rng: random.Random):
    if rng.random() < 0.5:
        return ca.SigmoidalUtility(a=rng.uniform(0.5, 10.0), b=rng.uniform(5.0, 50.0))
    return ca.LogarithmicUtility(k=rng.uniform(0.1, 20.0), r_max=rng.uniform(50.0, 200.0))


def _scenario(ca, rng: random.Random, name: str, users: int, carriers: int):
    cids = list(range(1, carriers + 1))
    share = dict.fromkeys(cids, 0.0)
    ues = []
    for uid in range(1, users + 1):
        reach = tuple(sorted(rng.sample(cids, rng.randint(1, MAX_REACH))))
        for cid in reach:
            share[cid] += 1.0 / len(reach)
        ues.append(ca.UESpec(id=uid, utility=_utility(ca, rng), carriers=reach))
    rungs = [RATE_LOW * (RATE_HIGH / RATE_LOW) ** (k / (carriers - 1))
             for k in range(carriers)]
    rng.shuffle(rungs)
    # A carrier no user reaches still needs a positive capacity.
    specs = tuple(
        ca.CarrierSpec(id=cid, capacity=rate * max(share[cid], 1.0))
        for cid, rate in zip(cids, rungs)
    )
    return ca.Scenario(carriers=specs, ues=tuple(ues), name=name)
