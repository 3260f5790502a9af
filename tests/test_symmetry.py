"""Renaming the users changes no bit of a protocol run.

Every sum the protocol takes over users is exactly rounded, so a run on the
scenario with its user ids reversed is the original run, mapped by id: the
same rounds, rates, bids, prices, duality gap and objective, bit for bit.
Runs that end at the round limit are compared on their partial results.
"""

import pytest

from generators import relabelled, reversed_ids, small_synthetic
from carrieralloc.protocol import EngineConfig, NonConvergenceError, run
from carrieralloc.scenario import build_paper_scenario

PAPER = build_paper_scenario(300.0)
SMALL = small_synthetic()
# a bound on tier-1 time; these two end at it, on both sides
SMALL_CONFIG = EngineConfig(max_rounds=2000)
SMALL_AT_LIMIT = ("0-8-3", "3-18-5")


def _outcome(scenario, config):
    try:
        return run(scenario, config)
    except NonConvergenceError as exc:
        return exc.result


def _bits(result, old_id):
    """Everything a run returns, with user ids mapped by ``old_id`` and floats as hex."""
    return dict(
        rounds=result.rounds,
        converged=result.converged,
        rates={(cid, old_id[uid]): r.hex() for (cid, uid), r in result.rates.items()},
        bids={(cid, old_id[uid]): w.hex() for (cid, uid), w in result.bids.items()},
        prices={cid: p.hex() for cid, p in result.prices.items()},
        duality_gap=result.duality_gap.hex(),
        objective=result.objective.hex(),
    )


def _assert_reversed_ids_repeat_the_run(scenario, config):
    new_id = reversed_ids(scenario)
    original = _outcome(scenario, config)
    other = _outcome(relabelled(scenario, new_id), config)
    back = {new: old for old, new in new_id.items()}
    assert _bits(other, back) == _bits(original, {uid: uid for uid in new_id})
    return original


@pytest.mark.parametrize("r1", [20.0 + 10.0 * i for i in range(29)], ids=lambda r1: f"R1={r1:g}")
def test_paper_point_with_reversed_ids_is_the_same_run(r1):
    assert _assert_reversed_ids_repeat_the_run(PAPER.with_capacity(1, r1), EngineConfig()).converged


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_scenario_with_reversed_ids_is_the_same_run(name):
    result = _assert_reversed_ids_repeat_the_run(SMALL[name], SMALL_CONFIG)
    if name in SMALL_AT_LIMIT:
        assert result.rounds == SMALL_CONFIG.max_rounds and not result.converged
