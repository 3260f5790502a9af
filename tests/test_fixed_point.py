"""The protocol's round as a function of its state, and the oracle's optimum
as its fixed point.

At the optimum, bids p*·r* and anchor rates r*, the carriers' prices are p*
and every user's step gives back its bids and anchors up to rounding.  So
one round from there moves nothing beyond rounding, and a run started there
certifies in the second round, the first that may stop.  Checked on the 18
small synthetic scenarios, the 29 reference points, the same points with
carrier 1 cut in two, and the 100 scenarios of the overlap family.  These
include 0-8-3, 3-18-5 and the split points at R1 = 40, 50 and 60, where a
run from the first bids fails: there the failure is in the protocol's path,
not in its answer.  In four overlap scenarios one round moves more than
rounding allows (BEYOND_ROUNDING); a run from the optimum still certifies
in 2 rounds there.
"""

import functools

import pytest

from generators import overlap_family, small_synthetic, split_carrier
from helpers import optimum_state
from carrieralloc.oracle import solve_central
from carrieralloc.protocol import EngineConfig, PRICE_FLOOR, _drive, _prices, _round, _Setup
from carrieralloc.scenario import build_paper_scenario

POINTS = [20.0 + 10.0 * i for i in range(29)]
# relative moves that rounding allows; at most 1.7e-12 (bids) and 3.9e-12
# (prices) are measured
ROUNDING = 1e-11
# overlap scenarios where one round from the optimum moves further, with the
# largest moves measured.  In overlap-43 and overlap-89 the users step on
# carriers priced 1.5e-8 and 2.2e-6, where the user step resolves its
# multiplier only to about 1e-14 absolute; in the other two only prices
# move, on carriers that share one price
BEYOND_ROUNDING = {
    "overlap-32": "prices move by 2.1e-11",
    "overlap-43": "bids move by 7.9e-7 of pay, prices by 1.3e-6",
    "overlap-47": "prices move by 1.2e-11",
    "overlap-89": "bids move by 2.4e-9 of pay, prices by 2.3e-9",
}


def _scenarios():
    named = {f"small {name}": s for name, s in small_synthetic().items()}
    for r1 in POINTS:
        named[f"paper R1={r1:g}"] = build_paper_scenario(r1)
        named[f"paper-split R1={r1:g}"] = split_carrier(build_paper_scenario(r1), 2)
    named.update(overlap_family())
    return named


SCENARIOS = _scenarios()


@functools.lru_cache(maxsize=None)
def _solved(name):
    return _Setup(SCENARIOS[name]), solve_central(SCENARIOS[name])


def at_optimum(name):
    """(set-up, bids, anchors) of the named scenario at the oracle's optimum;
    the set-up and the solution are built once for both tests."""
    setup, sol = _solved(name)
    return (setup, *optimum_state(setup, sol))


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=BEYOND_ROUNDING[name]))
    if name in BEYOND_ROUNDING else name
    for name in sorted(SCENARIOS)
])
def test_one_round_from_the_optimum_moves_nothing_beyond_rounding(name):
    setup, bids, anchors = at_optimum(name)
    prices = _prices(setup, bids)
    new_bids, _ = _round(setup, prices, bids, anchors, 1.0)
    for span in setup.spans:
        pay = sum(bids[span])
        for old, new in zip(bids[span], new_bids[span]):
            assert abs(new - old) <= ROUNDING * pay, (span, old, new, pay)
    for cid, old, new in zip(setup.cids, prices, _prices(setup, new_bids)):
        if old > PRICE_FLOOR:
            assert abs(new - old) <= ROUNDING * old, (cid, old, new)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_run_from_the_optimum_certifies_in_two_rounds(name):
    setup, bids, anchors = at_optimum(name)
    res = _drive(setup, bids, anchors, EngineConfig())
    assert res.converged and res.rounds == 2


def _bits(*lists):
    return [[x.hex() for x in v] for v in lists]


@pytest.mark.parametrize("name", ["paper R1=50", "small 0-8-3", "paper-split R1=40"])
def test_the_round_is_pure(name):
    setup, bids, anchors = at_optimum(name)
    # a state off the optimum
    bids = [w * (1.0 + 0.01 * (i % 7)) for i, w in enumerate(bids)]
    before = _bits(bids, anchors)
    prices = _prices(setup, bids)
    first = _round(setup, prices, bids, anchors, 0.7)
    second = _round(setup, prices, bids, anchors, 0.7)
    assert _bits(*first) == _bits(*second)
    assert _bits(bids, anchors) == before
    assert _bits(prices) == _bits(_prices(setup, bids))
