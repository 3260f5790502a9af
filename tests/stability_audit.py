"""Stability audit: the spectral radius of the protocol's plain round at the
oracle's optimum.  It prints one line per scenario and gates nothing.

    PYTHONPATH=src:tests python tests/stability_audit.py

The round maps the state x = (bids, anchor rates) to the next state: the
carriers price the bids (protocol._prices) and the users step against those
prices (protocol._round), at damping 0.7 and with the Anderson mixer off.
Its Jacobian is taken at the oracle's optimum, bids p*·r* and anchors r*, by
central differences of relative step STEP, one-sided (forward) where an
entry is 0, since a negative bid or rate is no state.  The optimum is a
fixed point of the round; a radius above 1 means that it repels the plain
round.  The radii are estimates: the round is not smooth where a link
switches on or off.

Scenarios: the 18 small synthetic ones, the paper at R1 = 45, 50, 300 and
the 100 of the overlap family.  A last line counts the radii above 1.
"""

import time

import numpy as np

from generators import overlap_family, small_synthetic
from helpers import optimum_state
from carrieralloc.oracle import solve_central
from carrieralloc.protocol import _prices, _round, _Setup
from carrieralloc.scenario import build_paper_scenario

DAMPING = 0.7
STEP = 1e-6


def plain_round(setup, x):
    """The state one plain round maps the state ``x`` to."""
    n = len(setup.links)
    bids, anchors = x[:n].tolist(), x[n:].tolist()
    new_bids, new_anchors = _round(setup, _prices(setup, bids), bids, anchors, DAMPING)
    return np.array(new_bids + new_anchors)


def spectral_radius(scenario):
    setup = _Setup(scenario)
    bids, anchors = optimum_state(setup, solve_central(scenario))
    x = np.array(bids + anchors)
    # a zero entry steps by STEP times the largest entry of its half
    scale = np.repeat([max(bids), max(anchors)], len(bids))
    jacobian = np.empty((x.size, x.size))
    for i, xi in enumerate(x):
        h = STEP * (abs(xi) if xi != 0.0 else scale[i])
        up, down = x.copy(), x.copy()
        up[i] += h
        if xi != 0.0:
            down[i] -= h
        jacobian[:, i] = (plain_round(setup, up) - plain_round(setup, down)) / (up[i] - down[i])
    return float(np.max(np.abs(np.linalg.eigvals(jacobian))))


def main():
    families = {
        "small": small_synthetic(),
        "paper": {f"paper R1={r1:g}": build_paper_scenario(r1) for r1 in (45.0, 50.0, 300.0)},
        "overlap": overlap_family(),
    }
    above = {}
    for family, scenarios in families.items():
        above[family] = 0
        for name, scenario in scenarios.items():
            start = time.perf_counter()
            radius = spectral_radius(scenario)
            above[family] += radius > 1.0
            print(f"{name}: spectral radius {radius:.4f} ({time.perf_counter() - start:.2f} s)")
    print("radius above 1:", ", ".join(
        f"{above[family]} of {len(scenarios)} {family}" for family, scenarios in families.items()))


if __name__ == "__main__":
    main()
