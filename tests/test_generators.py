"""The scenario streams of ``tests/generators.py`` stay what they are.

Each generator's scenarios on the seeds that the tests and CI use are pinned
by one SHA-256 over their YAML (``scenario_to_yaml``, which writes every
float to the bit), so a change to a draw, its order or its rounding shows
here before it moves a pinned run.  ``synthetic`` is also checked against
``bench/synthetic.generate``, the copy the benchmark runs, and each
transform against its inverse.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from generators import (
    SMALL_SHAPES,
    ensemble,
    few_carriers,
    flat_stretch,
    in_units,
    multi_carrier,
    overlap_family,
    random_multi_carrier,
    relabelled,
    reordered,
    replicated,
    scarce,
    small_synthetic,
    split_carrier,
    synthetic,
    wide_range,
)
import carrieralloc
from carrieralloc.scenario import build_paper_scenario, scenario_to_yaml

EPS = float(np.finfo(float).eps)
INVARIANCE_POINTS = (20.0, 50.0, 60.0, 100.0, 300.0)
UNITS = (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9)


def _drawn(make, seed, count, name):
    rng = np.random.default_rng(seed)
    return [make(rng, name.format(i)) for i in range(count)]


def _relabelling(scenario, seed):
    uids = [ue.id for ue in scenario.ues]
    return dict(zip(uids, np.random.default_rng(seed).permutation(uids).tolist()))


def _random_multi_carrier_53():
    # after 200 small scenarios, one of 1000 users on 8 carriers
    rng = np.random.default_rng(53)
    return [random_multi_carrier(rng, f"random-{i}", *([8, 1000] if i == 200 else []))
            for i in range(201)]


# what each pinned stream draws, and where it is used
STREAMS = {
    # the fixed-point test, the stability audit and CI
    "synthetic small": lambda: list(small_synthetic().values()),
    # CI's oracle at 10^4 users
    "synthetic 1 x 10^4 x 8": lambda: synthetic(1, 1, 10000, 8),
    "synthetic 1 x 10^4 x 32": lambda: synthetic(1, 1, 10000, 32),
    "scarce 10^4": lambda: [scarce(10000)],
    # the fixed-point test and the stability audit
    "overlap 0 x 100": lambda: list(overlap_family().values()),
    # CI's oracle robustness and test_oracle
    **{f"wide_range {seed} x 300": (lambda seed=seed: _drawn(wide_range, seed, 300, f"wide-{seed}-{{}}"))
       for seed in (1, 2, 3)},
    "wide_range 15 x 100": lambda: _drawn(wide_range, 15, 100, "wide-{}"),
    # test_oracle
    "random_multi_carrier 53 x 201": _random_multi_carrier_53,
    **{f"random_multi_carrier {seed} x 16 x 2000": (
        lambda seed=seed: [random_multi_carrier(np.random.default_rng(seed), f"random-2000-{seed}", 16, 2000)])
       for seed in range(1, 7)},
    "reordered paper R1=150, seed 31": lambda: (lambda rng: [
        reordered(build_paper_scenario(150.0), rng) for _ in range(2)])(np.random.default_rng(31)),
    # test_protocol's pinned runs
    **{f"multi_carrier {key}": (lambda key=key: [multi_carrier(*key)])
       for key in ((7, 3, 8), (2, 4, 12), (1, 5, 16))},
    # test_scenario's file round trip
    "few_carriers 43 x 20": lambda: _drawn(few_carriers, 43, 20, "random-{}"),
    "flat_stretch": lambda: [flat_stretch()],
    # test_invariance and test_fixed_point
    "in_units": lambda: [in_units(build_paper_scenario(r1), s) for r1 in INVARIANCE_POINTS for s in UNITS],
    "split_carrier": lambda: [split_carrier(build_paper_scenario(20.0 + 10.0 * i), n)
                              for i in range(29) for n in (2, 3)],
    "relabelled": lambda: [relabelled(build_paper_scenario(r1), _relabelling(build_paper_scenario(r1), seed))
                           for r1 in INVARIANCE_POINTS for seed in (1, 2)],
    # tests/ensemble_report.py
    "replicated": lambda: [replicated(build_paper_scenario(r1), k) for r1 in INVARIANCE_POINTS
                           for k in (2, 3, 10)],
    "ensemble paper sweep": lambda: [s for i in range(29) for s in ensemble(
        build_paper_scenario(300.0).with_capacity(1, 20.0 + 10.0 * i)).values()],
}

PINS = {
    "synthetic small": "b295160b923fbd403c2a3a0dae7d965546cba68b7bbc1a2e0bfbfe847a68d777",
    "synthetic 1 x 10^4 x 8": "7222a68c4b82af75eb19dc0ab05049f0c0426f0b57d590dac52d7e65c2a2ccfd",
    "synthetic 1 x 10^4 x 32": "cbe2473f6848132d7376b64588076d49a7dd537264c973ab4f1b20898bc19009",
    "scarce 10^4": "1f1a647842f87f5be4b3683b87551b5209fbfbce257558609c11544739b00bd2",
    "overlap 0 x 100": "978679d9100b1ab0e9c3994c4a6c905829986348e4b2c482f88559173856bcfd",
    "wide_range 1 x 300": "8b81a32bb991a4c6106c5566acf16d21dc5c3d1495080614559c70f1297ea935",
    "wide_range 2 x 300": "bcd2b659266cb8ba717557086c4825050d9019200eea320043451b7f79c71649",
    "wide_range 3 x 300": "317701850aeef7864b4783accfd08ffd159d02e773e74e3c6a469d4f381aeb5d",
    "wide_range 15 x 100": "3f6a592cfe5faa8440bedcb72e3368aa1be46a0fc3c26d16734da94dd7663286",
    "random_multi_carrier 53 x 201": "309326fbdd3c4ae06cbe15a39c83c23aa426e9480632eb84874e87593e0ae40e",
    "random_multi_carrier 1 x 16 x 2000": "25c3400643a8320b48d2e4c52cb2684809a77be6ca4c2bf1735c3e393704505e",
    "random_multi_carrier 2 x 16 x 2000": "12083e70e02d2134a4f61f18d8edafc85d4f91b6ea6b27f8816e00f0863a2fbb",
    "random_multi_carrier 3 x 16 x 2000": "2d886dc3fbd8c31cb38c75895ba7b63f85bd164d16059a24a6eb3cfae3726285",
    "random_multi_carrier 4 x 16 x 2000": "5fce4257f8d2c39be7e5a64113ddbdc112d18becf139f2b01757a56f42d703bb",
    "random_multi_carrier 5 x 16 x 2000": "b66e87243b0375473583fbeb27e7fc3412b2f01dc73ec81571ec7ed841d87c79",
    "random_multi_carrier 6 x 16 x 2000": "7557cafb97e1a11d7f07fcf0a635be4a9d58a4ac702e028cf452d7335430f437",
    "reordered paper R1=150, seed 31": "9121ab1323cd8bdad506640557281d5e61964516bdaa87ad91e6268657304819",
    "multi_carrier (7, 3, 8)": "69fd1c3112aae9f4dd25bafc5fe63a2fd9b727cd1b191f9551a34284330f9d72",
    "multi_carrier (2, 4, 12)": "f8efe017f343ccdfbd5cf288747f9c5d3e804f67130108dda5f2d4f5f07ff883",
    "multi_carrier (1, 5, 16)": "7dd057d557d8ab3f675dfb9164454f07d2be969b7767a1a5ede4e1f7c40e8253",
    "few_carriers 43 x 20": "df4c402090ebfd3e71addfcd4734824064642ebb861b44f683da8b9f8dc2f2e4",
    "flat_stretch": "3abd80b953521fe4d35eeaae99e5b10ff03408b5f0e1d2b8b8df85d625e8ecfa",
    "in_units": "5267d6b8110bbdf35c7b41aa814364dcc30e3a85b2771494afcd38097cd67cf9",
    "split_carrier": "8172b76565ba84848f079cc46cca9cf0f3cdf08d06d6dc7cacb1224f9f234e5d",
    "relabelled": "ce2ac742f43f0ddc74cbc76d8c8da894fa35e4aa419bb1e95bd92b30a90ce65a",
    "replicated": "2594cbe276593e5d2b070299094a0b355141c2467152312701faaaa8573eee31",
    "ensemble paper sweep": "a95c629cc3386454af23567dc21285b110e838ee6e18980e306064c1ad7a3add",
}


def _digest(scenarios):
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(scenario_to_yaml(scenario).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_keeps_its_scenarios(name):
    assert _digest(STREAMS[name]()) == PINS[name]


def _bench_synthetic():
    path = Path(__file__).resolve().parents[1] / "bench" / "synthetic.py"
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, count, users, carriers", [
    *((seed, 1, users, carriers) for seed in range(6) for users, carriers in SMALL_SHAPES),
    (1, 1, 10000, 8),
])
def test_synthetic_is_the_benchmark_stream(seed, count, users, carriers):
    ours = synthetic(seed, count, users, carriers)
    bench = _bench_synthetic().generate(carrieralloc, seed, count, users, carriers)
    assert [scenario_to_yaml(s) for s in ours] == [scenario_to_yaml(s) for s in bench]


def _shape(scenario):
    return (
        [c.id for c in scenario.carriers],
        [(ue.id, ue.carriers, type(ue.utility)) for ue in scenario.ues],
    )


def _values(scenario):
    numbers = [c.capacity for c in scenario.carriers]
    for ue in scenario.ues:
        numbers.extend(vars(ue.utility).values())
    return numbers


@pytest.mark.parametrize("s", UNITS + (2.0**-30, 2.0**30))
def test_units_s_then_1_over_s_give_the_scenario_back(s):
    for scenario in (build_paper_scenario(50.0), *small_synthetic().values()):
        back = in_units(in_units(scenario, s), 1.0 / s)
        if s in UNITS:  # within the roundings of x*s, of 1/s and of their product
            assert _shape(back) == _shape(scenario)
            assert _values(back) == pytest.approx(_values(scenario), rel=2.0 * EPS, abs=0.0)
        else:  # a power of 2 scales without rounding
            assert back == scenario


@pytest.mark.parametrize("seed", (1, 2))
def test_a_relabelling_then_its_inverse_give_the_scenario_back(seed):
    for scenario in (build_paper_scenario(50.0), *small_synthetic().values()):
        new_id = _relabelling(scenario, seed)
        other = relabelled(scenario, new_id)
        assert other != scenario
        assert relabelled(other, {new: old for old, new in new_id.items()}) == scenario
