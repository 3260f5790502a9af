"""Scenario validation, persistence round-trips, sweeps and CSV output."""

import copy
import csv
import hashlib
import math
import pickle
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml

from generators import few_carriers, in_units
from helpers import count_layouts, paper_sweep_with_nudged_marginals, scenario_yaml_reference
from carrieralloc import scenario as scenario_module
from carrieralloc.cli import main
from carrieralloc.oracle import OracleError, solve_central
from carrieralloc.protocol import EngineConfig, run
from carrieralloc.scenario import (
    RATES_HEADER,
    PRICES_HEADER,
    SUMMARY_HEADER,
    CarrierSpec,
    RunRecord,
    Scenario,
    ScenarioError,
    SweepSpec,
    UESpec,
    build_paper_scenario,
    compare_to_oracle,
    load_scenario,
    load_scenario_document,
    run_point,
    run_sweep,
    save_scenario,
    scenario_to_yaml,
    write_results,
)
from carrieralloc.utility import (
    LogarithmicUtility,
    SigmoidalUtility,
    UtilityDomainError,
    log_utility,
)


def tiny_scenario():
    return Scenario(
        carriers=(CarrierSpec(id=1, capacity=60.0), CarrierSpec(id=2, capacity=40.0)),
        ues=(
            UESpec(id=1, utility=SigmoidalUtility(a=3.0, b=10.0), carriers=(1,)),
            UESpec(id=2, utility=LogarithmicUtility(k=2.0, r_max=80.0), carriers=(2,)),
            UESpec(id=3, utility=LogarithmicUtility(k=0.5, r_max=80.0), carriers=(1, 2)),
        ),
        name="tiny",
    )


# ---------------------------------------------------------------------------
# validation


def test_scenario_rejects_zero_capacity():
    with pytest.raises(ScenarioError):
        Scenario(
            carriers=(CarrierSpec(id=1, capacity=0.0),),
            ues=(UESpec(id=1, utility=LogarithmicUtility(k=1.0, r_max=10.0), carriers=(1,)),),
        )


def test_scenario_rejects_unknown_carrier_reference():
    with pytest.raises(ScenarioError):
        Scenario(
            carriers=(CarrierSpec(id=1, capacity=10.0),),
            ues=(UESpec(id=1, utility=LogarithmicUtility(k=1.0, r_max=10.0), carriers=(1, 9)),),
        )


def test_scenario_rejects_duplicates_and_empty_reach():
    u = LogarithmicUtility(k=1.0, r_max=10.0)
    with pytest.raises(ScenarioError):
        Scenario(
            carriers=(CarrierSpec(id=1, capacity=10.0), CarrierSpec(id=1, capacity=5.0)),
            ues=(UESpec(id=1, utility=u, carriers=(1,)),),
        )
    with pytest.raises(ScenarioError):
        Scenario(
            carriers=(CarrierSpec(id=1, capacity=10.0),),
            ues=(UESpec(id=1, utility=u, carriers=()),),
        )
    one_carrier = (CarrierSpec(id=1, capacity=10.0),)
    for carriers, ues, match in (
        ((), (UESpec(id=1, utility=u, carriers=(1,)),), "at least one carrier"),
        (one_carrier, (), "at least one UE"),
        (one_carrier, (UESpec(id=1, utility=u, carriers=(1,)),) * 2, "duplicate UE ids"),
        (one_carrier, (UESpec(id=1, utility=u, carriers=(1, 1)),), "duplicate carriers"),
    ):
        with pytest.raises(ScenarioError, match=match):
            Scenario(carriers=carriers, ues=ues)


# ---------------------------------------------------------------------------
# the built-in experiment scenario


def test_paper_scenario_structure():
    s = build_paper_scenario(300.0)
    assert len(s.carriers) == 2 and len(s.ues) == 18
    by_id = {u.id: u for u in s.ues}
    assert by_id[13].utility == SigmoidalUtility(a=5.0, b=10.0)
    assert by_id[18].utility == LogarithmicUtility(k=0.5, r_max=100.0)
    assert by_id[5].carriers == (1,)
    for i in range(1, 7):
        assert by_id[i].carriers == (1,)
    for i in range(7, 13):
        assert by_id[i].carriers == (2,)
    for i in range(13, 19):
        assert by_id[i].carriers == (1, 2)
    assert s.carrier(1).capacity == 300.0
    assert s.carrier(2).capacity == 100.0


# ---------------------------------------------------------------------------
# persistence

# sha256 of `carrieralloc paper-scenario --out -`: the file format, byte for byte
PAPER_SCENARIO_SHA256 = "9473dbd42ea63bdbbf3cb0d3f572f57b47ab13242fb4b6b7de00bc2c4a595373"


@pytest.fixture(
    params=[
        pytest.param(
            ("CSafeLoader", "CSafeDumper"),
            id="libyaml",
            marks=pytest.mark.skipif(
                not yaml.__with_libyaml__, reason="PyYAML built without libyaml"
            ),
        ),
        pytest.param(("SafeLoader", "SafeDumper"), id="python"),
    ]
)
def yaml_classes(request, monkeypatch):
    """Scenario files read and written by libyaml's C classes or PyYAML's own
    (named, because without libyaml the C classes do not exist)."""
    loader, dumper = (getattr(yaml, name) for name in request.param)
    monkeypatch.setattr(scenario_module, "_LOADER", loader)
    monkeypatch.setattr(scenario_module, "_DUMPER", dumper)


def test_paper_scenario_file_bytes_are_pinned(yaml_classes, capsys):
    assert main(["paper-scenario", "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == PAPER_SCENARIO_SHA256


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_either_writer_is_read_by_either_reader(monkeypatch, tmp_path):
    # The emitters fold long double-quoted names at different places, so the
    # texts may differ; the documents may not.
    names = ["a: b", "'\"", "yes", "1e3", "", "\u65e5\u672c\n~", "x" * 300 + "\t" + "x" * 300,
             "\x85" + "x" * 300 + " lead"]
    pairs = [(yaml.CSafeLoader, yaml.CSafeDumper), (yaml.SafeLoader, yaml.SafeDumper)]
    path = tmp_path / "s.yaml"
    for name in names:
        s = replace(tiny_scenario(), name=name)
        for _, dumper in pairs:
            monkeypatch.setattr(scenario_module, "_DUMPER", dumper)
            save_scenario(s, path)
            for loader, _ in pairs:
                monkeypatch.setattr(scenario_module, "_LOADER", loader)
                assert load_scenario(path) == s


# names the resolver reads as another type, that need quotes or escapes, or
# that the emitter folds
HOSTILE_NAMES = ["123", "yes", "~", "1e3", "a: b", "#x", "  lead", "\u65e5\u672c \u00e9",
                 "\t\x85" + "x" * 300 + "\\ \"" + "y" * 295]
EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1e16, 1.7976931348623157e308]


def test_writer_matches_the_representer_on_hostile_names(yaml_classes):
    assert len(HOSTILE_NAMES[-1]) == 600
    for name in HOSTILE_NAMES:
        s = replace(tiny_scenario(), name=name)
        assert scenario_to_yaml(s) == scenario_yaml_reference(s, scenario_module._DUMPER), name


def edge_float_scenario():
    """Every carrier capacity and utility parameter one of EDGE_FLOATS."""
    n = len(EDGE_FLOATS)
    return Scenario(
        carriers=tuple(CarrierSpec(id=i + 1, capacity=x) for i, x in enumerate(EDGE_FLOATS)),
        ues=tuple(
            UESpec(id=i + 1, utility=family(x, EDGE_FLOATS[(i + 1) % n]), carriers=(i % n + 1,))
            for family in (SigmoidalUtility, LogarithmicUtility)
            for i, x in enumerate(EDGE_FLOATS, start=n if family is LogarithmicUtility else 0)
        ),
        name="edge",
    )


def test_writer_matches_the_representer_on_edge_floats(yaml_classes, tmp_path):
    s = edge_float_scenario()
    sweep = SweepSpec(carrier_id=2, start=1e-05, stop=1e16, step=0.1)
    text = scenario_to_yaml(s, sweep=sweep)
    assert text == scenario_yaml_reference(s, scenario_module._DUMPER, sweep=sweep)
    path = tmp_path / "edge.yaml"
    save_scenario(s, path, sweep=sweep)
    assert load_scenario_document(path) == scenario_module.ScenarioDocument(s, sweep)


def test_writer_keeps_int_valued_parameters_ints(yaml_classes, tmp_path):
    s = Scenario(
        carriers=(CarrierSpec(id=1, capacity=60),),
        ues=(
            UESpec(id=1, utility=SigmoidalUtility(a=5, b=10), carriers=(1,)),
            UESpec(id=2, utility=LogarithmicUtility(k=3, r_max=100), carriers=(1,)),
        ),
        name="ints",
    )
    sweep = SweepSpec(carrier_id=1, start=10, stop=50, step=10)
    text = scenario_to_yaml(s, sweep=sweep)
    assert text == scenario_yaml_reference(s, scenario_module._DUMPER, sweep=sweep)
    assert "    a: 5\n" in text and "  capacity: 60.0\n" in text and "  from: 10\n" in text
    path = tmp_path / "ints.yaml"
    save_scenario(s, path, sweep=sweep)
    assert load_scenario_document(path) == scenario_module.ScenarioDocument(s, sweep)


def test_untagged_numbers_resolve_to_their_type():
    # the writer writes a number plain without asking the resolver; the
    # loader's resolver must read the text back as the number's type
    resolver = yaml.SafeLoader("")
    s = replace(edge_float_scenario(), name="123")
    sweep = SweepSpec(carrier_id=1, start=-2, stop=1e16, step=0.5)
    root = yaml.compose(scenario_to_yaml(s, sweep=sweep), Loader=yaml.SafeLoader)

    def scalars(node):
        """The value scalars under ``node``, in file order."""
        if isinstance(node, yaml.MappingNode):
            for _, value in node.value:
                yield from scalars(value)
        elif isinstance(node, yaml.SequenceNode):
            for item in node.value:
                yield from scalars(item)
        else:
            yield node

    written = [*(x for c in s.carriers for x in (c.id, c.capacity)),
               *(x for u in s.ues for x in (u.id, *vars(u.utility).values(), *u.carriers)),
               sweep.carrier_id, sweep.start, sweep.stop, sweep.step]
    numbers = [node for node in scalars(root) if node.tag != "tag:yaml.org,2002:str"]
    assert len(numbers) == len(written) == 2 * 6 + 4 * 12 + 4
    for node, value in zip(numbers, written):
        assert node.style is None, node.value  # plain
        assert node.tag == "tag:yaml.org,2002:" + type(value).__name__, node.value
        assert resolver.resolve(yaml.ScalarNode, node.value, (True, False)) == node.tag
    # a string that reads as a number is quoted
    name = root.value[0][1]
    assert name.value == "123" and name.style == "'"


def test_duplicate_keys_are_refused(yaml_classes, tmp_path):
    good = (
        "carriers:\n  - id: 1\n    capacity: 10.0\n  - id: 2\n    capacity: 5.0\nues:\n"
        "  - id: 1\n    utility: {type: logarithmic, k: 1.0, r_max: 10.0}\n    carriers: [1]\n"
    )
    path = tmp_path / "dup.yaml"
    for old, new, key, line in (
        ("capacity: 10.0", "capacity: 10.0\n    capacity: 99.0", "capacity", 4),
        ("  - id: 1\n    utility", "  - id: 1\n    id: 2\n    utility", "id", 8),
        ("k: 1.0,", "k: 1.0, k: 2.0,", "k", 8),
        ("ues:", "name: a\nname: b\nues:", "name", 7),
    ):
        path.write_text(good.replace(old, new))
        with pytest.raises(ScenarioError, match=rf"dup\.yaml: key '{key}' .* line {line}$"):
            load_scenario(path)
    with pytest.raises(ScenarioError, match="--utility: key 'a' written twice"):
        scenario_module.parse_utility("{type: sigmoidal, a: 1, a: 2, b: 3}", "--utility")
    # a key written beside a merge key overrides the merged value
    merged = "  - {<<: &c {id: 2, capacity: 5.0}, capacity: 7.0}"
    path.write_text(good.replace("  - id: 2\n    capacity: 5.0", merged))
    assert load_scenario(path).carrier(2).capacity == 7.0


def test_shared_utility_anchor_loads_and_reports_its_duplicate_once(yaml_classes, tmp_path):
    # the second user's utility is an alias of the first's: one node, walked once
    shared = (
        "carriers:\n  - id: 1\n    capacity: 10.0\nues:\n"
        "  - id: 1\n    utility: &u {type: logarithmic, k: 1.0, r_max: 10.0}\n    carriers: [1]\n"
        "  - id: 2\n    utility: *u\n    carriers: [1]\n"
    )
    path = tmp_path / "shared.yaml"
    path.write_text(shared)
    ues = load_scenario(path).ues
    assert ues[0].utility == ues[1].utility == LogarithmicUtility(k=1.0, r_max=10.0)
    path.write_text(shared.replace("k: 1.0,", "k: 1.0, k: 2.0,"))
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: key 'k' written twice in one mapping, again on line 6"


def test_empty_file_is_refused(yaml_classes, tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ScenarioError, match="empty.yaml: top level must be a mapping"):
        load_scenario(path)


def test_non_scalar_mapping_keys_are_refused(yaml_classes, tmp_path):
    path = tmp_path / "keys.yaml"
    for key in ("[1, 2]", "{a: 1}"):
        path.write_text(f"? {key}\n: 3\ncarriers: []\nues: []\n")
        with pytest.raises(ScenarioError, match="keys.yaml: not valid YAML"):
            load_scenario(path)
    # a mapping written as a key is walked for keys written twice too
    path.write_text("? {a: 1, a: 2}\n: 3\n")
    with pytest.raises(ScenarioError, match="key 'a' written twice in one mapping, again on line 1"):
        load_scenario(path)


def test_bool_capacity_is_refused():
    with pytest.raises(ScenarioError, match="carrier 1: capacity must be a finite number > 0, got True"):
        CarrierSpec(id=1, capacity=True)


def test_string_capacity_is_refused():
    with pytest.raises(ScenarioError, match="carrier 1: capacity must be a finite number > 0, got '5'"):
        CarrierSpec(id=1, capacity="5")


@pytest.mark.parametrize("utility", ["x", None, object(), (1.0, 2.0)])
def test_utility_outside_the_two_families_is_refused(utility):
    # read as parameters 1.0, such a user would be solved as logarithmic(1, 1)
    with pytest.raises(ScenarioError, match="UE 7: utility must be a SigmoidalUtility or a"):
        UESpec(id=7, utility=utility, carriers=(1,))


def test_scenario_name_must_be_a_string():
    with pytest.raises(ScenarioError, match="name must be a string, got 123"):
        replace(tiny_scenario(), name=123)


def test_bool_ids_and_parameters_are_refused():
    for build, match in (
        (lambda: CarrierSpec(id=True, capacity=1.0), "carrier id must be an integer, got True"),
        (lambda: UESpec(id=False, utility=SigmoidalUtility(1.0, 2.0), carriers=(1,)), "UE id"),
        (lambda: UESpec(id=1, utility=SigmoidalUtility(1.0, 2.0), carriers=(True,)), "carrier id"),
        (lambda: SweepSpec(carrier_id=True, start=1.0, stop=2.0, step=1.0), "sweep carrier"),
        (lambda: SweepSpec(carrier_id=1, start=1.0, stop=True, step=1.0), "sweep stop"),
    ):
        with pytest.raises(ScenarioError, match=match):
            build()
    for build in (lambda: SigmoidalUtility(a=True, b=2.0),
                  lambda: LogarithmicUtility(k=1.0, r_max=True)):
        with pytest.raises(UtilityDomainError, match="must be a finite number > 0, got True"):
            build()


_LOG = LogarithmicUtility(k=1.0, r_max=10.0)
_CARRIER, _UE = CarrierSpec(id=1, capacity=5.0), UESpec(id=1, utility=_LOG, carriers=(1,))


@pytest.mark.parametrize("build, match", [
    (lambda: UESpec(id=1, utility=_LOG, carriers=1), "UE 1: carriers must be a tuple, got 1"),
    # a list would leave the frozen spec unhashable, and mutable under its scenario's layout
    (lambda: UESpec(id=1, utility=_LOG, carriers=[1]), r"UE 1: carriers must be a tuple, got \[1\]"),
    (lambda: Scenario(carriers=[_CARRIER], ues=(_UE,)), "carriers must be a tuple, got list"),
    (lambda: Scenario(carriers=(_CARRIER,), ues=[_UE]), "ues must be a tuple, got list"),
], ids=["reach int", "reach list", "carriers list", "ues list"])
def test_spec_containers_must_be_tuples(build, match):
    with pytest.raises(ScenarioError, match=match):
        build()


def test_numpy_scalars_are_written_as_numbers(yaml_classes, tmp_path):
    plain = tiny_scenario()
    s = Scenario(
        carriers=tuple(CarrierSpec(np.int64(c.id), np.float64(c.capacity))
                       for c in plain.carriers),
        ues=tuple(
            UESpec(np.int64(ue.id),
                   type(ue.utility)(*map(np.float64, vars(ue.utility).values())),
                   tuple(map(np.int32, ue.carriers)))
            for ue in plain.ues
        ),
        name="tiny",
    )
    path = tmp_path / "numpy.yaml"
    save_scenario(s, path)
    assert path.read_text() == scenario_to_yaml(plain)
    assert load_scenario(path) == plain


def test_save_load_round_trip(yaml_classes, tmp_path):
    s = tiny_scenario()
    path = tmp_path / "tiny.yaml"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_save_load_round_trip_random_scenarios(yaml_classes, tmp_path):
    rng = np.random.default_rng(43)
    for trial in range(20):
        s = few_carriers(rng, f"random-{trial}")
        path = tmp_path / f"s{trial}.yaml"
        save_scenario(s, path)
        assert load_scenario(path) == s


def test_document_engine_and_sweep_sections(yaml_classes, tmp_path):
    s = tiny_scenario()
    path = tmp_path / "doc.yaml"
    save_scenario(s, path, sweep=SweepSpec(carrier_id=1, start=10.0, stop=50.0, step=10.0))
    doc = load_scenario_document(path)
    assert doc.scenario == s
    assert doc.sweep == SweepSpec(carrier_id=1, start=10.0, stop=50.0, step=10.0)
    # engine settings are EngineConfig's alone: a file that still has the
    # engine section older writers emitted is refused, not run on defaults
    path.write_text(path.read_text() + "engine:\n  delta: 0.001\n  max_rounds: 10000\n")
    with pytest.raises(ScenarioError, match=r"doc\.yaml: unknown key 'engine'"):
        load_scenario_document(path)


def test_load_errors_carry_context(yaml_classes, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("carriers:\n  - id: 1\n    capacity: 0.0\nues:\n  - id: 1\n    utility: {type: logarithmic, k: 1.0, r_max: 10.0}\n    carriers: [1]\n")
    with pytest.raises(ScenarioError, match="capacity"):
        load_scenario(bad)
    bad.write_text("ues: []\n")
    with pytest.raises(ScenarioError, match="carriers"):
        load_scenario(bad)
    # the wrong shape at each level of the document
    for text, match in (
        ("- carriers: []\n", "top level must be a mapping"),
        ("carriers: {id: 1}\nues: []\n", "must be lists"),
        ("carriers: [7]\nues: []\n", r"carriers\[0\]: must be a mapping"),
    ):
        bad.write_text(text)
        with pytest.raises(ScenarioError, match=match):
            load_scenario(bad)
    bad.write_text("carriers: [\n")
    # the two parsers word the error differently, but both give its mark
    with pytest.raises(ScenarioError, match="not valid YAML") as info:
        load_scenario(bad)
    assert "line 2, column 1" in str(info.value)
    bad.write_text(
        "carriers:\n  - id: 1\n    capacity: 10.0\nues:\n  - id: 1\n    utility: {type: cubic}\n    carriers: [1]\n"
    )
    with pytest.raises(ScenarioError, match="ues\\[0\\]"):
        load_scenario(bad)
    bad.write_text(
        "carriers:\n  - id: 1\n    capacity: 10.0\nues:\n  - id: 1\n    utility: {type: logarithmic, k: 1.0, r_max: 10.0}\n    carriers: [1]\nengine: [1, 2]\n"
    )
    with pytest.raises(ScenarioError, match="engine"):
        load_scenario(bad)
    # an engine section of any contents is a key the format does not define
    for engine in ("{max_rounds: true}", "{anchor_gain: 0.3}"):
        bad.write_text(
            "carriers:\n  - id: 1\n    capacity: 10.0\nues:\n  - id: 1\n    utility: {type: logarithmic, k: 1.0, r_max: 10.0}\n    carriers: [1]\n"
            f"engine: {engine}\n"
        )
        with pytest.raises(ScenarioError, match="engine"):
            load_scenario(bad)
    # a boolean, a fractional id or reach entry, or an infinite sweep bound
    good = (
        "carriers:\n  - id: 1\n    capacity: 10.0\nues:\n  - id: 1\n"
        "    utility: {type: logarithmic, k: 1.0, r_max: 10.0}\n    carriers: [1]\n"
        "sweep: {carrier: 1, from: 5, to: 10, step: 5}\n"
    )
    bad.write_text(good)
    load_scenario_document(bad)
    # a number written as a string is refused, whether quoted or one that
    # YAML 1.1 reads as a string (1e3 has no dot); the CLI exits 1 on it
    for old, new, where in (
        ("id: 1\n    capacity", 'id: "1"\n    capacity', r"carriers\[0\]: id must be int, got '1'"),
        ("capacity: 10.0", 'capacity: "10.0"', r"carriers\[0\]: capacity must be float"),
        ("capacity: 10.0", "capacity: 1e3", r"carriers\[0\]: capacity must be float, got '1e3'"),
        ("carriers: [1]", 'carriers: ["1"]', r"ues\[0\]: carriers must be int"),
        ("k: 1.0", 'k: "1.0"', r"ues\[0\]: k must be float"),
        ("step: 5", "step: '5'", "sweep: step must be float"),
    ):
        bad.write_text(good.replace(old, new))
        with pytest.raises(ScenarioError, match=where):
            load_scenario_document(bad)
        capsys.readouterr()
        assert main(["run", "--scenario", str(bad)]) == 1, new
        captured = capsys.readouterr()
        assert captured.out == "" and "must be" in captured.err, new
    for old, new, where in (
        ("capacity: 10.0", "capacity: true", r"carriers\[0\]: capacity"),
        ("id: 1\n    capacity", "id: 2.7\n    capacity", r"carriers\[0\]: id"),
        ("id: 1\n    utility", "id: 2.7\n    utility", r"ues\[0\]: id"),
        ("id: 1\n    utility", "id: true\n    utility", r"ues\[0\]: id"),
        ("carriers: [1]", "carriers: [true]", r"ues\[0\]: carriers"),
        ("carriers: [1]", "carriers: [1.5]", r"ues\[0\]: carriers"),
        ("carriers: [1]", 'carriers: "1"', r"ues\[0\]: carriers must be a list"),
        ("k: 1.0", "k: true", r"ues\[0\]: k"),
        ("r_max: 10.0", "r_max: false", r"ues\[0\]: r_max"),
        ("carrier: 1,", "carrier: true,", "sweep: carrier"),
        ("from: 5", "from: false", "sweep: from"),
        ("step: 5", "step: true", "sweep: step"),
        ("to: 10", "to: .inf", "sweep: sweep stop must be finite"),
        # a key the format does not define, at each level
        ("sweep:", "sweeep:", r"bad\.yaml: unknown key 'sweeep'"),
        ("sweep:", "engnie: {max_rounds: 3}\nsweep:", r"bad\.yaml: unknown key 'engnie'"),
        ("capacity: 10.0", "capacity: 10.0\n    capcity: 99", r"carriers\[0\]: unknown key 'capcity'"),
        ("r_max: 10.0}", "r_max: 10.0, kk: 3}", r"ues\[0\]: unknown key 'kk'"),
        ("carriers: [1]", "carriers: [1]\n    prio: 2", r"ues\[0\]: unknown key 'prio'"),
        # a name YAML does not read as a string
        *(("sweep:", f"name: {name}\nsweep:", r"bad\.yaml: name must be a string")
          for name in ("[1, 2]", "null", "true", "123", "{a: 1}")),
    ):
        bad.write_text(good.replace(old, new))
        with pytest.raises(ScenarioError, match=where):
            load_scenario_document(bad)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_values_inclusive_endpoints():
    spec = SweepSpec(carrier_id=1, start=20.0, stop=300.0, step=10.0)
    values = spec.values()
    assert len(values) == 29
    assert values[0] == 20.0 and values[-1] == 300.0


def test_sweep_spec_validation():
    with pytest.raises(ScenarioError):
        SweepSpec(carrier_id=1, start=10.0, stop=5.0, step=1.0)
    with pytest.raises(ScenarioError):
        SweepSpec(carrier_id=1, start=10.0, stop=20.0, step=0.0)
    # a step so small (or a range so wide) that the point count overflows
    for start, stop, step in ((20.0, 300.0, 1e-320), (-1e308, 1e308, 1.0)):
        with pytest.raises(ScenarioError, match="no finite point count"):
            SweepSpec(carrier_id=1, start=start, stop=stop, step=step)
    for field, value in (("start", math.nan), ("stop", math.inf), ("step", math.nan),
                         ("step", math.inf), ("start", -math.inf)):
        bounds = {"start": 10.0, "stop": 20.0, "step": 1.0, field: value}
        with pytest.raises(ScenarioError, match=f"sweep {field} must be finite"):
            SweepSpec(carrier_id=1, **bounds)


def test_run_sweep_order_and_verification():
    s = tiny_scenario()
    sweep = SweepSpec(carrier_id=1, start=20.0, stop=60.0, step=20.0)
    records = run_sweep(s, sweep, EngineConfig(), verify=True)
    assert [r.sweep_value for r in records] == [20.0, 40.0, 60.0]
    for rec in records:
        assert rec.result is not None and rec.result.converged
        assert rec.oracle is not None and rec.comparison is not None
        assert rec.comparison.passed, (rec.sweep_value, rec.comparison)


def test_a_verified_sweep_point_lays_its_scenario_out_once(monkeypatch):
    paper = build_paper_scenario()
    built = count_layouts(monkeypatch)
    (record,) = run_sweep(paper, SweepSpec(carrier_id=1, start=130.0, stop=130.0, step=10.0),
                          verify=True)
    assert record.comparison.passed
    # the point's protocol run, oracle solve and comparison share its one layout
    assert len(built) == 1 and built[0].carrier(1).capacity == 130.0


def test_a_changed_scenario_lays_out_its_own_arrays():
    paper = build_paper_scenario()
    caps = paper.layout.caps.tolist()
    row = paper.layout.row[1]
    for changed in (paper.with_capacity(1, 77.0),
                    replace(paper, carriers=tuple(replace(c, capacity=77.0) if c.id == 1 else c
                                                  for c in paper.carriers))):
        assert changed.layout is not paper.layout
        assert changed.layout.caps.tolist() == caps[:row] + [77.0] + caps[row + 1:]
        assert paper.layout.caps.tolist() == caps
    # the layout is no field: equality, hashing, repr and the file ignore it
    again = build_paper_scenario()
    assert again == paper and hash(again) == hash(paper) and again.layout is not paper.layout
    assert "layout" not in repr(paper) and "layout" not in scenario_to_yaml(paper)


@pytest.mark.parametrize("copy_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_scenario_keeps_a_read_only_layout(copy_of):
    # the copy is built through the constructor again, so it is validated and laid out anew
    paper = build_paper_scenario()
    again = copy_of(paper)
    assert again == paper and again.layout is not paper.layout
    assert again.layout.caps.tolist() == paper.layout.caps.tolist()
    for array in (again.layout.caps, again.layout.mask, *again.layout.params):
        assert not array.flags.writeable


@pytest.fixture(scope="module")
def paper_300():
    s = build_paper_scenario(300.0)
    return s, run(s), solve_central(s)


def _one_total_times(res, scenario, uid, factor):
    """``res`` with user ``uid``'s rates, total and objective times ``factor``."""
    rates = {k: r * factor if k[1] == uid else r for k, r in res.rates.items()}
    totals = {**res.totals, uid: res.totals[uid] * factor}
    utility = {ue.id: ue.utility for ue in scenario.ues}
    objective = sum(log_utility(utility[i], t) for i, t in totals.items())
    return replace(res, rates=rates, totals=totals, objective=objective)


@pytest.mark.parametrize("uid", range(1, 19))
def test_verify_catches_one_total_short_by_half_a_percent(paper_300, uid):
    # A feasible point 0.5% short for one user: P(T*) - P(T) exceeds the
    # protocol's gap plus the budget, the interval's upper end.
    s, res, sol = paper_300
    assert compare_to_oracle(res, sol, s, EngineConfig().delta).passed
    short = _one_total_times(res, s, uid, 0.995)
    assert not compare_to_oracle(short, sol, s, EngineConfig().delta).passed


@pytest.mark.parametrize("uid", range(1, 19))
def test_verify_catches_one_total_over_by_half_a_percent(paper_300, uid):
    # 0.5% over for one user overloads a carrier, and the objective rises
    # above the oracle's: the oracle's lies below -budget, the lower end.
    s, res, sol = paper_300
    over = _one_total_times(res, s, uid, 1.005)
    report = compare_to_oracle(over, sol, s, EngineConfig().delta)
    assert sol.objective - over.objective < -report.budget and not report.passed


@pytest.fixture(scope="module")
def paper_300_in_small_units():
    # In units s = 1e-6 every rate is below the 0.01 that splits the KKT
    # check's active links from its inactive ones
    s = in_units(build_paper_scenario(300.0), 1e-6)
    return compare_to_oracle(run(s), solve_central(s), s, EngineConfig().delta)


def test_verify_passes_the_paper_point_in_small_units(paper_300_in_small_units):
    # the protocol's gap certifies, and its objective is the oracle's
    assert paper_300_in_small_units.passed


# The inactive residuals hold at 10 * delta only by path (CHANGES.md, FOUND
# on the tests that hold by path)
SMALL_UNITS_KKT_BY_PATH = (
    "the KKT inactive residual reads 0.0114 against the diagnostic's 0.01 "
    "(10 * delta), while compare_to_oracle passes"
)


@pytest.mark.xfail(strict=True, reason=SMALL_UNITS_KKT_BY_PATH)
def test_the_paper_point_in_small_units_passes_the_kkt_diagnostic(paper_300_in_small_units):
    assert paper_300_in_small_units.kkt.passed


# The paper sweep's rounds and rates, pinned bit for bit.  Round counts are
# chaotic in the last bit of a user's demand, so any change to the float work
# of the protocol path shows here and must re-baseline these numbers
# explicitly.  Bit identity is promised within one Python minor version only.
PAPER_SWEEP_ROUNDS = [
    46, 46, 87, 325, 55, 42, 41, 42, 42, 45, 46, 46, 46, 44, 45,
    43, 46, 45, 41, 38, 37, 37, 36, 36, 36, 36, 36, 36, 36,
]
# New baselines: when every protocol sum over users became exactly rounded
# (math.fsum), 1917/688 rounds became 1889/592; when every user's first step
# became anchored at the even split, 1889/592 became 1537/325.
PAPER_SWEEP_RATES_SHA256 = "deadb0e8867af16dbf6fa4b17649710d77085337d75b1e27362244729d275d50"


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the pinned bits are CPython 3.11's",
)
def test_paper_sweep_rounds_and_rates_are_pinned():
    sweep = SweepSpec(carrier_id=1, start=20.0, stop=300.0, step=10.0)
    records = run_sweep(build_paper_scenario(300.0), sweep, EngineConfig())
    rounds = [rec.result.rounds for rec in records]
    assert (sum(rounds), max(rounds)) == (1537, 325)
    assert rounds == PAPER_SWEEP_ROUNDS
    digest = hashlib.sha256()
    for rec in records:
        for link in sorted(rec.result.rates):
            digest.update(struct.pack("<d", rec.result.rates[link]))
    assert digest.hexdigest() == PAPER_SWEEP_RATES_SHA256


# A one-ulp nudge of the marginal stands for any change to the protocol's
# bits.  It moves the near-tie point R1=50 (325 rounds as pinned) by up to 7x,
# and no other point by 5%: +1 ulp gives 238 rounds there, -1 ulp 2,283.
PINNED_BITS = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the pinned bits are CPython 3.11's",
)
R1_50 = (50 - 20) // 10  # its index in the sweep
NEAR_TIE_SLOW_MODE = (
    "R1=50 sits on the near-tie band's slow mode (ROADMAP item 14): two flat "
    "users trade total at one price, and its round count is chaotic in the "
    "last bit of a marginal"
)


@pytest.fixture(scope="module", params=[math.inf, -math.inf], ids=["+1ulp", "-1ulp"])
def nudged_sweep(request):
    return paper_sweep_with_nudged_marginals(request.param)


@PINNED_BITS
def test_a_one_ulp_nudge_of_the_marginal_moves_no_point_but_r1_50(nudged_sweep):
    assert all(certified for _, certified in nudged_sweep)
    for i, ((rounds, _), pinned) in enumerate(zip(nudged_sweep, PAPER_SWEEP_ROUNDS)):
        if i != R1_50:
            assert abs(rounds - pinned) <= 0.05 * pinned, (20 + 10 * i, rounds)


@PINNED_BITS
@pytest.mark.xfail(strict=True, reason=NEAR_TIE_SLOW_MODE)
def test_a_one_ulp_nudge_of_the_marginal_keeps_r1_50(nudged_sweep):
    assert abs(nudged_sweep[R1_50][0] - 325) <= 0.05 * 325


def test_run_sweep_records_per_point_failures(tmp_path):
    s = tiny_scenario()
    sweep = SweepSpec(carrier_id=1, start=20.0, stop=40.0, step=20.0)
    records = run_sweep(s, sweep, EngineConfig(max_rounds=1))
    assert all(rec.error is not None for rec in records)
    assert all(rec.result is not None and not rec.result.converged for rec in records)
    # error texts survive summary.csv whole, whatever characters they hold
    records.append(RunRecord(sweep_value=60.0, error='ValueError: "x", then y'))
    paths = write_results(records, tmp_path)
    with open(paths["summary"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert None not in row and len(row) == 14
        assert row["error"] == rec.error
        # the protocol's final gap is written even without a verdict
        gap = "" if rec.result is None else repr(rec.result.duality_gap)
        assert (row["duality_gap"], row["verified"]) == (gap, "")


def test_run_point_joins_protocol_and_oracle_errors(monkeypatch):
    def failing_oracle(scenario):
        raise OracleError("price clearing did not converge in 200 steps")

    monkeypatch.setattr(scenario_module, "solve_central", failing_oracle)
    s = tiny_scenario()
    converged = run_point(s, 20.0, EngineConfig(), verify=True)
    assert converged.result.converged and converged.sweep_value == 20.0
    assert converged.error == "oracle: price clearing did not converge in 200 steps"
    stalled = run_point(s, 20.0, EngineConfig(max_rounds=1), verify=True)
    assert stalled.error.startswith("no convergence after 1 rounds")
    assert stalled.error.endswith(") oracle: price clearing did not converge in 200 steps")


def test_unknown_utility_object_is_not_written():
    s = tiny_scenario()
    with pytest.raises(ScenarioError, match="UE 1: utility must be a SigmoidalUtility or a"):
        replace(s.ues[0], utility=object())


def test_run_sweep_unknown_carrier():
    with pytest.raises(ScenarioError):
        run_sweep(tiny_scenario(), SweepSpec(carrier_id=9, start=1.0, stop=2.0, step=1.0), EngineConfig())


# ---------------------------------------------------------------------------
# result files


def test_write_results_headers_and_counts(tmp_path):
    s = tiny_scenario()
    sweep = SweepSpec(carrier_id=1, start=20.0, stop=60.0, step=20.0)
    records = run_sweep(s, sweep, EngineConfig(), verify=True)
    paths = write_results(records, tmp_path / "out")

    rates_lines = paths["rates"].read_text().splitlines()
    assert rates_lines[0] == RATES_HEADER
    in_range_pairs = sum(len(u.carriers) for u in s.ues)  # 4
    assert len(rates_lines) == 1 + len(records) * in_range_pairs

    prices_lines = paths["prices"].read_text().splitlines()
    assert prices_lines[0] == PRICES_HEADER
    assert len(prices_lines) == 1 + len(records) * len(s.carriers)

    summary_lines = paths["summary"].read_text().splitlines()
    assert summary_lines[0] == SUMMARY_HEADER
    assert len(summary_lines) == 1 + len(records)
    with open(paths["summary"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, rec in zip(rows, records):
        assert float(row["duality_gap"]) == rec.result.duality_gap
        assert row["verified"] == str(rec.comparison.passed) == "True"


def test_write_results_round_trip_exact(tmp_path):
    s = tiny_scenario()
    records = run_sweep(s, SweepSpec(carrier_id=1, start=30.0, stop=30.0, step=10.0), EngineConfig())
    paths = write_results(records, tmp_path)
    result = records[0].result
    for line in paths["rates"].read_text().splitlines()[1:]:
        sv, cid, uid, rate, bid = line.split(",")
        assert float(sv) == records[0].sweep_value
        assert float(rate) == result.rates[(int(cid), int(uid))]
        assert float(bid) == result.bids[(int(cid), int(uid))]
    for line in paths["prices"].read_text().splitlines()[1:]:
        sv, cid, price, rounds, converged = line.split(",")
        assert float(price) == result.prices[int(cid)]
        assert int(rounds) == result.rounds
        assert converged == str(result.converged)


def test_write_results_empty_records_gives_headers_only(tmp_path):
    paths = write_results([], tmp_path)
    assert paths["rates"].read_text() == RATES_HEADER + "\n"
    assert paths["prices"].read_text() == PRICES_HEADER + "\n"
    assert paths["summary"].read_text() == SUMMARY_HEADER + "\n"


def test_write_results_unopenable_file_reports_path(tmp_path):
    (tmp_path / "prices.csv").mkdir()
    with pytest.raises(OSError, match=r"cannot write .*prices\.csv: "):
        write_results([], tmp_path)


def test_write_results_bad_directory_reports_path(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("а file, not a directory")
    with pytest.raises(OSError, match="blocker"):
        write_results([], blocker / "sub")
