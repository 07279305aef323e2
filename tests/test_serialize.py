import dataclasses
import io
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stodep
from stodep import (
    BudgetedLinearFunction,
    ConfigError,
    CoverageFunction,
    FingerprintMismatch,
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    SetFunctionEvaluator,
    SubmodularReward,
    instance_fingerprint,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from stodep.apps import (
    AdwordsParams,
    build_adwords_instance,
    build_set_cover_instance,
    build_worst_case_instance,
    random_linear_decaying_instance,
    random_submodular_instance,
)

from conftest import make_instance, small_instances
from oracles import fingerprint_oracle


def roundtrip(instance):
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))


@pytest.mark.parametrize("builder_seed", [0, 1, 2])
def test_round_trip_is_bit_exact(builder_seed):
    for inst in (
        random_submodular_instance(builder_seed),
        random_linear_decaying_instance(builder_seed),
    ):
        again = roundtrip(inst)
        assert np.array_equal(inst.schedule, again.schedule)
        assert instance_fingerprint(inst) == instance_fingerprint(again)
        # a second cycle stays fixed
        assert instance_fingerprint(roundtrip(again)) == instance_fingerprint(inst)


def test_round_trip_every_reward_kind(tmp_path):
    instances = {
        "linear": build_set_cover_instance(["a"], [["a"]], 1),
        "linear_decaying": random_linear_decaying_instance(5),
        "worst_case": build_worst_case_instance(0.1),
    }
    instances["budgeted"] = build_adwords_instance(
        AdwordsParams(
            num_advertisers=2,
            num_keywords=1,
            budgets=(1.0, math.inf),
            valuations=((1.0,), (2.0,)),
            keyword_sequence=(0,),
            slot_cap=1,
            click_probs=[[0.5], [0.25]],
        )
    )
    table = {((1,), (0,), 0): 1.0, ((1,), (1,), 0): 0.0, ((0,), (0,), 0): 0.0}
    instances["tabulated"] = make_instance(
        capacities=(1,), horizon=1, schedule=[[[0.5]]], reward=GeneralTabulatedReward(table)
    )
    for name, inst in instances.items():
        path = tmp_path / f"{name}.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert instance_fingerprint(loaded) == instance_fingerprint(inst), name
        assert type(loaded.reward).__name__ == type(inst.reward).__name__


def test_infinite_budget_round_trips_as_null():
    inst = build_adwords_instance(
        AdwordsParams(
            num_advertisers=1,
            num_keywords=1,
            budgets=(math.inf,),
            valuations=((1.0,),),
            keyword_sequence=(0,),
            slot_cap=1,
            click_probs=[[0.5]],
        )
    )
    payload = instance_to_dict(inst)
    assert payload["reward"]["budgets"] == [None]
    assert roundtrip(inst).reward.evaluator.budgets == (math.inf,)


def test_loader_rejects_invalid_instances(tmp_path):
    inst = build_worst_case_instance(0.1)
    payload = instance_to_dict(inst)
    payload["schedule"][0][0][0] = 1.3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        load_instance(path)
    # validation can be bypassed explicitly
    loaded = load_instance(path, validate=False)
    assert not stodep.validate_instance(loaded).passed


def test_custom_evaluator_is_not_serializable():
    inst = make_instance(
        capacities=(1,),
        horizon=1,
        schedule=[[[0.5]]],
        reward=SubmodularReward(lambda y: float(sum(y)), label="adhoc"),
    )
    with pytest.raises(ConfigError):
        instance_to_dict(inst)
    # but fingerprinting still works, through its values
    assert len(instance_fingerprint(inst)) == 64


def test_custom_evaluators_fingerprint_by_their_values():
    def build(fn):
        return make_instance(
            capacities=(1, 1),
            horizon=1,
            schedule=[[[0.5, 0.5]]],
            reward=SubmodularReward(SetFunctionEvaluator(fn)),  # both keep the default label
        )

    a = build(lambda s: float(len(s)))
    b = build(lambda s: 2.0 * len(s))
    assert instance_fingerprint(a) != instance_fingerprint(b)
    assert instance_fingerprint(a) == instance_fingerprint(build(lambda s: float(len(s))))
    with pytest.raises(FingerprintMismatch):
        stodep.check_vfm(b, stodep.solve_clairvoyant(a))


def test_fingerprints_are_pinned():
    # Tables saved earlier stay bound to their instances only while these
    # digests hold: every reward route, a custom evaluator, windows, metadata.
    custom = make_instance(
        capacities=(1, 1), horizon=1, schedule=[[[0.5, 0.5]]],
        reward=SubmodularReward(SetFunctionEvaluator(lambda s: float(len(s)))),
    )
    windowed = make_instance(
        capacities=(1,), horizon=3, schedule=[[[0.0]], [[0.4]], [[0.0]]],
        reward=stodep.LinearReward((1.0,)), arrivals=(1,), deadlines=(2,),
        metadata={"app": "x", "k": [1, 2]},
    )
    tabulated = make_instance(
        capacities=(1,), horizon=1, schedule=[[[0.5]]],
        reward=GeneralTabulatedReward.from_potential(lambda y: float(y[0]), (1,), 1),
    )
    instances = (build_worst_case_instance(0.1), custom, windowed, tabulated)
    digests = [instance_fingerprint(i)[:16] for i in instances]
    assert digests == [fingerprint_oracle(i)[:16] for i in instances]
    assert digests == [
        "233fcfd479261a64", "017b1718fab7dd4d", "8b1cf7fc71d6611f", "98ee425583a26937",
    ]


def _every_reward_kind():
    """One instance per reward kind, plus one with windows and one with nested metadata."""
    adwords = build_adwords_instance(
        AdwordsParams(
            num_advertisers=2,
            num_keywords=1,
            budgets=(1.0, math.inf),
            valuations=((1.0,), (2.0,)),
            keyword_sequence=(0,),
            slot_cap=1,
            click_probs=[[0.5], [0.25]],
        )
    )
    schedule = [[[0.5, 0.0], [0.25, 1.0]], [[-0.0, 0.75], [0.125, 0.5]]]

    def build(reward, **kwargs):
        return make_instance(capacities=(2, 1), horizon=2, schedule=schedule, reward=reward,
                             **kwargs)

    coverage = CoverageFunction(3, (frozenset({0, 2}), frozenset({1})), (1.0, 0.5, 0.1))
    return {
        "linear": build(LinearReward((1.0, -0.0))),
        "linear_decaying": build(LinearDecayingReward(((1.0, 0.5), (0.3, 0.1)))),
        "coverage": build(SubmodularReward(coverage)),
        "budgeted": adwords,
        "custom": build(SubmodularReward(lambda y: float(len(y)) + 0.5 * y[0], label="adhoc")),
        "tabulated": build(GeneralTabulatedReward.from_potential(coverage, (2, 1), 2)),
        "windowed": build(LinearReward((1.0, 2.0)), arrivals=(0, 1), deadlines=(2, 1)),
        "nested-metadata": build(LinearReward((1.0, 2.0)), metadata={
            "app": "test", "trace": [[1, 2], [3]], "nested": {"k": 1, "z": [0.5, None]},
        }),
    }


@pytest.mark.parametrize("name", sorted(_every_reward_kind()))
def test_fingerprint_matches_the_oracle(name):
    inst = _every_reward_kind()[name]
    assert instance_fingerprint(inst) == fingerprint_oracle(inst)


@settings(max_examples=40, deadline=None)
@given(inst=small_instances())
def test_fingerprint_of_random_instances_matches_the_oracle(inst):
    assert instance_fingerprint(inst) == fingerprint_oracle(inst)


def _nudged(reward, step):
    """The reward with one float changed by step(value)."""
    if isinstance(reward, LinearReward):
        return LinearReward((step(reward.weights[0]), *reward.weights[1:]))
    if isinstance(reward, LinearDecayingReward):
        first, *rest = reward.weights
        return LinearDecayingReward(((step(first[0]), *first[1:]), *rest))
    if isinstance(reward, GeneralTabulatedReward):
        (*key, value), *rest = reward.spec_dict()["entries"]
        return GeneralTabulatedReward.from_entries([[*key, step(value)], *rest])
    ev = reward.evaluator
    if isinstance(ev, CoverageFunction):
        weights = (step(ev.element_weights[0]), *ev.element_weights[1:])
        return SubmodularReward(CoverageFunction(ev.num_elements, ev.covers, weights))
    values = (step(ev.values[0]), *ev.values[1:])
    return SubmodularReward(BudgetedLinearFunction(ev.budgets, values, ev.groups))


def _tuples(value):
    """JSON data with every list turned into a tuple."""
    if isinstance(value, dict):
        return {k: _tuples(v) for k, v in value.items()}
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


@settings(max_examples=80, deadline=None)
@given(inst=small_instances(), data=st.data())
def test_fingerprint_tells_instances_apart(inst, data):
    base = dataclasses.replace(inst, metadata={"app": "test", "k": [1, 2]})
    T, A, M = base.schedule.shape
    cell = tuple(data.draw(st.integers(0, n - 1)) for n in (T, A, M))
    zero = base.schedule.copy()
    zero[cell] = 0.0
    base = dataclasses.replace(base, schedule=zero)
    up = math.nextafter  # one ulp

    def schedule_with(value):
        schedule = base.schedule.copy()
        schedule[cell] = value
        return dataclasses.replace(base, schedule=schedule)

    windows = {"arrivals": (0,) * M, "deadlines": (T,) * M}
    if base.arrivals is not None:
        windows = {"arrivals": base.arrivals, "deadlines": (T + 1,) + base.deadlines[1:]}
    changes = {
        "schedule-ulp": lambda: schedule_with(up(0.0, 1.0)),
        "reward-ulp": lambda: dataclasses.replace(
            base, reward=_nudged(base.reward, lambda v: up(v, math.inf))),
        "negative-zero": lambda: schedule_with(-0.0),
        "metadata": lambda: dataclasses.replace(base, metadata={"app": "test", "k": [1, 3]}),
        "windows": lambda: dataclasses.replace(base, **windows),
    }
    if A > 1:
        names = list(base.activities)
        names[0], names[1] = names[1], names[0]
        changes["swapped-names"] = lambda: dataclasses.replace(base, activities=names)
    if isinstance(base.reward, GeneralTabulatedReward):
        changes["tabulated-value"] = lambda: dataclasses.replace(
            base, reward=_nudged(base.reward, lambda v: v + 1.0))
    change = data.draw(st.sampled_from(sorted(changes)))
    assert instance_fingerprint(changes[change]()) != instance_fingerprint(base)

    saved = io.StringIO()
    save_instance(base, saved)
    saved.seek(0)
    assert instance_fingerprint(load_instance(saved)) == instance_fingerprint(base)
    plain = instance_to_dict(base)
    if isinstance(base.reward, GeneralTabulatedReward):
        plain["reward"]["entries"].reverse()
    for rebuilt in (instance_from_dict(plain), instance_from_dict(_tuples(plain))):
        assert instance_fingerprint(rebuilt) == instance_fingerprint(base)


def test_missing_field_reported():
    with pytest.raises(ConfigError):
        instance_from_dict({"num_types": 1})


def test_save_load_save_is_byte_identical(tmp_path):
    inst = build_set_cover_instance(["a", "b", "c"], [["a", "b"], ["b", "c"]], 2)
    assert inst.metadata["cover_sets"]  # nested lists
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_instance(inst, first)
    save_instance(load_instance(first), second)
    assert first.read_bytes() == second.read_bytes()
    # One line per top-level field of the plain dict form (whose metadata
    # holds lists), keys sorted, each value in compact JSON.
    plain = instance_to_dict(inst)
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(plain.items())]
    assert first.read_text() == "{\n" + ",\n".join(lines) + "\n}\n"
    assert instance_fingerprint(load_instance(first)) == instance_fingerprint(inst)


SERIALIZABLE = sorted(set(_every_reward_kind()) - {"custom"})


@pytest.mark.parametrize("name", SERIALIZABLE)
def test_every_kind_saves_loads_and_saves_the_same_bytes(name):
    inst = _every_reward_kind()[name]
    first, second = io.StringIO(), io.StringIO()
    save_instance(inst, first)
    first.seek(0)
    loaded = load_instance(first, validate=False)  # the layout, not the data, is under test
    save_instance(loaded, second)
    assert first.getvalue() == second.getvalue()
    assert first.getvalue().count("\n") == len(instance_to_dict(inst)) + 2
    assert instance_fingerprint(loaded) == instance_fingerprint(inst)


@pytest.mark.parametrize("name", SERIALIZABLE)
def test_files_in_the_indented_layout_still_load(name):
    inst = _every_reward_kind()[name]
    old = io.StringIO(json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n")
    assert instance_fingerprint(load_instance(old, validate=False)) == instance_fingerprint(inst)


def test_instances_pickle_without_their_derived_data():
    inst = build_set_cover_instance(["a", "b", "c"], [["a", "b"], ["b", "c"]], 2)
    tab = make_instance(
        capacities=(1,), horizon=1, schedule=[[[0.5]]],
        reward=GeneralTabulatedReward.from_potential(lambda y: float(y[0]), (1,), 1),
    )
    for original in (inst, tab):
        stodep.solve_clairvoyant(original)  # computes the fingerprint and the operator
        copy = pickle.loads(pickle.dumps(original))
        assert "_bellman_operator" not in vars(copy) and "_fingerprint" not in vars(copy)
        assert instance_to_dict(copy) == instance_to_dict(original)
        assert instance_fingerprint(copy) == instance_fingerprint(original)
