import dataclasses
import io
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stodep
from stodep import (
    BudgetedLinearFunction,
    CoverageFunction,
    DomainError,
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    RewardSpec,
    State,
    SubmodularReward,
    apply_depletion_with_step,
    expected_one_step_reward,
    reward,
    sample_depletion,
    instance_to_dict,
    reward_from_dict,
    validate_instance,
)

from conftest import SHAPE_FAULTS, make_instance, small_instances
from oracles import (
    _breaks,
    _certificate,
    binomial_pmf_oracle,
    from_potential_oracle,
    q_oracle,
    table_rules_oracle,
)


# ---------------------------------------------------------------- validation


def test_worst_case_instance_validates(worst_case_tenth):
    assert validate_instance(worst_case_tenth).passed


@pytest.mark.parametrize(
    "rew, field",
    [
        (LinearReward((math.nan,)), "reward.weights"),
        (LinearReward((math.inf,)), "reward.weights"),
        (LinearDecayingReward(((math.inf, 1.0),)), "reward.weights"),
        (LinearDecayingReward(((1.0, math.nan),)), "reward.weights"),
        (SubmodularReward(CoverageFunction(1, (frozenset({0}),), (math.nan,))),
         "reward.element_weights"),
        (SubmodularReward(BudgetedLinearFunction((1.0,), (math.inf,), (0,))), "reward.values"),
        (SubmodularReward(BudgetedLinearFunction((math.nan,), (1.0,), (0,))), "reward.budgets"),
    ],
)
def test_non_finite_reward_weights_reported(rew, field):
    """The Instance constructor names the field: a value that is not finite
    never reaches validate_instance or check_assumption1."""
    with pytest.raises(stodep.ConfigError, match=re.escape(f"{field}[0")):
        make_instance(capacities=(1,), horizon=2, schedule=[[[0.5]], [[0.5]]], reward=rew)


def test_infinite_budget_means_uncapped():
    rew = SubmodularReward(BudgetedLinearFunction((math.inf,), (1.0,), (0,)))
    inst = make_instance(capacities=(1,), horizon=1, schedule=[[[0.5]]], reward=rew)
    assert validate_instance(inst).passed
    assert stodep.solve_clairvoyant(inst).values.tolist() == [[0.0, 0.0], [0.5, 0.0]]


_FIELDS = dict(num_types=2, capacities=(1, 1), initial_items=(1, 1), horizon=2,
               activities=("a", "b"), schedule=np.full((2, 2, 2), 0.5),
               reward=LinearReward((1.0, 1.0)))


@pytest.mark.parametrize("field, changes", [
    ("num_types", {"num_types": 0}),
    ("horizon", {"horizon": 0}),
    ("activities", {"activities": ()}),
    ("capacities", {"capacities": (1,)}),
    ("initial_items", {"initial_items": (1, 1, 1)}),
    ("capacities", {"capacities": (65, 1)}),
    ("capacities", {"capacities": (-1, 1)}),
    ("schedule", {"schedule": np.full((2, 2, 3), 0.5)}),
    ("arrivals", {"arrivals": (0,)}),
    ("deadlines", {"deadlines": (2, 2, 2)}),
])
def test_instance_refuses_a_malformed_field_by_name(field, changes):
    with pytest.raises(stodep.ConfigError, match=field):
        stodep.Instance(**dict(_FIELDS, **changes))
    stodep.Instance(**_FIELDS)


@pytest.mark.parametrize("field, build", [
    ("element_weights", lambda: CoverageFunction(2, (frozenset({0}),), (1.0,))),
    ("covers", lambda: CoverageFunction(2, (frozenset({0}), frozenset({2})), (1.0, 1.0))),
    ("covers", lambda: CoverageFunction(2, (frozenset({-1}),), (1.0, 1.0))),
    ("groups", lambda: BudgetedLinearFunction((1.0,), (1.0, 2.0), (0,))),
    ("groups", lambda: BudgetedLinearFunction((1.0,), (1.0,), (1,))),
    ("groups", lambda: BudgetedLinearFunction((1.0,), (1.0,), (-1,))),
])
def test_builtin_potentials_refuse_a_malformed_field_by_name(field, build):
    with pytest.raises(stodep.ConfigError, match=field):
        build()


def test_schedule_is_read_only():
    source = np.full((1, 1, 1), 0.5)
    inst = make_instance(capacities=(1,), horizon=1, schedule=source, reward=LinearReward((1.0,)))
    fingerprint = stodep.instance_fingerprint(inst)
    with pytest.raises(ValueError):
        inst.schedule[0, 0, 0] = 0.9
    source[0, 0, 0] = 0.9  # the instance holds its own copy
    assert inst.probability_row(0, 0) == (0.5,)
    assert stodep.instance_fingerprint(inst) == fingerprint


def test_schedule_rows_are_built_on_first_read():
    from stodep.apps import build_queueing_instance, queueing_params_from_dict

    rng = np.random.default_rng(2)
    linear = make_instance(capacities=(2, 1), horizon=3, schedule=rng.random((3, 4, 2)),
                           reward=LinearReward((1.0, 0.5)))
    queueing = build_queueing_instance(queueing_params_from_dict({
        "num_buffers": 2, "num_servers": 2, "horizon": 4,
        "service_means": [[1.5, 2.0], [3.0, 1.2]],
        "rewards": [[1.0, 0.8, 0.6, 0.4], [0.9, 0.7, 0.5, 0.3]],
        "arrival_trace": [[1, 1, 1, 1], [1, 1, 1, 1]],
    }), 0)
    for inst in (linear, queueing):
        assert "_rows" not in vars(inst) and "_draws" not in vars(inst)
        stodep.solve_clairvoyant(inst)
        assert "_rows" not in vars(inst) and "_draws" not in vars(inst)
        T, A, M = inst.schedule.shape
        expected = tuple(
            tuple(tuple(float(p) for p in inst.schedule[t, a]) for a in range(A)) for t in range(T)
        )
        assert inst.probability_row(T - 1, A - 1) == expected[T - 1][A - 1]
        assert "_rows" in vars(inst) and inst._rows == expected
        assert all(type(p) is float for rows in inst._rows for row in rows for p in row)
        # The draws skip exactly the zero probabilities, in type order.
        assert inst._draws == tuple(
            tuple(tuple((m, p) for m, p in enumerate(row) if p != 0.0) for row in rows)
            for rows in expected
        )


def test_instance_fields_cannot_be_assigned(worst_case_tenth):
    for f in dataclasses.fields(worst_case_tenth):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(worst_case_tenth, f.name, getattr(worst_case_tenth, f.name))


def test_new_reward_cannot_reach_a_seen_instance():
    inst = stodep.apps.random_linear_decaying_instance(10)
    policy = stodep.myopic_policy()
    before = stodep.evaluate_policy_exact(inst, policy)
    doubled = LinearDecayingReward(tuple(tuple(2 * w for w in row) for row in inst.reward.weights))
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.reward = doubled
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.reward.weights = doubled.weights
    after = stodep.evaluate_policy_exact(inst, policy)
    assert np.array_equal(after.values, before.values) and after.fingerprint == before.fingerprint
    # The supported way to change a field builds a new instance, seen afresh.
    other = dataclasses.replace(inst, reward=doubled)
    fresh = stodep.evaluate_policy_exact(other, stodep.myopic_policy())
    assert np.allclose(stodep.evaluate_policy_exact(other, policy).values, fresh.values)
    assert np.allclose(fresh.values, 2 * before.values)


def test_metadata_is_a_read_only_copy():
    source = {"app": "test", "trace": [[1, 2], [3]], "nested": {"k": 1}}
    inst = make_instance(
        capacities=(1,), horizon=1, schedule=[[[0.5]]], reward=LinearReward((1.0,)),
        metadata=source,
    )
    fingerprint = stodep.instance_fingerprint(inst)
    source["app"] = "changed"
    source["trace"][0].append(9)
    source["nested"]["k"] = 2
    with pytest.raises(TypeError):
        inst.metadata["app"] = "changed"
    with pytest.raises(TypeError):
        inst.metadata["nested"]["k"] = 2
    with pytest.raises(AttributeError):
        inst.metadata["trace"][0].append(9)
    fresh = make_instance(
        capacities=(1,), horizon=1, schedule=[[[0.5]]], reward=LinearReward((1.0,)),
        metadata={"app": "test", "trace": [[1, 2], [3]], "nested": {"k": 1}},
    )
    assert stodep.instance_fingerprint(inst) == fingerprint == stodep.instance_fingerprint(fresh)
    assert stodep.instance_to_dict(inst)["metadata"] == {
        "app": "test", "trace": [[1, 2], [3]], "nested": {"k": 1}
    }


def test_reward_specs_are_frozen():
    source = {((1,), (0,), 0): 1.0, ((1,), (1,), 0): 0.0, ((0,), (0,), 0): 0.0}
    tab = GeneralTabulatedReward(source)
    source[((1,), (0,), 0)] = 5.0
    assert [[1], [0], 0, 1.0] in tab.spec_dict()["entries"]
    for array in (tab.keys, tab.values):
        with pytest.raises(ValueError):
            array[0] = 5
    specs = {
        "weights": LinearReward((1.0,)),
        "keys": tab,
        "evaluator": SubmodularReward(lambda y: 0.0),
        "covers": CoverageFunction(1, (frozenset({0}),), (1.0,)),
        "budgets": BudgetedLinearFunction((1.0,), (1.0,), (0,)),
    }
    specs["label"] = specs["evaluator"]
    for attr, spec in specs.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, attr, getattr(spec, attr))
    with pytest.raises(dataclasses.FrozenInstanceError):
        LinearDecayingReward(((1.0,),)).weights = ((2.0,),)


def test_decaying_weights_must_not_increase():
    bad = make_instance(
        capacities=(1,),
        horizon=2,
        schedule=[[[0.5]], [[0.5]]],
        reward=LinearDecayingReward(((1.0, 1.5),)),
    )
    report = validate_instance(bad)
    assert any(v.rule == "w not non-increasing in t" for v in report.violations)


def test_arrival_deadline_masking_enforced():
    with pytest.raises(stodep.ConfigError, match=re.escape(
            "schedule[0][0][0] is 0.4: nonzero outside [arrivals[0], deadlines[0]) = [1, 2)")):
        make_instance(capacities=(1,), horizon=3, schedule=[[[0.4]], [[0.4]], [[0.4]]],
                      reward=LinearReward((1.0,)), arrivals=(1,), deadlines=(2,))
    # Zeroing the masked slots fixes it.
    ok = make_instance(
        capacities=(1,),
        horizon=3,
        schedule=[[[0.0]], [[0.4]], [[0.0]]],
        reward=LinearReward((1.0,)),
        arrivals=(1,),
        deadlines=(2,),
    )
    assert validate_instance(ok).passed


@pytest.mark.parametrize("case", sorted(SHAPE_FAULTS))
def test_reward_shape_faults_raise_when_the_instance_is_built(case, worst_case_tenth, tmp_path):
    spec = SHAPE_FAULTS[case]
    with pytest.raises(stodep.ConfigError):
        rew = RewardSpec() if case == "unknown-kind" else reward_from_dict(spec)
        dataclasses.replace(worst_case_tenth, reward=rew)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(instance_to_dict(worst_case_tenth), reward=spec)))
    with pytest.raises(stodep.ConfigError):
        stodep.instance_from_dict(json.loads(path.read_text()))


def test_window_violations_come_in_t_m_a_order():
    """The constructor names the first nonzero entry outside its window in
    (t, m, a) order: type 0's at activity 1 before type 1's at activity 0."""
    schedule = [[[0.0, 0.3], [0.3, 0.0]], [[0.5, 0.5], [0.5, 0.5]]]
    with pytest.raises(stodep.ConfigError, match=re.escape("schedule[0][1][0] is 0.3")):
        make_instance(capacities=(1, 1), horizon=2, schedule=schedule,
                      reward=LinearReward((1.0, 1.0)), arrivals=(1, 1), deadlines=(2, 2))


# ----------------------------------------------------------------------- pmf


def _depletion_pmf(inst, x, t, a):
    """P(X = alpha) of every alpha <= x with positive probability: the product
    of the Bellman operator's per-type binomial matrices for activity a at
    epoch t, from the last type to the first."""
    mats = stodep.dp.bellman_operator(inst)._matrices(inst.schedule[t, [a]])
    pmf = {}
    for alpha in itertools.product(*(range(v + 1) for v in x)):
        prob = 1.0
        for mat, v, d in reversed(list(zip(mats, x, alpha))):
            prob = prob * mat[0, v, v - d]
        if prob != 0.0:
            pmf[alpha] = float(prob)
    return pmf


def test_pmf_single_type_binomial(single_type_instance):
    pmf = _depletion_pmf(single_type_instance, (2,), 0, 0)
    assert pmf == {(0,): 0.25, (1,): 0.5, (2,): 0.25}


def test_pmf_deterministic_activity(worst_case_tenth):
    # activity 0 depletes type 0 with probability 1 and type 1 never
    assert _depletion_pmf(worst_case_tenth, (1, 1), 0, 0) == {(1, 0): 1.0}


def test_pmf_matches_factorial_formula_oracle():
    inst = make_instance(
        capacities=(1, 2),
        horizon=1,
        schedule=[[[0.3, 0.6]]],
        reward=LinearReward((1.0, 1.0)),
    )
    pmf = _depletion_pmf(inst, (1, 2), 0, 0)
    expected = binomial_pmf_oracle((1, 2), (0.3, 0.6))
    assert len(pmf) == 6
    for alpha, prob in pmf.items():
        assert prob == pytest.approx(expected[alpha], abs=1e-15)
    assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    probs=st.data(),
)
def test_pmf_sums_to_one(counts, probs):
    p = [probs.draw(st.floats(0.0, 1.0)) for _ in counts]
    caps = [max(c, 1) for c in counts]
    inst = make_instance(
        capacities=caps,
        horizon=1,
        schedule=[[p]],
        reward=LinearReward([1.0] * len(counts)),
    )
    pmf = _depletion_pmf(inst, tuple(counts), 0, 0)
    assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    for alpha, pr in pmf.items():
        assert all(0 <= a <= c for a, c in zip(alpha, counts))
        # probabilities may underflow to exactly zero for subnormal p
        assert pr >= 0.0


# ------------------------------------------------------------------ sampling


def test_sample_certain_and_impossible():
    inst = make_instance(
        capacities=(2, 2),
        horizon=1,
        schedule=[[[1.0, 0.0]]],
        reward=LinearReward((1.0, 1.0)),
    )
    rng = np.random.default_rng(0)
    assert sample_depletion(State((2, 2), 0), 0, inst, rng) == (2, 0)


def test_sample_frequencies_match_pmf(single_type_instance):
    rng = np.random.default_rng(12345)
    n = 100_000
    counts = [0, 0, 0]
    state = State((2,), 0)
    for _ in range(n):
        counts[sample_depletion(state, 0, single_type_instance, rng)[0]] += 1
    for k, expected_p in enumerate((0.25, 0.5, 0.25)):
        sigma = math.sqrt(n * expected_p * (1 - expected_p))
        assert abs(counts[k] - n * expected_p) <= 3 * sigma


@pytest.mark.parametrize("epoch, activity", [(-1, 0), (2, 0), (0, -1), (0, 1)])
def test_sample_outside_the_epochs_or_activities_raises(single_type_instance, epoch, activity):
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sample_depletion(State((2,), epoch), activity, single_type_instance, rng)


@pytest.mark.parametrize("items", [(5, 1), (-1, 1), (2, 1), (1,), (1, 1, 1)])
def test_sample_outside_the_capacities_raises(worst_case_tenth, items):
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        sample_depletion(State(items, 0), 0, worst_case_tenth, rng)


def test_sampling_reproducible(single_type_instance):
    a = sample_depletion(State((2,), 0), 0, single_type_instance, np.random.default_rng(7))
    b = sample_depletion(State((2,), 0), 0, single_type_instance, np.random.default_rng(7))
    assert a == b


# ------------------------------------------------------------------- rewards


def test_example_reward_values(worst_case_tenth):
    assert reward((1, 1), (0, 1), 0, worst_case_tenth) == 1.0
    assert reward((1, 1), (1, 0), 0, worst_case_tenth) == pytest.approx(0.9)
    # terminal epoch always pays zero
    assert reward((1, 1), (0, 0), worst_case_tenth.horizon, worst_case_tenth) == 0.0


def test_reward_domain_error(worst_case_tenth):
    with pytest.raises(DomainError):
        reward((0, 1), (1, 1), 0, worst_case_tenth)


@pytest.mark.parametrize("x, x_next, t", [((1, 1), (0, 1), -1), ((1, 1), (-1, 1), 0)])
def test_reward_at_a_negative_index_raises(worst_case_tenth, x, x_next, t):
    with pytest.raises(DomainError):
        reward(x, x_next, t, worst_case_tenth)


@pytest.mark.parametrize("x, x_next, t", [
    ((1,), (0,), 0),  # too few types
    ((1, 1, 1), (0, 0, 0), 0),  # too many types
    ((1, 1), (0,), 0),  # x_next with too few types
    ((1, 1), (0, 0, 0), 0),  # x_next with too many types
    ((2, 1), (0, 0), 0),  # items above the capacities
    ((-1, 1), (-1, 0), 0),  # negative items
    ((1,), (0,), 2),  # a malformed state at the terminal epoch
])
def test_reward_outside_the_domain_raises(worst_case_tenth, x, x_next, t):
    with pytest.raises(DomainError):
        reward(x, x_next, t, worst_case_tenth)


def test_budgeted_linear_truncates():
    w = BudgetedLinearFunction(budgets=(5.0,), values=(3.0, 3.0), groups=(0, 0))
    rew = SubmodularReward(w)
    inst = make_instance(
        capacities=(1, 1),
        horizon=1,
        schedule=[[[1.0, 1.0]]],
        reward=rew,
    )
    # depleting both items in one step pays w(1,1) - w(0,0) = min(5, 6) = 5
    assert reward((1, 1), (0, 0), 0, inst) == 5.0
    # and stepwise the total telescopes to the same 5, not 6
    assert reward((1, 1), (0, 1), 0, inst) + reward((0, 1), (0, 0), 0, inst) == 5.0


def test_no_depletion_no_reward():
    cov = CoverageFunction(2, (frozenset({0}), frozenset({1})), (1.0, 2.0))
    inst = make_instance(
        capacities=(1, 1),
        horizon=2,
        schedule=[[[0.5, 0.5]], [[0.5, 0.5]]],
        reward=SubmodularReward(cov),
    )
    for x in itertools.product(range(2), range(2)):
        assert reward(x, x, 0, inst) == 0.0


def test_submodular_telescoping_exact():
    # dyadic weights keep every partial sum exactly representable
    cov = CoverageFunction(
        3,
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({2})),
        (0.25, 0.5, 0.125),
    )
    inst = make_instance(
        capacities=(1, 2, 1),
        horizon=3,
        schedule=[[[0.5, 0.5, 0.5]]] * 3,
        reward=SubmodularReward(cov),
    )
    trajectory = [(1, 2, 1), (1, 1, 1), (0, 1, 0), (0, 0, 0)]
    total = 0.0
    for t, (x, x_next) in enumerate(zip(trajectory, trajectory[1:])):
        total += reward(x, x_next, t, inst)
    w = inst.reward.w
    assert total == w((1, 2, 1)) - w((0, 0, 0))


def test_tabulated_reward_lookup_and_terminal_default():
    table = {((1,), (0,), 0): 2.0, ((1,), (1,), 0): 0.0, ((0,), (0,), 0): 0.0}
    rew = GeneralTabulatedReward(table)
    inst = make_instance(
        capacities=(1,),
        horizon=1,
        schedule=[[[0.5]]],
        reward=rew,
    )
    assert reward((1,), (0,), 0, inst) == 2.0
    assert reward((1,), (0,), 1, inst) == 0.0  # terminal entries default to zero
    assert validate_instance(inst).passed


TABLE_FAULTS = ("missing-terminal", "negative", "increase", "terminal")


@st.composite
def faulty_tables(draw):
    """(capacities, horizon, table) of a valid tabulated reward with 0-4 faults.

    The valid values are non-negative and non-increasing in t; each pair
    may or may not carry its (zero) terminal entry.
    """
    M, T = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    caps = tuple(draw(st.integers(1, 2)) for _ in range(M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = {}
    for x in itertools.product(*(range(c + 1) for c in caps)):
        for x_next in itertools.product(*(range(v + 1) for v in x)):
            for t, value in enumerate(sorted(rng.random(T).tolist(), reverse=True)):
                table[(x, x_next, t)] = value
            if rng.random() < 0.5:
                table[(x, x_next, T)] = 0.0
    for fault in draw(st.lists(st.sampled_from(TABLE_FAULTS), max_size=4)):
        keys = sorted(k for k in table if (k[2] == T) == (fault == "missing-terminal"))
        if not keys:
            continue
        x, x_next, t = key = keys[draw(st.integers(0, len(keys) - 1))]
        if fault == "missing-terminal":
            del table[key]
        elif fault == "increase":
            table[(x, x_next, max(t, 1))] = table.get((x, x_next, max(t, 1) - 1), 0.0) + 0.5
        elif fault == "terminal":
            table[(x, x_next, T)] = 0.25
        else:
            table[key] = -0.5
    return caps, T, table


def _tabulated_instance(caps, T, reward):
    return make_instance(capacities=caps, horizon=T, schedule=np.full((T, 2, len(caps)), 0.5),
                         reward=reward)


@settings(max_examples=120, deadline=None)
@given(faulty_tables())
def test_table_rules_match_the_scalar_oracle(case):
    caps, T, table = case
    inst = _tabulated_instance(caps, T, GeneralTabulatedReward(table))
    rules = list(table_rules_oracle(inst))
    violations = validate_instance(inst).violations
    assert [(v.field, v.indices, v.rule) for v in violations] == [
        r[:3] for r in rules if _breaks(r[3], r[4], 0.0)
    ]
    report = stodep.check_assumption1(inst)
    checked, worst, expected = _certificate(
        (({"field": f, "indices": list(key), "rule": rule}, lhs, rhs)
         for f, key, rule, lhs, rhs in rules),
        report.tolerance,
    )
    assert (report.checked, repr(report.worst_gap)) == (checked, repr(worst))
    assert [(v.witness, repr(v.lhs), repr(v.rhs)) for v in report.violations] == [
        (witness, repr(lhs), repr(rhs)) for witness, lhs, rhs, _ in expected
    ]


@settings(max_examples=40, deadline=None)
@given(faulty_tables(), st.data())
def test_a_missing_entry_is_refused_at_build(case, data):
    """ConfigError names the lexicographically first (x, x', t < horizon)
    missing, whatever else the table holds."""
    caps, T, table = case
    keys = sorted(k for k in table if k[2] < T)
    dropped = data.draw(st.sets(st.sampled_from(keys), min_size=1,
                                max_size=min(4, len(keys) - 1)))  # keep an entry
    kept = GeneralTabulatedReward({k: v for k, v in table.items() if k not in dropped})
    with pytest.raises(stodep.ConfigError, match=re.escape(f"no entry for {min(dropped)}")):
        _tabulated_instance(caps, T, kept)


def test_a_missing_entry_of_a_huge_domain_is_named_in_little_memory():
    """8 types of capacity 64: 4.5e26 pairs, past int64, and one entry."""
    one_entry = GeneralTabulatedReward({((64,) * 8, (0,) * 8, 0): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(stodep.ConfigError) as refused:
            _tabulated_instance((64,) * 8, 2, one_entry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"reward.entries: no entry for ({(0,) * 8}, {(0,) * 8}, 0)"
    assert peak < 2**20


def test_pair_items_reads_small_indices_of_a_domain_past_int64():
    """pair_count((64,) * 8) is 4.5e26: the first pairs vary the last type only."""
    x, x_next = stodep.rewards.pair_items(np.arange(6), (64,) * 8)
    one_x, one_next = stodep.rewards.pair_items(np.arange(6), (64,))
    assert np.array_equal(x[:, -1:], one_x) and np.array_equal(x_next[:, -1:], one_next)
    assert not x[:, :-1].any() and not x_next[:, :-1].any()


@settings(max_examples=40, deadline=None)
@given(faulty_tables(), st.randoms(use_true_random=False))
def test_entry_order_does_not_reach_the_outputs(case, rnd):
    caps, T, table = case
    inst = _tabulated_instance(caps, T, GeneralTabulatedReward(table))
    entries = [[list(x), list(x_next), t, v] for (x, x_next, t), v in table.items()]
    rnd.shuffle(entries)
    shuffled = _tabulated_instance(caps, T, GeneralTabulatedReward.from_entries(entries))
    ordered = [[list(x), list(x_next), t, v] for (x, x_next, t), v in sorted(table.items())]
    assert json.dumps(shuffled.reward.spec_dict()["entries"]) == json.dumps(ordered)
    assert stodep.instance_fingerprint(shuffled) == stodep.instance_fingerprint(inst)
    saved = [io.StringIO(), io.StringIO()]
    stodep.save_instance(inst, saved[0])
    stodep.save_instance(shuffled, saved[1])
    assert saved[0].getvalue() == saved[1].getvalue()


@pytest.mark.parametrize("entry", [
    [[1, 1], [0, 0], 0, 99.0],  # a duplicate key
    [[1, 0.5], [0, 0], 0, 1.0],  # a non-integral item count
    [[1, 1], [0, 0], 0.0, 1.0],  # a non-integral epoch
    [[1, 1], [0, 0], 0],  # three fields
    [[1, 1, 1], [0, 0, 0], 0, 1.0],  # a key longer than the others
    [[1, 1], [0, 0], 0, None],  # a value that is not a number
    [[1, True], [0, 0], 0, 1.0],  # a bool for an item count
    [[1, 1], [0, 0], 0, True],  # a bool for a value
])
def test_malformed_entries_are_refused_by_index(entry):
    entries = GeneralTabulatedReward.from_potential(lambda y: float(sum(y)), (1, 1), 2).spec_dict()
    entries = entries["entries"]
    entries.insert(3, entry)
    with pytest.raises(stodep.ConfigError, match=r"entries\[3\]"):
        reward_from_dict({"kind": "general_tabulated", "entries": entries})


@pytest.mark.parametrize("entries", [
    [[[1, 1, 1], [0, 0, 0], 0, 1.0]],  # keys of three types for two
    [[[2, 1], [0, 0], 0, 1.0]],  # x above capacity
    [[[0, 1], [1, 1], 0, 1.0]],  # x' above x
    [[[1, 1], [-1, 0], 0, 1.0]],  # x' negative
    [[[1, 1], [0, 0], 3, 1.0]],  # t past the horizon
    [[[1, 1], [0, 0], -1, 1.0]],  # t negative
    [],  # no entries at all
])
def test_tabulated_keys_outside_the_domain_raise_when_the_instance_is_built(entries, worst_case_tenth):
    rew = GeneralTabulatedReward.from_entries(entries)
    with pytest.raises(stodep.ConfigError):
        dataclasses.replace(worst_case_tenth, reward=rew)


@settings(max_examples=80, deadline=None)
@given(caps=st.lists(st.integers(0, 3), min_size=1, max_size=3), horizon=st.integers(1, 3),
       data=st.data())
def test_from_potential_matches_the_scalar_oracle_bit_for_bit(caps, horizon, data):
    box = list(itertools.product(*(range(c + 1) for c in caps)))
    # A few repeated values make the potential tie; -0.0 and 0.0 both occur.
    value = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 1.0 / 3.0, 2.5]), st.floats(-1e300, 1e300))
    table = {y: data.draw(value) for y in box}
    calls = []

    def potential(y):
        calls.append(y)
        return table[y]

    rew = GeneralTabulatedReward.from_potential(potential, caps, horizon)
    assert sorted(calls) == box  # once per point of the capacity box
    assert all(type(v) is int for y in calls for v in y)
    entries = from_potential_oracle(table.__getitem__, caps, horizon)
    keys = np.array([[*x, *x_next, t] for x, x_next, t, _ in entries], dtype=np.int64)
    assert rew.keys.dtype == np.int64 and np.array_equal(rew.keys, keys)
    assert rew.values.tobytes() == np.array([v for *_, v in entries]).tobytes()
    assert not (rew.keys.flags.writeable or rew.values.flags.writeable)


def test_tabulated_arrays_must_come_sorted_and_once_each():
    rew = GeneralTabulatedReward.from_potential(lambda y: float(sum(y)), (1,), 2)
    for rows in ([1, 0, 2, 3, 4, 5], [0, 0, 1, 2, 3, 4]):  # out of order; a key twice
        with pytest.raises(stodep.ConfigError, match="ascending order"):
            GeneralTabulatedReward._from_sorted(rew.keys[rows], rew.values[rows])


# ------------------------------------------------------ expected step reward


def test_expected_reward_example_values(worst_case_tenth):
    s = State((1, 1), 0)
    assert expected_one_step_reward(s, 0, worst_case_tenth) == 1.0
    assert expected_one_step_reward(s, 1, worst_case_tenth) == pytest.approx(0.9)


def test_expected_reward_zero_probabilities(worst_case_tenth):
    assert expected_one_step_reward(State((1, 1), 1), 1, worst_case_tenth) == 0.0


def test_expected_reward_paths_agree():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        caps = (1, 2)
        inst = make_instance(
            capacities=caps,
            horizon=2,
            schedule=rng.random((2, 2, 2)),
            reward=LinearDecayingReward(
                tuple(tuple(sorted((rng.random() for _ in range(2)), reverse=True)) for _ in caps)
            ),
        )
        for t in range(2):
            for a in range(2):
                fast = expected_one_step_reward(State(caps, t), a, inst)
                assert fast == pytest.approx(q_oracle(inst, caps, t, a), abs=1e-12)


def test_expected_reward_enumeration_matches_scripted_sum():
    rng = np.random.default_rng(42)
    cov = CoverageFunction(4, (frozenset({0, 1}), frozenset({2, 3})), tuple(rng.random(4)))
    inst = make_instance(
        capacities=(1, 2),
        horizon=1,
        schedule=[[[0.35, 0.65]]],
        reward=SubmodularReward(cov),
    )
    s = State((1, 2), 0)
    # outcome-by-outcome oracle with the factorial pmf and direct evaluator calls
    expected = 0.0
    for alpha, prob in binomial_pmf_oracle((1, 2), (0.35, 0.65)).items():
        expected += prob * (cov((alpha[0], alpha[1])) - cov((0, 0)))
    assert expected_one_step_reward(s, 0, inst) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(inst=small_instances())
def test_expected_reward_matches_the_enumeration_oracle(inst):
    for t in range(inst.horizon):
        for x in itertools.product(*(range(c + 1) for c in inst.capacities)):
            for a in range(inst.num_activities):
                got = expected_one_step_reward(State(x, t), a, inst)
                assert got == pytest.approx(q_oracle(inst, x, t, a), abs=1e-12)


@pytest.mark.parametrize("items, epoch, activity", [
    ((1, 1), -1, 0),  # a negative epoch
    ((1, 1), 2, 0),  # the terminal epoch
    ((1, 1), 0, -1),  # a negative activity
    ((1, 1), 0, 2),  # one past the last activity
    ((2, 1), 0, 0),  # items above the capacities
    ((-1, 1), 0, 0),  # negative items
    ((1,), 0, 0),  # too few types
])
def test_expected_reward_outside_the_domain_raises(worst_case_tenth, items, epoch, activity):
    with pytest.raises(DomainError):
        expected_one_step_reward(State(items, epoch), activity, worst_case_tenth)


# ---------------------------------------------------------------- transforms


def test_transforms_examples():
    assert apply_depletion_with_step(State((1, 1), 0), (1, 0)) == State((0, 1), 1)
    assert apply_depletion_with_step(State((1, 1), 0), (0, 0)) == State((1, 1), 1)
    # over-depletion clamps at zero
    assert apply_depletion_with_step(State((1, 0), 0), (4, 2)) == State((0, 0), 1)
