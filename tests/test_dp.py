import argparse
import gc
import io
import itertools
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stodep
from stodep import (
    BudgetedLinearFunction,
    ConfigError,
    FingerprintMismatch,
    LinearDecayingReward,
    LinearReward,
    State,
    StateSpaceCapExceeded,
    SubmodularReward,
    CoverageFunction,
    audit_table,
    evaluate_policies_exact,
    evaluate_policy_exact,
    monte_carlo_value,
    myopic_policy,
    optimal_policy_from_table,
    optimal_value,
    solve_clairvoyant,
)
from stodep.dp import (
    OPTIMAL,
    TIE_TOL,
    ValueTable,
    best_activity,
    decode_state,
    mixed_radix_radices,
    solve_and_evaluate,
    state_index,
    tie_slack,
)
from stodep import cli
from stodep.cli import _sweep_policy
from stodep.apps import build_worst_case_instance, random_linear_decaying_instance
from stodep.policies import decision_tables

from conftest import make_instance, small_instances
from oracles import dp_value_oracle, q_oracle, reward_oracle, value_function_oracle


def test_worst_case_optimal_value(worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    assert optimal_value(table, State((1, 1), 0)) == pytest.approx(1.9, abs=1e-12)
    # type-1 item still depletable at t=1; type-2 item dead after t=0
    assert optimal_value(table, State((1, 0), 1)) == 1.0
    assert optimal_value(table, State((0, 1), 1)) == 0.0
    # boundary
    assert optimal_value(table, State((1, 1), 2)) == 0.0


def test_single_step_horizon_equals_myopic_value():
    rng = np.random.default_rng(5)
    inst = make_instance(
        capacities=(2, 1),
        horizon=1,
        schedule=rng.random((1, 3, 2)),
        reward=LinearReward((0.7, 1.3)),
    )
    table = solve_clairvoyant(inst)
    s = State((2, 1), 0)
    best = max(q_oracle(inst, s.items, s.epoch, a) for a in range(inst.num_activities))
    assert optimal_value(table, s) == pytest.approx(best, abs=1e-12)


def test_solver_matches_recursive_oracle():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        inst = make_instance(
            capacities=(2, 2),
            horizon=3,
            schedule=rng.random((3, 2, 2)),
            reward=LinearDecayingReward(
                tuple(tuple(sorted((rng.random() for _ in range(3)), reverse=True)) for _ in range(2))
            ),
        )
        table = solve_clairvoyant(inst)
        assert optimal_value(table, State((2, 2), 0)) == pytest.approx(
            dp_value_oracle(inst), abs=1e-12
        )


def test_solver_matches_oracle_on_submodular():
    rng = np.random.default_rng(123)
    cov = CoverageFunction(
        5,
        (frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({4})),
        tuple(rng.random(5)),
    )
    inst = make_instance(
        capacities=(1, 2, 1),
        horizon=3,
        schedule=rng.random((3, 3, 3)),
        reward=SubmodularReward(cov),
    )
    table = solve_clairvoyant(inst)
    assert optimal_value(table, inst.initial_state()) == pytest.approx(
        dp_value_oracle(inst), abs=1e-12
    )


def test_state_cap(worst_case_tenth):
    with pytest.raises(StateSpaceCapExceeded):
        solve_clairvoyant(worst_case_tenth, state_cap=5)


def test_optimal_policy_round_trip(worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    replay = evaluate_policy_exact(worst_case_tenth, optimal_policy_from_table(table))
    assert np.allclose(replay.values, table.values, atol=1e-12)


def test_myopic_exact_value(worst_case_tenth):
    table = evaluate_policy_exact(worst_case_tenth, myopic_policy())
    assert table.values[table.state_index((1, 1)), 0] == 1.0


def test_policy_never_beats_optimal():
    for seed in (3, 11):
        inst = random_linear_decaying_instance(seed)
        star = solve_clairvoyant(inst)
        for policy in (myopic_policy(), stodep.RoundRobinPolicy(), stodep.SeededRandomPolicy(2)):
            evaluated = evaluate_policy_exact(inst, policy)
            assert (evaluated.values <= star.values + 1e-12).all()


def test_random_policy_exact_matches_monte_carlo():
    inst = random_linear_decaying_instance(21)
    policy = stodep.SeededRandomPolicy(9)
    exact = evaluate_policy_exact(inst, policy)
    j_exact = float(exact.values[exact.state_index(inst.initial_items), 0])
    summary = monte_carlo_value(inst, policy, 10_000, master_seed=4242)
    margin = max(3 * summary.std_error, 1e-12)
    assert abs(summary.mean - j_exact) <= margin


def test_audit_catches_corruption(worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    report = audit_table(worst_case_tenth, table)
    assert report.passed and report.max_residual <= 1e-12
    table.values[table.state_index((1, 1)), 0] += 1e-6
    assert not audit_table(worst_case_tenth, table).passed


def test_audit_policy_table(worst_case_tenth):
    policy = myopic_policy()
    table = evaluate_policy_exact(worst_case_tenth, policy)
    # a policy table fails the maximizing audit but passes its own recursion
    assert not audit_table(worst_case_tenth, table).passed
    assert audit_table(worst_case_tenth, table, policy=policy).passed


def test_horizon_extension_preserves_values():
    rng = np.random.default_rng(77)
    base_sched = rng.random((2, 2, 2))
    weights = tuple(tuple(sorted((rng.random() for _ in range(2)), reverse=True)) for _ in range(2))
    inst = make_instance(
        capacities=(1, 2), horizon=2, schedule=base_sched,
        reward=LinearDecayingReward(weights),
    )
    padded_sched = np.concatenate([base_sched, np.zeros((2, 2, 2))])
    padded = make_instance(
        capacities=(1, 2), horizon=4, schedule=padded_sched,
        reward=LinearDecayingReward(tuple(row + (0.0, 0.0) for row in weights)),
    )
    v1 = optimal_value(solve_clairvoyant(inst), State((1, 2), 0))
    v2 = optimal_value(solve_clairvoyant(padded), State((1, 2), 0))
    assert v2 == pytest.approx(v1, abs=1e-12)


def test_audit_accepts_the_solves_choice_on_the_tie_floor():
    """Q = 1 and Q = 1 + 1e-12 tie: 1 lies on the floor best - tie_slack(best)
    of the solve's tie rule, though best - 1 rounds just above the slack."""
    schedule = np.zeros((2, 10, 2))
    schedule[1, 7] = [1.0, 0.0]
    schedule[1, 9] = [1.0, 1.0]
    inst = make_instance(capacities=(1, 1), horizon=2, schedule=schedule,
                         reward=LinearReward((1.0, 1e-12)))
    table = solve_clairvoyant(inst)
    assert table.best_activity[3, 1] == 7
    assert audit_table(inst, table).passed


def test_fingerprint_mismatch_detected(worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    other = build_worst_case_instance(0.2)
    with pytest.raises(FingerprintMismatch):
        optimal_policy_from_table(table).select(State((1, 1), 0), other)
    with pytest.raises(FingerprintMismatch):
        optimal_value(table, State((1, 1), 0), other)
    assert optimal_value(table, State((1, 1), 0), worst_case_tenth) == pytest.approx(1.9)


def test_mixed_radix_round_trip():
    caps = (2, 1, 3)
    radices = mixed_radix_radices(caps)
    seen = set()
    for i in range(24):
        items = decode_state(i, caps)
        assert state_index(items, radices) == i
        seen.add(items)
    assert len(seen) == 24


def test_table_json_round_trip(tmp_path, worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    path = tmp_path / "table.json"
    table.save_json(path)
    import json

    loaded = ValueTable.from_dict(json.loads(path.read_text()))
    assert loaded.fingerprint == table.fingerprint
    assert np.array_equal(loaded.values, table.values)
    assert np.array_equal(loaded.best_activity, table.best_activity)


_MISSING = object()  # a field left out of the table


@pytest.mark.parametrize("field, data", [
    ("values", [[0.0]]),
    ("values", [[0.0, 0.0, 0.0]] * 3),  # one state short
    ("values", [0.0] * 12),  # flat
    ("values", [[0.0, 0.0, 0.0]] * 3 + [[0.0]]),  # ragged
    ("best_activity", [[0, 0, 0]] * 4),  # one column too many
    ("best_activity", [[0]]),
    ("capacities", [1, "a"]),
    ("capacities", []),
    ("capacities", [1, -2]),
    ("capacities", 3),
    ("horizon", "x"),
    ("horizon", 0),
    ("horizon", 2.0),
    ("num_activities", True),
    ("fingerprint", None),
    ("policy_name", 7),
    ("fingerprint", _MISSING),
    ("capacities", _MISSING),
    ("best_activity", _MISSING),
    ("best_activity", [[None, 0, 0]] * 4),
])
def test_table_of_the_wrong_shape_is_refused(field, data, worst_case_tenth):
    table = dict(solve_clairvoyant(worst_case_tenth).to_dict(), **{field: data})
    with pytest.raises(stodep.ConfigError):
        ValueTable.from_dict({k: v for k, v in table.items() if v is not _MISSING})


@pytest.mark.parametrize("entry, text", [(None, "null"), (float("nan"), "NaN"),
                                         (float("inf"), "Infinity"), ("0.25", '"0.25"'),
                                         (True, "true")])
def test_a_table_value_that_is_not_finite_is_refused(entry, text, worst_case_tenth):
    import json

    data = solve_clairvoyant(worst_case_tenth).to_dict()
    data["values"][1] = [data["values"][1][0], entry, entry]
    data["values"][2][0] = entry
    with pytest.raises(stodep.ConfigError, match=rf"\(row 1, column 1\) is {text}:"):
        ValueTable.from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("entry, text", [(1.7, "1.7"), ("1", '"1"'), (1.0, "1.0"), (99, "99"),
                                         (-5, "-5"), (2**40, "1099511627776"), (True, "true")])
def test_a_best_activity_that_is_not_an_activity_is_refused(entry, text, worst_case_tenth):
    import json

    data = solve_clairvoyant(worst_case_tenth).to_dict()  # 2 activities
    data["best_activity"][2][1] = entry
    with pytest.raises(stodep.ConfigError, match=rf"best_activity at \(row 2, column 1\) is "
                                                 rf"{re.escape(text)}: .* integer in \[0, 2\)"):
        ValueTable.from_dict(json.loads(json.dumps(data)))


def test_a_table_of_numpy_numbers_loads(worst_case_tenth):
    """Arrays, and lists of numpy floats and integers, load as their values."""
    table = solve_clairvoyant(worst_case_tenth)
    header = table.to_dict()
    for values, best in [
        (table.values, table.best_activity),
        (table.values.copy(), table.best_activity.astype(np.int64)),
        ([list(row) for row in table.values], [list(row) for row in table.best_activity]),
    ]:
        got = ValueTable.from_dict({**header, "values": values, "best_activity": best})
        _same_bits(got.values, table.values)
        assert got.best_activity.dtype == np.int32
        assert np.array_equal(got.best_activity, table.best_activity)


def test_a_numpy_entry_out_of_range_is_refused(worst_case_tenth):
    data = solve_clairvoyant(worst_case_tenth).to_dict()
    best = np.array(data["best_activity"], dtype=np.int64)
    best[2, 1] = 99
    with pytest.raises(stodep.ConfigError, match=r"\(row 2, column 1\) is 99: "):
        ValueTable.from_dict({**data, "best_activity": best})
    with pytest.raises(stodep.ConfigError, match=r"\(row 2, column 1\) is true: "):
        rows = [list(r) for r in best]
        rows[2][1] = np.True_
        ValueTable.from_dict({**data, "best_activity": rows})


@pytest.mark.parametrize("field, state, lookup", [
    ("state", State((1,), 0), stodep.optimal_value),
    ("items", State((2, 0), 0), stodep.optimal_value),
    ("items", State((0, -1), 0), stodep.best_activity),
    ("epoch", State((1, 1), 3), stodep.optimal_value),
    ("epoch", State((1, 1), -1), stodep.best_activity),
    ("epoch", State((1, 1), 2), stodep.best_activity),  # the terminal epoch has no choice
])
def test_a_lookup_outside_the_table_raises_domain_error_by_name(field, state, lookup,
                                                                worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)  # capacities (1, 1), horizon 2
    with pytest.raises(stodep.DomainError, match=field):
        lookup(table, state)


def test_a_table_that_is_not_an_object_is_refused():
    with pytest.raises(stodep.ConfigError):
        ValueTable.from_dict([1, 2])


# ------------------------------------------------- differential tests vs oracles


def _all_states(instance):
    for t in range(instance.horizon):
        for items in itertools.product(*(range(c + 1) for c in instance.capacities)):
            yield State(items, t)


def _assert_table_matches(table, instance, oracle):
    for state in _all_states(instance):
        expected = oracle(state.items, state.epoch)
        got = float(table.values[table.state_index(state.items), state.epoch])
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), (state, got, expected)


@settings(max_examples=60, deadline=None)
@given(inst=small_instances())
def test_solver_matches_oracle_everywhere(inst):
    _assert_table_matches(solve_clairvoyant(inst), inst, value_function_oracle(inst))


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(), data=st.data())
def test_policy_values_match_oracle(inst, data):
    fixed = data.draw(st.integers(0, inst.num_activities - 1))
    seed = data.draw(st.integers(0, 2**32))
    for policy in (
        myopic_policy(),
        stodep.approx_myopic_policy(2.0),
        stodep.FixedPolicy(fixed),
        stodep.SeededRandomPolicy(seed),
    ):
        table = evaluate_policy_exact(inst, policy)
        _assert_table_matches(table, inst, value_function_oracle(inst, policy))


def _slack(value):
    # the tie slack plus room for the last-digit gap between the vectorized
    # and the scalar one-step reward
    return 1.01 * TIE_TOL * max(1.0, abs(value))


def _assert_lowest_tied(values, chosen):
    """values[chosen] attains the maximum and no lower index is tied with it."""
    best = max(values)
    assert values[chosen] >= best - _slack(best)
    assert all(v < best - 0.5 * TIE_TOL * max(1.0, abs(best)) for v in values[:chosen])


def _assert_approx_pick(values, chosen, alpha):
    """values[chosen] is the least value of at least max / alpha."""
    threshold = max(values) / alpha
    pick = values[chosen]
    assert pick >= threshold - _slack(threshold)
    assert all(pick <= v + _slack(v) for v in values if v >= threshold + _slack(threshold))


@settings(max_examples=60, deadline=None)
@given(inst=small_instances())
def test_myopic_decisions_obey_one_step_inequalities(inst):
    myopic, approx = myopic_policy(), stodep.approx_myopic_policy(2.0)
    for state in _all_states(inst):
        values = [q_oracle(inst, state.items, state.epoch, a) for a in range(inst.num_activities)]
        _assert_lowest_tied(values, myopic.select(state, inst))
        _assert_approx_pick(values, approx.select(state, inst), 2.0)


# ------------------------------------------------ more activities than one chunk

# Activities of one policy per chunk in the tests below: _eight_per_chunk
# shrinks the chunk bound (dp._CHUNK_ENTRIES, in entries per activity: S) to
# that many activities, so tables of a few states still take several chunks.
_CHUNK = 8


def _eight_per_chunk(monkeypatch, instance):
    op = stodep.dp.bellman_operator(instance)
    monkeypatch.setattr(stodep.dp, "_CHUNK_ENTRIES", _CHUNK * op.num_states)


@st.composite
def multi_chunk_instances(draw):
    """small_instances widened to 9-20 activities.

    With _eight_per_chunk a sweep takes two or three chunks.

    Some schedule rows are copies of a row in another chunk, so exact ties
    cross chunk boundaries.
    """
    base = draw(small_instances())
    T, M = base.horizon, base.num_types
    A = draw(st.integers(9, 20))
    prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    schedule = np.array([draw(prob) for _ in range(T * A * M)]).reshape(T, A, M)
    for m in range(M) if base.arrivals is not None else ():
        schedule[: base.arrivals[m], :, m] = 0.0
        schedule[base.deadlines[m]:, :, m] = 0.0
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, A - 1 - _CHUNK))
        j = draw(st.integers((i // _CHUNK + 1) * _CHUNK, A - 1))
        schedule[:, j] = schedule[:, i]
    windows = {"arrivals": base.arrivals, "deadlines": base.deadlines}
    inst = make_instance(capacities=base.capacities, horizon=T, schedule=schedule,
                         reward=base.reward, **windows)
    assert stodep.validate_instance(inst).passed
    return inst


@settings(max_examples=30, deadline=None)
@given(inst=multi_chunk_instances())
def test_multi_chunk_sweeps_match_oracles(inst):
    with pytest.MonkeyPatch.context() as mp:
        _eight_per_chunk(mp, inst)
        _check_multi_chunk_sweeps(inst)


def _check_multi_chunk_sweeps(inst):
    table = solve_clairvoyant(inst)
    value = value_function_oracle(inst)
    _assert_table_matches(table, inst, value)
    assert audit_table(inst, table).passed
    myopic, approx = myopic_policy(), stodep.approx_myopic_policy(2.0)
    for state in _all_states(inst):
        x, t = state
        acts = range(inst.num_activities)
        _assert_lowest_tied([q_oracle(inst, x, t, a, value) for a in acts],
                            best_activity(table, state))
        one_step = [q_oracle(inst, x, t, a) for a in acts]
        _assert_lowest_tied(one_step, myopic.select(state, inst))
        _assert_approx_pick(one_step, approx.select(state, inst), 2.0)
    # An activity whose schedule repeats a lower one's ties with it exactly.
    rows = inst.schedule.transpose(1, 0, 2).tolist()
    copies = [j for j in range(inst.num_activities) if rows[j] in rows[:j]]
    assert any(j >= _CHUNK for j in copies)
    for chosen in (table.best_activity, myopic.decisions(inst), approx.decisions(inst)):
        assert not np.isin(chosen, copies).any()


def _wide_instance(reward_kind):
    """Three chunks of activities, with rows copied across both chunk boundaries."""
    rng = np.random.default_rng(17)
    T, caps, A = 3, (2, 1, 2), 2 * _CHUNK + 4
    schedule = rng.random((T, A, len(caps)))
    for i, j in ((1, _CHUNK + 1), (1, 2 * _CHUNK + 1), (_CHUNK + 2, 2 * _CHUNK + 2)):
        schedule[:, j] = schedule[:, i]
    if reward_kind == "coverage":
        reward = SubmodularReward(CoverageFunction(
            4, (frozenset({0, 1}), frozenset({1, 2}), frozenset({3})), tuple(rng.random(4))
        ))
    else:
        reward = LinearDecayingReward(
            tuple(tuple(sorted(rng.random(T), reverse=True)) for _ in caps)
        )
    return make_instance(capacities=caps, horizon=T, schedule=schedule, reward=reward)


def _counting_q(monkeypatch):
    """Record the epoch of every BellmanOperator.q call."""
    calls = []
    real_q = stodep.dp.BellmanOperator.q

    def q(self, t, v_next, acts, one_step=False):
        calls.append(t)
        return real_q(self, t, v_next, acts, one_step)

    monkeypatch.setattr(stodep.dp.BellmanOperator, "q", q)
    return calls


def test_one_q_call_per_chunk_and_epoch(monkeypatch):
    inst = _wide_instance("linear_decaying")
    _eight_per_chunk(monkeypatch, inst)
    calls = _counting_q(monkeypatch)
    once = {t: 3 for t in range(inst.horizon)}
    table = solve_clairvoyant(inst)
    assert Counter(calls) == once
    for sweep in (
        lambda: audit_table(inst, table),
        lambda: myopic_policy().decisions(inst),
        lambda: stodep.approx_myopic_policy(2.0).decisions(inst),
    ):
        calls.clear()
        sweep()
        assert Counter(calls) == once


@pytest.mark.parametrize("reward_kind", ["linear_decaying", "coverage"])
def test_q_budget_of_one_chunk_changes_no_output(reward_kind, monkeypatch):
    def outputs():
        inst = _wide_instance(reward_kind)  # a fresh instance: no decision table kept
        table = solve_clairvoyant(inst)
        out = [table.values, table.best_activity, audit_table(inst, table).to_dict()]
        policies = [myopic_policy(), stodep.approx_myopic_policy(2.0),
                    optimal_policy_from_table(table)]
        evaluated = evaluate_policies_exact(inst, policies)
        for policy, ev in zip(policies, evaluated):
            out += [ev.best_activity, ev.values, audit_table(inst, ev, policy=policy).to_dict()]
        # Every pass of a P = 3 stack over all activities: a chunk holds two
        # activities of each policy.
        op = stodep.dp.bellman_operator(inst)
        for t in range(inst.horizon):
            epoch = op.epoch(t, np.stack([ev.values[:, t + 1] for ev in evaluated]))
            best = epoch.best()
            choice = epoch.lowest(lambda q: q >= best[:, None, :])
            out += [best, choice, epoch.at(choice), epoch.best(np.negative)]
        return out

    num_states = 3 * 2 * 3
    monkeypatch.setattr(stodep.dp, "_CHUNK_ENTRIES", _CHUNK * num_states)
    calls = _counting_q(monkeypatch)
    full = outputs()
    unbudgeted_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(stodep.dp, "_Q_BUDGET", _CHUNK * num_states * 8)
    budgeted = outputs()
    assert len(calls) > unbudgeted_calls  # chunks past the first were recomputed
    for a, b in zip(full, budgeted):
        if isinstance(a, dict):
            assert a == b
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _cache_instance(kind):
    """A fresh instance of each kind the operator's epoch data must serve."""
    if kind in ("random-submodular", "random-linear-decaying"):
        return cli.build_from_app(kind, {}, 5, 10**5)
    if kind == "queueing":  # a 0/1 schedule
        params = {"num_buffers": 2, "num_servers": 2, "horizon": 4,
                  "service_means": [[1.5, 2.0], [3.0, 1.2]],
                  "rewards": [[1.0, 0.8, 0.5, 0.3], [0.9, 0.6, 0.2, 0.1]],
                  "arrival_trace": [[1, 1, 0, 1], [1, 0, 1, 1]]}
        return stodep.apps.build_queueing_instance(stodep.apps.queueing_params_from_dict(params))
    return _sparse_instance(kind, np.random.default_rng(11))  # tabulated or coverage


@pytest.mark.parametrize("kind", ["random-submodular", "random-linear-decaying", "queueing",
                                  "tabulated", "coverage"])
def test_epoch_data_budget_changes_no_output(kind, monkeypatch):
    """Data built for each call (a budget below one epoch) gives every sweep
    the bits that the data kept for a block of epochs gives."""
    blocks = []  # per _build call: whether it built a block of epochs
    real = stodep.dp.BellmanOperator._build

    def build(self, lo, hi, acts=None):
        blocks.append(acts is None)
        return real(self, lo, hi, acts)

    monkeypatch.setattr(stodep.dp.BellmanOperator, "_build", build)

    def outputs():
        inst, other = _cache_instance(kind), _cache_instance(kind)
        table, evaluated = solve_and_evaluate(
            inst, [myopic_policy(), stodep.approx_myopic_policy(2.0), OPTIMAL])
        out = [table.values, table.best_activity, audit_table(inst, table).to_dict()]
        for ev in evaluated:
            out += [ev.values, ev.best_activity]
        out += stodep.dp.one_step_decisions(
            inst, [myopic_policy()._rule, stodep.approx_myopic_policy(2.0)._rule])
        alone = solve_clairvoyant(other)
        out += [alone.values, alone.best_activity]
        return out

    kept = outputs()  # the default budget
    monkeypatch.setattr(stodep.dp, "_EPOCH_BUDGET", 2**24)  # every epoch of these small tables
    whole = outputs()
    assert any(blocks)
    blocks.clear()
    monkeypatch.setattr(stodep.dp, "_EPOCH_BUDGET", 0)
    built = outputs()
    assert blocks and not any(blocks)
    for a, b, c in zip(kept, whole, built, strict=True):
        if isinstance(a, dict):
            assert a == b == c
        else:
            _same_bits(a, b)
            _same_bits(a, c)


def test_rollouts_and_rewards_build_no_epoch_data(monkeypatch):
    """Only a q call builds epoch data: Monte Carlo and the reward reads do not."""
    built = []
    real = stodep.dp.BellmanOperator._build

    def build(self, *args):
        built.append(args)
        return real(self, *args)

    monkeypatch.setattr(stodep.dp.BellmanOperator, "_build", build)
    for kind in ("random-linear-decaying", "coverage", "tabulated"):
        inst = _cache_instance(kind)
        for name in ("round_robin", "random:3"):
            monte_carlo_value(inst, stodep.policy_from_name(name), 200, 7)
        op = stodep.dp.bellman_operator(inst)
        x = np.arange(op.num_states)
        op.rewards(x, np.zeros_like(x), 0)
        assert not op._block
    assert built == []


@pytest.mark.parametrize("kind", ["random-linear-decaying", "queueing", "tabulated", "coverage"])
def test_kept_epoch_data_is_read_only(kind):
    inst = _cache_instance(kind)
    op = stodep.dp.bellman_operator(inst)
    op.q(0, None, np.arange(inst.num_activities))
    arrays = [*stodep.dp._binomial_layout(3)]
    for gather, _, types, reward in op._block.values():
        arrays += [a for a in (gather, reward) if a is not None]
        arrays += [a for entry in types for a in entry if isinstance(a, np.ndarray)]
    assert len(arrays) > 3
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("stacked", [False, True])
def test_batch_row_makes_one_q_call_per_chunk_in_one_sweep(stacked, monkeypatch):
    inst = _wide_instance("linear_decaying")
    # The row's stack is J*, three policies and the one-step row: every
    # (row, activity) pair in one chunk, or 8 activities of one row per chunk.
    chunk = 5 * inst.num_activities if stacked else _CHUNK
    monkeypatch.setattr(stodep.dp, "_CHUNK_ENTRIES", chunk * 3 * 2 * 3)
    monkeypatch.setitem(cli._APPS, "wide", lambda *args: inst)
    calls = _counting_q(monkeypatch)
    config = {"app": "wide", "seeds": [0], "policies": ["myopic", "approx:2", "optimal"],
              "properties": ["vfm", "ir", "ratio:2", "assumption1"]}
    args = argparse.Namespace(tol=1e-9, cap_activities=10**5, cap_states=10**7)
    (row, _), = cli._batch_rows(config, args)[1]
    assert row["error"] is None
    got = Counter(calls)
    if stacked:  # one call per epoch for the solve, the one-step rules and the policies
        assert got == {t: 1 for t in range(inst.horizon)}
        return
    # The solve and the one-step row share chunks of 4 activities (2 rows of
    # 4 = 8 row-activities), 5 chunks per epoch.  The union of the policies'
    # choices takes more than one chunk, so each policy is evaluated alone
    # over its own choices, 8 activities per chunk.
    table = solve_clairvoyant(inst)
    chosen = np.stack([table.best_activity, myopic_policy().decisions(inst),
                       stodep.approx_myopic_policy(2.0).decisions(inst)])
    assert all(len(np.unique(chosen[:, :, t])) > 2 for t in range(inst.horizon))
    alone = [sum(-(-len(np.unique(c[:, t])) // _CHUNK) for c in chosen)
             for t in range(inst.horizon)]
    head = -(-inst.num_activities // (_CHUNK // 2))
    assert got == {t: head + alone[t] for t in range(inst.horizon)}


@pytest.mark.parametrize("policy", ["myopic", "optimal", "round_robin"])
def test_check_with_a_ratio_makes_one_q_call_per_epoch(policy, tmp_path, monkeypatch, capsys):
    inst = _wide_instance("coverage")
    path = tmp_path / "wide.json"
    stodep.save_instance(inst, path)
    calls = _counting_q(monkeypatch)
    argv = ["check", "--instance", str(path), "--properties", "vfm,ir,ratio:2", "--policy", policy]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rpartition(": ")[0] for line in lines] == ["vfm", "ir", "ratio:2"]
    assert Counter(calls) == {t: 1 for t in range(inst.horizon)}


def test_lowest_tied_reads_each_row_of_a_stack():
    """A (P, S) floor against (P, k, S) Q, here with k = 1 and P = 5."""
    inst = _wide_instance("coverage")
    op = stodep.dp.bellman_operator(inst)
    v = np.random.default_rng(5).random((5, op.num_states))
    for acts in (np.array([3]), np.arange(inst.num_activities)):
        best, choice = stodep.dp.lowest_tied(op.epoch(1, v, acts))
        assert best.shape == choice.shape == v.shape
        for p in range(5):
            alone = stodep.dp.lowest_tied(op.epoch(1, v[p], acts))
            assert np.array_equal(best[p], alone[0]) and np.array_equal(choice[p], alone[1])


def test_tabulated_reward_blocks_change_no_q_bit(monkeypatch):
    """A _CHUNK_ENTRIES small enough to split the expected reward into
    blocks of two activities leaves every Q bit as one block gives: each
    bin of the bincount adds its terms in pair order."""
    caps, T, A = (1, 2), 2, 25
    rng = np.random.default_rng(3)
    rew = stodep.GeneralTabulatedReward.from_potential(
        CoverageFunction(3, (frozenset({0, 1}), frozenset({2})), (1.0, 0.5, 0.25)), caps, T,
    )
    inst = make_instance(capacities=caps, horizon=T, schedule=rng.random((T, A, 2)), reward=rew)
    v = rng.random((3, 6))
    cases = [(t, v_next, acts, one_step) for t in range(T)
             for acts in (np.arange(A), np.arange(1, A, 3))
             for v_next, one_step in ((None, False), (v[0], False), (v, True))]
    want = [stodep.dp.BellmanOperator(inst).q(*case) for case in cases]
    pairs = stodep.rewards.pair_count(caps)
    monkeypatch.setattr(stodep.dp, "_CHUNK_ENTRIES", 2 * pairs)
    blocks = []
    real_bincount = np.bincount

    def bincount(x, weights=None, minlength=0):
        if weights is not None:
            blocks.append(len(weights) // pairs)
        return real_bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", bincount)
    blocked = stodep.dp.BellmanOperator(inst)
    for case, q in zip(cases, want):
        _same_bits(blocked.q(*case), q)
    assert max(blocks) == 2 and len(blocks) > 2 * T


def test_optimal_policy_evaluates_to_the_solved_values_bit_for_bit():
    """J^optimal = J*: evaluating the solve's own choices recomputes the Q the
    solve maximised over, with the same bits, on 5-type linear tables where a
    BLAS product's rounding depends on its row count."""
    M, c, T, A = 5, 3, 4, 20
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for reward in (
            LinearReward(tuple(rng.random(M).tolist())),
            LinearDecayingReward(
                tuple(tuple(sorted(rng.random(T).tolist(), reverse=True)) for _ in range(M))
            ),
        ):
            inst = make_instance(capacities=(c,) * M, horizon=T,
                                 schedule=rng.random((T, A, M)), reward=reward)
            table = solve_clairvoyant(inst)
            evaluated = evaluate_policy_exact(inst, optimal_policy_from_table(table))
            assert evaluated.values.tobytes() == table.values.tobytes()


@pytest.mark.parametrize("route", ["linear", "linear_decaying", "coverage", "tabulated"])
def test_optimal_policy_value_is_j_star_within_the_tie_slack(route):
    """J* is the maximum Q, while the optimal policy takes the lowest
    activity within tie_slack of it, whose Q can lie an ulp lower.  So
    J^optimal matches J* only to horizon * tie_slack(J*), and the audit of
    J^optimal against the policy's own choices passes."""
    for seed in range(6):
        inst = _sparse_instance(route, np.random.default_rng(seed))
        table = solve_clairvoyant(inst)
        policy = optimal_policy_from_table(table)
        got = evaluate_policy_exact(inst, policy)
        assert audit_table(inst, got, policy=policy).passed
        assert (np.abs(got.values - table.values) <= inst.horizon * tie_slack(table.values)).all()


def test_no_policies_make_no_tables(worst_case_tenth):
    assert evaluate_policies_exact(worst_case_tenth, []) == []
    config = {"app": "random-linear-decaying", "seeds": [1], "policies": [],
              "properties": ["ratio:2"]}
    args = argparse.Namespace(tol=1e-9, cap_activities=10**5, cap_states=10**7)
    (row, _), = cli._batch_rows(config, args)[1]
    assert row["error"] is None and row["ratio:2"] is True


def test_the_solves_own_policy_needs_the_solve(worst_case_tenth):
    table, (optimal, again) = solve_and_evaluate(worst_case_tenth, [OPTIMAL, OPTIMAL])
    assert optimal.policy_name == "optimal"
    assert optimal.values.tobytes() == again.values.tobytes() == table.values.tobytes()
    with pytest.raises(stodep.ConfigError):
        evaluate_policies_exact(worst_case_tenth, [OPTIMAL])


def _policy_names(inst):
    return st.one_of(
        st.sampled_from(["myopic", "optimal", "round_robin"]),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]).map(lambda a: f"approx:{a:g}"),
        st.integers(0, inst.num_activities - 1).map(lambda j: f"fixed:{j}"),
        st.integers(0, 2**32).map(lambda s: f"random:{s}"),
    )


@settings(max_examples=40, deadline=None)
@given(inst=st.one_of(small_instances(), multi_chunk_instances()), data=st.data())
def test_stacked_evaluation_matches_one_at_a_time(inst, data):
    names = data.draw(st.lists(_policy_names(inst), min_size=1, max_size=5))
    with pytest.MonkeyPatch.context() as mp:
        _eight_per_chunk(mp, inst)
        table = solve_clairvoyant(inst)
        shared = {}
        # A repeated name is sometimes the same policy object, sometimes a new one.
        policies = [
            shared.setdefault(name, stodep.policy_from_name(name, table=table))
            if data.draw(st.booleans()) else stodep.policy_from_name(name, table=table)
            for name in names
        ]
        stacked = evaluate_policies_exact(inst, policies)
        assert len(stacked) == len(names)
        for name, got in zip(names, stacked):
            alone = evaluate_policy_exact(inst, stodep.policy_from_name(name, table=table))
            assert got.policy_name == alone.policy_name == name
            assert got.values.tobytes() == alone.values.tobytes()
            assert got.best_activity.tobytes() == alone.best_activity.tobytes()
            oracle = value_function_oracle(inst, stodep.policy_from_name(name, table=table))
            _assert_table_matches(got, inst, oracle)


@settings(max_examples=40, deadline=None)
@given(inst=st.one_of(small_instances(), multi_chunk_instances()), data=st.data())
def test_one_sweep_matches_the_separate_solve_tables_and_evaluation(inst, data):
    names = data.draw(st.lists(_policy_names(inst), max_size=5))
    with pytest.MonkeyPatch.context() as mp:
        _eight_per_chunk(mp, inst)
        table = solve_clairvoyant(inst)
        separate = [stodep.policy_from_name(name, table=table) for name in names]
        decisions = decision_tables(inst, separate)
        expected = evaluate_policies_exact(inst, separate)
        shared = {}
        # A repeated name is sometimes the same policy object, sometimes a new one.
        policies = [
            shared.setdefault(name, _sweep_policy(name)) if data.draw(st.booleans())
            else _sweep_policy(name)
            for name in names
        ]
        warm = [p for p in policies if data.draw(st.booleans()) and p != OPTIMAL]
        decision_tables(inst, warm)  # their memos already hold their tables
        solved, evaluated = solve_and_evaluate(inst, policies)
    assert solved.values.tobytes() == table.values.tobytes()
    assert solved.best_activity.tobytes() == table.best_activity.tobytes()
    assert len(evaluated) == len(names)
    for name, policy, chosen, want, got in zip(names, policies, decisions, expected, evaluated):
        assert got.policy_name == want.policy_name == name
        assert got.values.tobytes() == want.values.tobytes()
        assert got.best_activity.tobytes() == want.best_activity.tobytes() == chosen.tobytes()
        if policy != OPTIMAL:  # a one-step policy keeps the table it chose in the sweep
            assert policy.decisions(inst).tobytes() == chosen.tobytes()


def _sharing_instance(case, rng):
    """Five types of capacity 3 (three small types on the tabulated route)
    and 12 activities with a dense schedule, or a _sparse_instance."""
    if case.startswith("sparse-"):
        return _sparse_instance(case[len("sparse-"):], rng)
    caps, T, A = ((2, 1, 2) if case == "tabulated" else (3,) * 5), 3, 12
    M = len(caps)
    if case == "linear_decaying":
        reward = LinearDecayingReward(
            tuple(tuple(sorted(rng.random(T).tolist(), reverse=True)) for _ in range(M))
        )
    elif case == "budgeted":
        reward = SubmodularReward(BudgetedLinearFunction(
            tuple(3.0 * rng.random(2)), tuple(2.0 * rng.random(M)), tuple(rng.integers(0, 2, M))
        ))
    else:
        covers = tuple(frozenset(e for e in range(M + 2) if rng.random() < 0.5) for _ in range(M))
        cover = CoverageFunction(M + 2, covers, tuple(rng.random(M + 2)))
        reward = (SubmodularReward(cover) if case == "coverage"
                  else stodep.GeneralTabulatedReward.from_potential(cover, caps, T))
    return make_instance(capacities=caps, horizon=T, schedule=rng.random((T, A, M)), reward=reward)


@pytest.mark.parametrize("case", [
    "linear_decaying", "coverage", "budgeted", "tabulated",
    "sparse-linear", "sparse-linear_decaying", "sparse-coverage", "sparse-tabulated",
])
def test_q_rows_do_not_depend_on_the_activities_sharing_the_call(case):
    """On tables large enough (5 types, 1024 states; 18 states on the
    tabulated route) that a BLAS product's rounding depends on its row count,
    Q and the evaluations are bit for bit the same whichever activities and
    value vectors share an operator call: on schedules with no 0 and no 1,
    and on schedules with 0 and 1 entries and repeated rows, where a call
    goes through the distinct rows."""
    rng = np.random.default_rng(1)
    inst = _sharing_instance(case, rng)
    T, A = inst.horizon, inst.num_activities
    op = stodep.dp.bellman_operator(inst)
    v = rng.random((3, op.num_states))
    for t in range(T):
        for v_next in (None, v[0], v):
            together = op.q(t, v_next, np.arange(A))
            for a in range(A):
                assert np.array_equal(op.q(t, v_next, np.array([a]))[..., 0, :],
                                      together[..., a, :])
        assert all(np.array_equal(op.q(t, v[p], np.arange(A)), together[p]) for p in range(3))
    table = solve_clairvoyant(inst)
    names = ["myopic", "approx:2", "optimal", "fixed:0", "round_robin"]
    stacked = evaluate_policies_exact(
        inst, [stodep.policy_from_name(n, table=table) for n in names]
    )
    for name, got in zip(names, stacked):
        alone = evaluate_policy_exact(inst, stodep.policy_from_name(name, table=table))
        assert got.values.tobytes() == alone.values.tobytes()


def _assert_rewards_match_the_oracle(inst):
    """BellmanOperator.rewards gives the oracle's g bit for bit at every
    (x, x' <= x, t < horizon): in check_ir's broadcast form, in a rollout's
    one epoch per pair and through stodep.reward one transition at a time."""
    op, T = stodep.dp.bellman_operator(inst), inst.horizon
    states = [tuple(x) for x in op.items.tolist()]
    pairs = [(i, j) for i, x in enumerate(states) for j, y in enumerate(states)
             if all(b <= a for a, b in zip(x, y))]
    x, x_next = (np.array(column) for column in zip(*pairs))
    want = np.array([[reward_oracle(inst, states[i], states[j], t) for t in range(T)]
                     for i, j in pairs])
    _same_bits(op.rewards(x[:, None], x_next[:, None], np.arange(T)), want)
    t = np.arange(len(pairs)) % T
    _same_bits(np.asarray(op.rewards(x, x_next, t), dtype=np.float64), want[np.arange(len(pairs)), t])
    one_by_one = [[stodep.reward(states[i], states[j], t, inst) for t in range(T)] for i, j in pairs]
    _same_bits(np.array(one_by_one), want)


@settings(max_examples=60, deadline=None)
@given(inst=small_instances())
def test_rewards_match_the_oracle(inst):
    _assert_rewards_match_the_oracle(inst)


@pytest.mark.parametrize("reward", [
    LinearReward((-0.0, -0.0, -0.0)),
    LinearDecayingReward(((0.5, -0.0), (0.25, -0.0), (1.0, -0.0))),
], ids=["linear", "linear_decaying"])
def test_rewards_of_negative_zero_weights_are_positive_zero(reward):
    """A sum of -0.0 terms is +0.0, as the oracle's sum from 0 gives."""
    inst = make_instance(capacities=(1, 2, 1), horizon=2, schedule=np.full((2, 2, 3), 0.5),
                         reward=reward)
    _assert_rewards_match_the_oracle(inst)
    assert not np.signbit(stodep.dp.bellman_operator(inst).rewards(3, 2, 1))


# Every (x, x', t) entry of a table over capacities (1, 1) and horizon 2.
_TABLE_ENTRIES = stodep.GeneralTabulatedReward.from_potential(
    lambda y: float(sum(y)), (1, 1), 2).spec_dict()["entries"]


@pytest.mark.parametrize("reward, entry", [
    (LinearReward((1.0, math.inf)), "reward.weights[1] is inf"),
    (LinearDecayingReward(((1.0, 0.5), (0.9, math.nan))), "reward.weights[1, 1] is nan"),
    (SubmodularReward(CoverageFunction(2, (frozenset({0}), frozenset({1})), (math.inf, 1.0))),
     "reward potential w((1, 1)) is inf"),
    (SubmodularReward(BudgetedLinearFunction((math.nan,), (1.0, 1.0), (0, 0))),
     "reward potential w((1, 1)) is nan"),
    (stodep.GeneralTabulatedReward.from_entries(
        [[x, y, t, math.inf if (x, y, t) == ([1, 1], [1, 0], 1) else 1.0]
         for x, y, t, _ in _TABLE_ENTRIES]),
     "tabulated reward entry ((1, 1), (1, 0), 1) is inf"),
], ids=["linear", "linear_decaying", "coverage", "budgeted", "tabulated"])
def test_operator_refuses_non_finite_reward_data(reward, entry):
    """The operator names the first reward weight, potential value or
    tabulated value that is not finite, before computing with any of them."""
    inst = make_instance(capacities=(1, 1), horizon=2, schedule=np.full((2, 2, 2), 0.5),
                         reward=reward)
    with pytest.raises(ConfigError, match=re.escape(entry)):  # RuntimeWarnings are errors here
        solve_clairvoyant(inst)


@st.composite
def stored_tables(draw):
    """(capacities, horizon, table) of a complete tabulated reward with
    arbitrary values, zeros of both signs among them, and each pair's
    terminal entry present or not."""
    M, T = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    caps = tuple(draw(st.integers(0, 2)) for _ in range(M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = {}
    for x in itertools.product(*(range(c + 1) for c in caps)):
        for x_next in itertools.product(*(range(v + 1) for v in x)):
            for t in range(T + (rng.random() < 0.5)):
                table[(x, x_next, t)] = rng.choice([0.0, -0.0, rng.normal()])
    return caps, T, table


def _table_instance(caps, T, table):
    return make_instance(capacities=caps, horizon=T, schedule=np.full((T, 2, len(caps)), 0.5),
                         reward=stodep.GeneralTabulatedReward(table))


@settings(max_examples=60, deadline=None)
@given(case=stored_tables())
def test_tabulated_rewards_are_the_stored_entries(case):
    """op.rewards reads each (x, x', t < horizon) entry as it is stored, bit
    for bit, one pair at a time and broadcast over pairs and epochs."""
    caps, T, table = case
    inst = _table_instance(caps, T, table)
    op = stodep.dp.bellman_operator(inst)
    radices = mixed_radix_radices(caps)
    keys = [k for k in sorted(table) if k[2] < T]
    x, x_next = ([state_index(k[i], radices) for k in keys[::T]] for i in (0, 1))
    want = np.array([table[k] for k in keys]).reshape(-1, T)
    _same_bits(op.rewards(np.array(x)[:, None], np.array(x_next)[:, None], np.arange(T)), want)
    for k in keys:
        got = op.rewards(state_index(k[0], radices), state_index(k[1], radices), k[2])
        assert np.float64(got).tobytes() == np.float64(table[k]).tobytes()


@settings(max_examples=40, deadline=None)
@given(case=stored_tables(), data=st.data())
def test_a_missing_tabulated_entry_is_named_lexicographically_first(case, data):
    """Building the instance names the first missing (x, x', t < horizon)
    in lexicographic order, whichever entries are missing."""
    caps, T, table = case
    keys = sorted(k for k in table if k[2] < T)
    drop = data.draw(st.sets(st.sampled_from(keys), min_size=1, max_size=4))
    kept = {k: v for k, v in table.items() if k not in drop}
    if not kept:
        return  # the constructor refuses a table with no entries
    with pytest.raises(stodep.ConfigError, match=re.escape(f"no entry for {min(drop)}")):
        _table_instance(caps, T, kept)


def test_a_tabulated_reward_needs_only_the_state_cap():
    """27 states and 3 epochs: the value table's 108 entries fit a cap of
    200, and the solve and policy values match the oracle, though the
    T * S * S = 2187 cells of a dense reward array would not."""
    caps, T = (2, 2, 2), 3
    rng = np.random.default_rng(6)
    cover = CoverageFunction(4, (frozenset({0, 1}), frozenset({1, 2}), frozenset({3})),
                             tuple(rng.random(4)))
    inst = make_instance(capacities=caps, horizon=T, schedule=rng.random((T, 4, 3)),
                         reward=stodep.GeneralTabulatedReward.from_potential(cover, caps, T))
    table, (myopic,) = solve_and_evaluate(inst, [myopic_policy()], state_cap=200)
    _assert_table_matches(table, inst, value_function_oracle(inst))
    _assert_table_matches(myopic, inst, value_function_oracle(inst, myopic_policy()))
    with pytest.raises(StateSpaceCapExceeded):
        solve_clairvoyant(inst, state_cap=107)


# ------------------------------- schedules with 0/1 entries and repeated rows


def _dense_operator(inst):
    """inst's operator with the schedule's structure switched off: every
    epoch contracts every type of every activity, as on a dense schedule."""
    op = stodep.dp.BellmanOperator(inst)
    op._distinct = {}
    return op


def _same_bits(got, want):
    np.testing.assert_array_equal(got, want, strict=True)
    assert got.tobytes() == want.tobytes()


def _assert_q_matches_dense(inst, rng):
    op, dense = stodep.dp.bellman_operator(inst), _dense_operator(inst)
    S, A = op.num_states, inst.num_activities
    v = 4.0 * rng.random((3, S))
    states = rng.choice(S, size=min(S, 6), replace=False)
    for t in range(inst.horizon):
        for acts in (np.arange(A), np.array([A - 1]), np.arange(0, A, 2)):
            for v_next, one_step in ((None, False), (v[0], False), (v, False), (v, True)):
                _same_bits(op.q(t, v_next, acts, one_step), dense.q(t, v_next, acts, one_step))
        for a in range(A):  # one-activity reads of the operator
            want = dense.q(t, None, np.array([a]))[0, states]
            got = [stodep.expected_one_step_reward(State(tuple(op.items[i].tolist()), t), a, inst)
                   for i in states]
            _same_bits(np.array(got), want)


@settings(max_examples=60, deadline=None)
@given(inst=st.one_of(small_instances(), multi_chunk_instances()), seed=st.integers(0, 2**32 - 1))
def test_distinct_rows_give_the_dense_routes_bits(inst, seed):
    """Skipping p = 0 types, copying p = 1 types and computing each distinct
    schedule row once leave every Q bit as contracting every type gives."""
    _assert_q_matches_dense(inst, np.random.default_rng(seed))


def _sparse_instance(route, rng):
    """Five types of capacity 3 (three small types on the tabulated route),
    with 0 and 1 entries and repeated rows at epochs 0 and 2, neither at 1."""
    caps, A = ((2, 1, 2), 12) if route == "tabulated" else ((3,) * 5, 20)
    T, M = 3, len(caps)
    schedule = rng.random((T, A, M))
    draw = rng.random((T, A, M))
    schedule[draw < 0.5] = 0.0
    schedule[draw > 0.85] = 1.0
    schedule[1] = 0.05 + 0.9 * rng.random((A, M))
    schedule[0, 1::3] = schedule[0, 0]
    schedule[2, A // 2:] = schedule[2, :A - A // 2]
    if route == "linear":
        reward = LinearReward(tuple(rng.random(M).tolist()))
    elif route == "linear_decaying":
        reward = LinearDecayingReward(
            tuple(tuple(sorted(rng.random(T).tolist(), reverse=True)) for _ in range(M))
        )
    else:
        covers = tuple(frozenset(e for e in range(M + 2) if rng.random() < 0.5) for _ in range(M))
        cover = CoverageFunction(M + 2, covers, tuple(rng.random(M + 2)))
        reward = (SubmodularReward(cover) if route == "coverage"
                  else stodep.GeneralTabulatedReward.from_potential(cover, caps, T))
    return make_instance(capacities=caps, horizon=T, schedule=schedule, reward=reward)


@pytest.mark.parametrize("route", ["linear", "linear_decaying", "coverage", "tabulated"])
def test_sparse_schedules_give_the_dense_routes_bits(route):
    """On tables large enough (1024 states) that a BLAS product's rounding
    depends on its shape, the distinct rows give the Q of contracting every
    type (_dense_operator), and so its solve and policy values, bit for bit."""
    inst = _sparse_instance(route, np.random.default_rng(11))
    assert sorted(stodep.dp.bellman_operator(inst)._distinct) == [0, 2]
    _assert_q_matches_dense(inst, np.random.default_rng(12))
    twin = _sparse_instance(route, np.random.default_rng(11))
    vars(twin)["_bellman_operator"] = _dense_operator(twin)
    (solved, evaluated), (want, expected) = (
        solve_and_evaluate(i, [myopic_policy(), stodep.approx_myopic_policy(2.0), OPTIMAL])
        for i in (inst, twin)
    )
    for got, table in zip([solved, *evaluated], [want, *expected]):
        _same_bits(got.values, table.values)
        _same_bits(got.best_activity, table.best_activity)


def _kept_bytes(op):
    """Bytes of the binomial matrices and reward rows the operator keeps."""
    kept = op._block.values()
    return (sum(mat.nbytes for _, _, types, _ in kept for _, _, mat, _, _ in types)
            + sum(reward.nbytes for *_, reward in kept))


def test_kept_matrices_stay_within_their_budget(monkeypatch):
    """The operator keeps one block of epochs' data within _EPOCH_BUDGET and
    builds the next block as a sweep reaches it, with the same Q bits;
    below one epoch's data it keeps none."""
    rng = np.random.default_rng(8)
    caps, T, A = (2, 3, 1), 4, 60
    schedule = rng.random((T, A, 3))
    schedule[rng.random(schedule.shape) < 0.3] = 0.0
    reward = LinearDecayingReward(
        tuple(tuple(sorted(rng.random(T).tolist(), reverse=True)) for _ in caps)
    )
    inst = make_instance(capacities=caps, horizon=T, schedule=schedule, reward=reward)
    op = stodep.dp.bellman_operator(inst)
    dense = _dense_operator(inst)
    v = rng.random((2, op.num_states))
    for budget in (2 * op._epoch_bytes + 1, op._epoch_bytes - 1):
        monkeypatch.setattr(stodep.dp, "_EPOCH_BUDGET", budget)
        op._block = {}
        for _ in range(2):
            for t in range(T - 1, -1, -1):
                _same_bits(op.q(t, v, np.arange(A)), dense.q(t, v, np.arange(A)))
                assert sorted(op._block) == ([t // 2 * 2, t // 2 * 2 + 1] if budget > op._epoch_bytes
                                             else [])
                assert _kept_bytes(op) <= budget


def test_solve_and_audit_build_each_epochs_matrices_once(monkeypatch):
    params = {"num_buffers": 2, "num_servers": 2, "horizon": 3,
              "service_means": [[1.5, 2.0], [3.0, 1.2]],
              "rewards": [[1.0, 0.8, 0.5], [0.9, 0.6, 0.2]],
              "arrival_trace": [[1, 1, 0], [1, 0, 1]]}
    inst = stodep.apps.build_queueing_instance(stodep.apps.queueing_params_from_dict(params))
    calls = []
    real = stodep.dp.BellmanOperator._matrices

    def matrices(self, p):
        calls.append(len(p))
        return real(self, p)

    monkeypatch.setattr(stodep.dp.BellmanOperator, "_matrices", matrices)
    op = stodep.dp.bellman_operator(inst)
    assert sorted(op._distinct) == [0, 1, 2]
    table = solve_clairvoyant(inst)
    assert audit_table(inst, table).passed
    # One evaluation for the block of all three epochs, each epoch's distinct rows once.
    assert calls == [sum(len(op._distinct[t][1]) for t in range(3))]
    assert all(len(op._distinct[t][1]) < inst.num_activities for t in (0, 1))


def test_tabulated_q_builds_its_matrices_once(monkeypatch):
    """At an epoch with no 0 and no 1, the expected reward and the
    expectation of V share one set of binomial matrices: built per call over
    some activities, and once per block of epochs for calls over all."""
    rng = np.random.default_rng(4)
    caps, T, A = (2, 1, 2), 2, 3
    cover = CoverageFunction(3, (frozenset({0}), frozenset({1, 2}), frozenset({2})), (1.0, 0.5, 0.25))
    inst = make_instance(capacities=caps, horizon=T, schedule=0.05 + 0.9 * rng.random((T, A, 3)),
                         reward=stodep.GeneralTabulatedReward.from_potential(cover, caps, T))
    op = stodep.dp.bellman_operator(inst)
    assert not op._distinct
    v = rng.random((2, op.num_states))
    cases = [(acts, v_next, one_step) for acts in (np.arange(A), np.array([1]))
             for v_next, one_step in ((None, False), (v[0], False), (v, False), (v, True))]
    want = [op.q(1, v_next, acts, one_step) for acts, v_next, one_step in cases]
    calls = []
    real = stodep.dp.BellmanOperator._matrices

    def matrices(self, p):
        calls.append(len(p))
        return real(self, p)

    monkeypatch.setattr(stodep.dp.BellmanOperator, "_matrices", matrices)
    for (acts, v_next, one_step), q in zip(cases, want):
        calls.clear()
        _same_bits(op.q(1, v_next, acts, one_step), q)
        assert calls == ([] if len(acts) == A else [len(acts)])
    fresh = stodep.dp.BellmanOperator(inst)
    calls.clear()
    _same_bits(fresh.q(1, v, np.arange(A)), want[2])
    assert calls == [T * A]  # both epochs' matrices, from one evaluation


@settings(max_examples=30, deadline=None)
@given(inst=st.one_of(small_instances(), multi_chunk_instances()), data=st.data())
def test_shared_one_step_sweep_gives_each_policy_its_own_table(inst, data):
    alphas = data.draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), max_size=3))
    with pytest.MonkeyPatch.context() as mp:
        _eight_per_chunk(mp, inst)
        calls = _counting_q(mp)
        policies = [myopic_policy()] + [stodep.approx_myopic_policy(a) for a in alphas]
        shared = decision_tables(inst, policies)
        once = Counter(calls)  # one sweep, whatever the number of rules
        assert once == {t: -(-inst.num_activities // _CHUNK) for t in range(inst.horizon)}
        for policy, table in zip(policies, shared):
            alone = stodep.policy_from_name(policy.name).decisions(inst)
            assert table.dtype == alone.dtype and np.array_equal(table, alone)


@settings(max_examples=40, deadline=None)
@given(inst=small_instances(), data=st.data())
def test_audit_rejects_one_perturbed_entry(inst, data):
    table = solve_clairvoyant(inst)
    assert audit_table(inst, table).passed
    si = data.draw(st.integers(0, table.num_states - 1))
    t = data.draw(st.integers(0, inst.horizon))
    table.values[si, t] += 1e-6 * max(1.0, abs(table.values[si, t]))
    assert not audit_table(inst, table).passed


# ------------------------------------------------ per-instance reuse and lifetime


@pytest.mark.parametrize("name", ["myopic", "approx:2", "optimal"])
def test_table_policies_are_evaluated_without_select(name, monkeypatch):
    inst = random_linear_decaying_instance(10)
    policy = stodep.policy_from_name(name, table=solve_clairvoyant(inst))
    expected = evaluate_policy_exact(inst, policy)

    def no_select(state, instance):
        raise AssertionError("select called during evaluation")

    monkeypatch.setattr(policy, "select", no_select)
    again = evaluate_policy_exact(inst, policy)
    assert np.array_equal(again.values, expected.values)
    assert np.array_equal(again.best_activity, expected.best_activity)
    assert audit_table(inst, again, policy=policy).passed


def test_tabulated_rewards_are_read_without_the_table_mapping(monkeypatch):
    caps, T = (2, 1, 2), 3
    rew = stodep.GeneralTabulatedReward.from_potential(
        CoverageFunction(3, (frozenset({0}), frozenset({1, 2}), frozenset({2})), (1.0, 0.5, 0.25)),
        caps, T,
    )
    inst = make_instance(capacities=caps, horizon=T, schedule=np.full((T, 2, 3), 0.4), reward=rew)
    saved = io.StringIO()
    stodep.save_instance(inst, saved)
    expected = solve_clairvoyant(inst)

    def no_table(self):
        raise AssertionError("table mapping read")

    monkeypatch.setattr(stodep.GeneralTabulatedReward, "table", property(no_table), raising=False)
    saved.seek(0)
    loaded = stodep.load_instance(saved)  # parses and validates
    assert stodep.check_assumption1(loaded).passed
    table = solve_clairvoyant(loaded)
    assert np.array_equal(table.values, expected.values)
    assert stodep.check_ir(loaded, table).passed
    assert loaded.reward.spec_dict() == rew.spec_dict()
    assert stodep.instance_fingerprint(loaded) == stodep.instance_fingerprint(inst)
    with pytest.raises(AssertionError, match="table mapping read"):
        loaded.reward.table


def test_one_instance_builds_one_operator_and_one_fingerprint(monkeypatch):
    built, hashed = [], []
    real_operator = stodep.dp.BellmanOperator
    real_layout = stodep.serialize._fingerprint_layout

    def operator(instance):
        built.append(instance)
        return real_operator(instance)

    def layout(instance):
        hashed.append(instance)
        return real_layout(instance)

    monkeypatch.setattr(stodep.dp, "BellmanOperator", operator)
    monkeypatch.setattr(stodep.serialize, "_fingerprint_layout", layout)
    inst = random_linear_decaying_instance(10)
    table = solve_clairvoyant(inst)
    for policy in (myopic_policy(), stodep.approx_myopic_policy(2.0), stodep.RoundRobinPolicy()):
        evaluate_policy_exact(inst, policy)
    assert stodep.check_ir(inst, table).passed
    assert audit_table(inst, table).passed
    assert built == [inst] and hashed == [inst]


def test_cap_is_checked_on_every_call():
    inst = random_linear_decaying_instance(10)
    solve_clairvoyant(inst)  # builds and keeps the operator
    with pytest.raises(StateSpaceCapExceeded):
        solve_clairvoyant(inst, state_cap=1)
    with pytest.raises(StateSpaceCapExceeded):
        evaluate_policy_exact(inst, stodep.RoundRobinPolicy(), state_cap=1)


def test_solved_instance_is_freed():
    inst = random_linear_decaying_instance(10)
    table = solve_clairvoyant(inst)
    for policy in (myopic_policy(), optimal_policy_from_table(table)):
        evaluate_policy_exact(inst, policy)
    assert audit_table(inst, table).passed
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
