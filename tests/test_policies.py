import numpy as np
import pytest

import stodep
from stodep import (
    ConfigError,
    DomainError,
    LinearReward,
    State,
    approx_myopic_policy,
    myopic_policy,
    optimal_policy_from_table,
    policy_from_name,
    solve_clairvoyant,
)
from stodep.apps import random_linear_decaying_instance, random_submodular_instance

from conftest import make_instance
from oracles import q_oracle


def all_states(instance):
    import itertools

    for t in range(instance.horizon):
        for items in itertools.product(*(range(c + 1) for c in instance.capacities)):
            yield State(items, t)


def test_myopic_on_worst_case(worst_case_tenth):
    assert myopic_policy().select(State((1, 1), 0), worst_case_tenth) == 0


def test_optimal_on_worst_case(worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    assert optimal_policy_from_table(table).select(State((1, 1), 0), worst_case_tenth) == 1


def test_single_activity_always_chosen():
    inst = make_instance(
        capacities=(1,), horizon=2, schedule=[[[0.3]], [[0.3]]], reward=LinearReward((1.0,))
    )
    pol = myopic_policy()
    for s in all_states(inst):
        assert pol.select(s, inst) == 0


def test_myopic_one_step_dominance():
    pol = myopic_policy()
    for seed in (0, 4, 9):
        inst = random_submodular_instance(seed)
        for s in all_states(inst):
            chosen = q_oracle(inst, s.items, s.epoch, pol.select(s, inst))
            for a in range(inst.num_activities):
                assert chosen >= q_oracle(inst, s.items, s.epoch, a)


def test_myopic_agrees_with_optimal_at_last_epoch():
    pol = myopic_policy()
    for seed in (1, 6):
        inst = random_linear_decaying_instance(seed)
        table = solve_clairvoyant(inst)
        t = inst.horizon - 1
        import itertools

        for items in itertools.product(*(range(c + 1) for c in inst.capacities)):
            s = State(items, t)
            chosen = pol.select(s, inst)
            best = int(table.best_activity[table.state_index(items), t])
            # both maximize the same one-step objective; values must agree
            assert q_oracle(inst, items, t, chosen) == pytest.approx(
                q_oracle(inst, items, t, best), abs=1e-12
            )


def test_approx_alpha_one_matches_myopic():
    myo, approx = myopic_policy(), approx_myopic_policy(1.0)
    for seed in (2, 7):
        inst = random_submodular_instance(seed)
        for s in all_states(inst):
            assert approx.select(s, inst) == myo.select(s, inst)


def test_approx_two_on_worst_case(worst_case_tenth):
    # both activities clear the half-of-max threshold; the oracle takes the worse
    assert approx_myopic_policy(2.0).select(State((1, 1), 0), worst_case_tenth) == 1


def test_approx_breaks_ties_low():
    inst = make_instance(
        capacities=(1,),
        horizon=1,
        schedule=[[[0.5], [0.5], [0.5]]],
        reward=LinearReward((1.0,)),
    )
    assert approx_myopic_policy(3.0).select(State((1,), 0), inst) == 0


def test_approx_one_step_guarantee():
    for alpha in (1.5, 2.0):
        approx = approx_myopic_policy(alpha)
        for seed in (3, 8):
            inst = random_submodular_instance(seed)
            for s in all_states(inst):
                chosen = q_oracle(inst, s.items, s.epoch, approx.select(s, inst))
                best = max(q_oracle(inst, s.items, s.epoch, a) for a in range(inst.num_activities))
                assert chosen >= best / alpha - 1e-12


def test_approx_alpha_below_one_rejected():
    with pytest.raises(ConfigError):
        approx_myopic_policy(0.5)
    for name in ("approx:nan", "approx:-inf", "approx:0.5"):
        with pytest.raises(ConfigError, match="alpha must be >= 1"):
            policy_from_name(name)


def test_baselines(worst_case_tenth):
    fixed = stodep.FixedPolicy(0)
    rr = stodep.RoundRobinPolicy()
    rand = stodep.SeededRandomPolicy(7)
    for s in all_states(worst_case_tenth):
        assert fixed.select(s, worst_case_tenth) == 0
        assert rr.select(s, worst_case_tenth) == s.epoch % 2
        assert rand.select(s, worst_case_tenth) == rand.select(s, worst_case_tenth)
    with pytest.raises(ConfigError):
        stodep.FixedPolicy(5).select(State((1, 1), 0), worst_case_tenth)
    with pytest.raises(ConfigError):
        stodep.FixedPolicy(-1)


def test_scaling_rewards_preserves_myopic_choice():
    # dyadic data and power-of-two scaling keep every comparison exact
    rng = np.random.default_rng(17)
    for scale in (2.0, 0.5, 4.0):
        sched = rng.integers(0, 9, size=(2, 3, 2)) / 8.0
        weights = tuple(float(v) for v in rng.integers(0, 17, size=2) / 16.0)
        base = make_instance(
            capacities=(2, 1), horizon=2, schedule=sched, reward=LinearReward(weights)
        )
        scaled = make_instance(
            capacities=(2, 1),
            horizon=2,
            schedule=sched,
            reward=LinearReward(tuple(scale * w for w in weights)),
        )
        pol_a, pol_b = myopic_policy(), myopic_policy()
        for s in all_states(base):
            assert pol_a.select(s, base) == pol_b.select(s, scaled)


def test_policy_from_name():
    assert policy_from_name("myopic").name == "myopic"
    assert policy_from_name("approx:2").alpha == 2.0
    assert policy_from_name("random:5").seed == 5
    assert policy_from_name("fixed:1").activity == 1
    assert policy_from_name("round_robin").name == "round_robin"
    with pytest.raises(ConfigError):
        policy_from_name("optimal")
    with pytest.raises(ConfigError):
        policy_from_name("nope")


@pytest.mark.parametrize("name", ["myopic", "approx:2", "optimal"])
def test_select_rejects_states_outside_the_table(name, worst_case_tenth):
    policy = policy_from_name(name, table=solve_clairvoyant(worst_case_tenth))
    assert policy.select(State((1, 1), 1), worst_case_tenth) in (0, 1)
    for state in (
        State((-1, 0), 0),  # negative items
        State((2, 0), 0),  # above capacity
        State((1, 1), -1),  # negative epoch
        State((1, 1), 2),  # the terminal epoch
        State((1,), 0),  # wrong number of types
    ):
        with pytest.raises(DomainError):
            policy.select(state, worst_case_tenth)
