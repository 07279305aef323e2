import hashlib
import json
import math

import numpy as np
import pytest

import stodep
from stodep import (
    BudgetedLinearFunction,
    CoverageFunction,
    GeneralTabulatedReward,
    LinearReward,
    SubmodularReward,
    apply_depletion_with_step,
    evaluate_policy_exact,
    mix64,
    monte_carlo_value,
    myopic_policy,
    simulate_episode,
    solve_clairvoyant,
    optimal_policy_from_table,
)
from stodep.apps import (
    QueueingParams,
    build_queueing_instance,
    random_linear_decaying_instance,
    random_submodular_instance,
)

from conftest import make_instance


def test_worst_case_episode_totals(worst_case_tenth):
    # dynamics are deterministic, so any seed gives the same totals
    myopic_trace = simulate_episode(worst_case_tenth, myopic_policy(), seed=1)
    assert myopic_trace.total_reward == 1.0
    table = solve_clairvoyant(worst_case_tenth)
    optimal_trace = simulate_episode(worst_case_tenth, optimal_policy_from_table(table), seed=1)
    assert optimal_trace.total_reward == pytest.approx(1.9, abs=1e-12)


def test_all_zero_schedule_earns_nothing():
    inst = make_instance(
        capacities=(2,), horizon=3, schedule=[[[0.0]]] * 3, reward=LinearReward((1.0,))
    )
    trace = simulate_episode(inst, myopic_policy(), seed=3)
    assert trace.total_reward == 0.0
    assert all(step.state.items == (2,) for step in trace.steps)


def test_trace_internal_consistency():
    inst = random_submodular_instance(14)
    trace = simulate_episode(inst, myopic_policy(), seed=99)
    total = 0.0
    items = inst.initial_items
    for t, step in enumerate(trace.steps):
        assert step.state.items == items
        assert step.state.epoch == t
        items = apply_depletion_with_step(step.state, step.outcome).items
        total += step.reward
    assert total == trace.total_reward


def test_episode_reproducible():
    inst = random_submodular_instance(8)
    a = simulate_episode(inst, myopic_policy(), seed=5)
    b = simulate_episode(inst, myopic_policy(), seed=5)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_monte_carlo_deterministic_dynamics_has_zero_stddev(worst_case_tenth):
    summary = monte_carlo_value(worst_case_tenth, myopic_policy(), 50, master_seed=0)
    assert summary.stddev == 0.0
    assert summary.std_error == 0.0
    assert summary.mean == 1.0


def test_monte_carlo_within_three_se_of_exact():
    inst = random_submodular_instance(25)
    policy = myopic_policy()
    exact = evaluate_policy_exact(inst, policy)
    j_exact = float(exact.values[exact.state_index(inst.initial_items), 0])
    summary = monte_carlo_value(inst, policy, 10_000, master_seed=31337)
    assert abs(summary.mean - j_exact) <= max(3 * summary.std_error, 1e-12)


def test_monte_carlo_reproducible():
    inst = random_submodular_instance(9)
    one = monte_carlo_value(inst, myopic_policy(), 200, master_seed=77)
    two = monte_carlo_value(inst, myopic_policy(), 200, master_seed=77)
    assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())


def test_mix64_is_stable_and_spread():
    # frozen values pin the documented splitmix64-style mixing
    assert mix64(0, 0) == 16294208416658607535
    assert mix64(42, 7) == mix64(42, 7)
    draws = {mix64(5, k) for k in range(1000)}
    assert len(draws) == 1000
    assert all(0 <= v < 2**64 for v in draws)


def test_summary_fields():
    inst = random_submodular_instance(2)
    summary = monte_carlo_value(inst, myopic_policy(), 100, master_seed=11)
    assert summary.n_reps == 100
    assert summary.policy_name == "myopic"
    assert summary.std_error == pytest.approx(summary.stddev / math.sqrt(100))


def _stream_instances():
    """One instance per reward route, plus the queueing reduction (73 activities)."""
    cover = CoverageFunction(4, (frozenset({0, 1}), frozenset({1, 2}), frozenset({3})),
                             (0.5, 0.25, 1.0, 0.75))
    schedule = 0.3 * np.random.default_rng(1).random((4, 3, 3))
    schedule[1, 0] = (0.0, 1.0, 0.5)
    budgeted = BudgetedLinearFunction((1.5, math.inf), (0.5, 0.75, 0.25), (0, 0, 1))
    queueing = QueueingParams(num_buffers=2, num_servers=2, horizon=4,
                              service_means=((1.5, 3.0), (2.0, 1.25)),
                              rewards=((1.0, 0.5), (2.0, 1.5, 0.25)), arrival_rates=(0.6, 0.5))
    return {
        "linear-decaying": random_linear_decaying_instance(4, max_capacity=3, max_horizon=5),
        "coverage": make_instance(capacities=(2, 3, 2), horizon=4, schedule=schedule,
                                  reward=SubmodularReward(cover)),
        "budgeted": make_instance(capacities=(2, 2, 3), horizon=4,
                                  schedule=0.4 * np.random.default_rng(3).random((4, 3, 3)),
                                  reward=SubmodularReward(budgeted)),
        "tabulated": make_instance(capacities=(2, 1, 2), horizon=3,
                                   schedule=np.random.default_rng(2).random((3, 2, 3)),
                                   reward=GeneralTabulatedReward.from_potential(cover, (2, 1, 2), 3)),
        "queueing": build_queueing_instance(queueing, seed=3),
    }


# (instance, policy): the first 16 hex digits of the SHA-256 of the JSON of
# the traces of seeds 0, 1 and 17, and the reprs of the mean and stddev of
# 300 replications at master seed 11.
PINNED_STREAMS = {
    ("linear-decaying", "myopic"): ("436d6ef73357bfcc", "3.451967880274843", "0.04143054318074998"),
    ("linear-decaying", "optimal"): ("436d6ef73357bfcc", "3.451967880274843", "0.04143054318074998"),
    ("linear-decaying", "round_robin"): ("0434c490de201cbe", "3.267366006627654", "0.16492773965234475"),
    ("linear-decaying", "random:3"): ("3dc300e85c432936", "3.368291801361962", "0.23509469155102955"),
    ("coverage", "myopic"): ("d6fdd7b2cd62fd20", "2.3333333333333335", "0.2842973304998131"),
    ("coverage", "optimal"): ("bb1e4223f4c66ce9", "2.3841666666666668", "0.2506666140385153"),
    ("coverage", "round_robin"): ("d020cecca0811801", "2.0616666666666665", "0.47639661488210217"),
    ("coverage", "random:3"): ("6deaa06158a268fb", "2.1575", "0.5008208145577762"),
    ("budgeted", "myopic"): ("3d16ed3bbbc4191c", "1.7241666666666666", "0.42047230835796445"),
    ("budgeted", "optimal"): ("977f2b040f22fde9", "1.7125", "0.4442709446281657"),
    ("budgeted", "round_robin"): ("351993bd0114d56e", "1.6583333333333334", "0.48334871001565893"),
    ("budgeted", "random:3"): ("7552832921ad18b8", "1.4883333333333333", "0.4287305936857036"),
    ("tabulated", "myopic"): ("de4402e18d47232c", "2.4825", "0.11880994350468013"),
    ("tabulated", "optimal"): ("de4402e18d47232c", "2.4825", "0.11880994350468013"),
    ("tabulated", "round_robin"): ("fef876bd7a7f3d69", "2.4066666666666667", "0.2991720272605817"),
    ("tabulated", "random:3"): ("b269805116c8c24c", "2.4191666666666665", "0.2726513673465476"),
    ("queueing", "myopic"): ("e4ba95c313261be0", "8.848333333333333", "1.604080464318707"),
    ("queueing", "optimal"): ("e4ba95c313261be0", "8.848333333333333", "1.604080464318707"),
    ("queueing", "round_robin"): ("b6a7d9b5da2a63f0", "0.33", "0.3313598211969564"),
    ("queueing", "random:3"): ("57a7a9de3082e8dd", "3.495", "1.565052597233404"),
}


def test_simulation_streams_are_pinned():
    # Seeded episodes and Monte Carlo summaries stay bit for bit what they
    # were: the draws, the policies' choices and every step's reward.
    got = {}
    for name, inst in _stream_instances().items():
        assert stodep.validate_instance(inst).passed
        for policy_name in ("myopic", "optimal", "round_robin", "random:3"):
            table = solve_clairvoyant(inst) if policy_name == "optimal" else None
            policy = stodep.policy_from_name(policy_name, table=table)
            traces = [simulate_episode(inst, policy, seed).to_dict() for seed in (0, 1, 17)]
            digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()[:16]
            summary = monte_carlo_value(inst, policy, 300, master_seed=11)
            got[name, policy_name] = (digest, repr(summary.mean), repr(summary.stddev))
    assert got == PINNED_STREAMS
