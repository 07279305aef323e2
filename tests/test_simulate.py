import collections
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stodep
from stodep import (
    BudgetedLinearFunction,
    CoverageFunction,
    GeneralTabulatedReward,
    LinearDecayingReward,
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

from stodep import simulate
from stodep.simulate import _generator_parts, _seed_words

from conftest import make_instance
from oracles import monte_carlo_oracle


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


@pytest.mark.parametrize("n, p, draws", [
    (3, 0.0, False), (0, 0.5, False), (0, 1.0, False), (3, -0.0, False), (3, 1.0, True),
])
def test_binomial_draws_nothing_at_p_zero_or_n_zero(n, p, draws):
    # Rollouts skip the binomial call of a type with no items left or p = 0:
    # the same stream only because numpy draws nothing there either.
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert rng.binomial(n, p) == (n if p == 1.0 else 0)
    assert (rng.bit_generator.state != before) == draws


def _zero_one_instance():
    """Exact 0s and 1s in the schedule, and types that run empty mid-episode."""
    schedule = 0.5 * np.random.default_rng(5).random((6, 3, 4))
    schedule[schedule < 0.2] = 0.0
    schedule[0, 2] = (1.0, 0.0, 1.0, 0.0)
    schedule[3, 1, :2] = 1.0
    schedule[1, :, 3] = 1.0  # type 3 runs empty at epoch 1 whatever the choice
    schedule[2:, :, 3] = 0.5  # and is asked for again once it is empty
    weights = ((1.0, 0.9, 0.8, 0.5, 0.4, 0.1), (0.5, 0.5, 0.4, 0.4, 0.2, 0.2),
               (0.75, 0.75, 0.6, 0.6, 0.3, 0.3), (2.0, 1.5, 1.0, 1.0, 0.5, 0.25))
    return make_instance(capacities=(3, 2, 4, 1), horizon=6, schedule=schedule,
                         reward=LinearDecayingReward(weights), initial_items=(3, 1, 4, 1))


# As PINNED_STREAMS, on _zero_one_instance; recorded when each type drew once
# per step with items left, 0s and 1s alike.
PINNED_ZERO_ONE_STREAMS = {
    "myopic": ("0b407939fa0f2f66", "7.947", "0.04999331058930697"),
    "optimal": ("0b407939fa0f2f66", "7.947", "0.04999331058930697"),
    "round_robin": ("d0560f0d91b3edeb", "5.1515", "0.9771756875888367"),
    "random:3": ("2ddee3525a932d03", "6.137666666666666", "0.8698486522464346"),
}


def test_zero_one_schedule_streams_are_pinned():
    inst = _zero_one_instance()
    assert stodep.validate_instance(inst).passed
    got = {}
    for policy_name in PINNED_ZERO_ONE_STREAMS:
        table = solve_clairvoyant(inst) if policy_name == "optimal" else None
        policy = stodep.policy_from_name(policy_name, table=table)
        traces = [simulate_episode(inst, policy, seed).to_dict() for seed in (0, 1, 17)]
        digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()[:16]
        summary = monte_carlo_value(inst, policy, 300, master_seed=11)
        got[policy_name] = (digest, repr(summary.mean), repr(summary.stddev))
    assert got == PINNED_ZERO_ONE_STREAMS


@pytest.mark.parametrize("name", ["zero-one", "queueing", "coverage"])
def test_sample_depletion_draws_as_the_rollout_does(name):
    # Replaying an episode's choices through sample_depletion on the
    # episode's generator gives its outcomes, step after step: one draw more
    # or less would shift every later one.
    inst = _zero_one_instance() if name == "zero-one" else _stream_instances()[name]
    policy = stodep.policy_from_name("random:3")
    for seed in range(20):
        trace = simulate_episode(inst, policy, seed)
        rng = np.random.default_rng(seed)
        for step in trace.steps:
            assert stodep.sample_depletion(step.state, step.activity, inst, rng) == step.outcome


class _Counting:
    """Wraps a policy and counts its select calls per (state, epoch)."""

    def __init__(self, policy):
        self.policy, self.name, self.calls = policy, policy.name, collections.Counter()

    def select(self, state, instance):
        self.calls[state] += 1
        return self.policy.select(state, instance)


def test_policy_is_asked_once_per_state_and_epoch():
    inst = _stream_instances()["queueing"]
    counting = _Counting(myopic_policy())
    plain = monte_carlo_value(inst, myopic_policy(), 300, master_seed=11)
    assert monte_carlo_value(inst, counting, 300, master_seed=11) == plain
    assert counting.calls and set(counting.calls.values()) == {1}
    assert sum(counting.calls.values()) < 300 * inst.horizon
    for seed in (0, 1, 17):
        assert simulate_episode(inst, counting, seed) == simulate_episode(inst, myopic_policy(), seed)


def test_out_of_range_choice_raises():
    class Stray:
        name = "stray"

        def select(self, state, instance):
            return instance.num_activities

    with pytest.raises(stodep.DomainError, match="out of range"):
        monte_carlo_value(_zero_one_instance(), Stray(), 5, master_seed=0)


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _seed_sequence_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def test_seed_words_are_seed_sequence_words_at_the_edges():
    seeds = SEED_EDGES + [mix64(5, k) for k in range(20)]
    words = _seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (26, 4) and words.flags.c_contiguous
    for seed, row in zip(seeds, words):
        assert row.dtype == np.uint64 and row.flags.c_contiguous
        assert np.array_equal(row, _seed_sequence_words(seed))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_seed_words_are_seed_sequence_words(seeds):
    words = _seed_words(seeds)
    assert np.array_equal(words, np.stack([_seed_sequence_words(s) for s in seeds]))


@pytest.mark.parametrize("seed", SEED_EDGES + [12345])
def test_generator_from_seed_words_is_default_rngs(seed):
    Generator, PCG64, SeedWords = _generator_parts()
    built = Generator(PCG64(SeedWords(_seed_words([seed])[0])))
    rng = np.random.default_rng(seed)
    assert built.bit_generator.state == rng.bit_generator.state
    assert np.array_equal(built.binomial(7, 0.3, size=50), rng.binomial(7, 0.3, size=50))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_episode_seed_outside_64_bits_is_refused(seed, worst_case_tenth):
    with pytest.raises((ValueError, TypeError)):
        simulate_episode(worst_case_tenth, myopic_policy(), seed)


@pytest.mark.parametrize("at_once", [None, 100])
@pytest.mark.parametrize("name", ["zero-one", "queueing", "coverage"])
def test_monte_carlo_value_is_the_step_by_step_oracles(name, at_once, monkeypatch):
    # One rollout of a call's episodes, and (at_once=100) rollouts of 100
    # episodes, the last of them short.
    inst = _zero_one_instance() if name == "zero-one" else _stream_instances()[name]
    if at_once is not None:
        monkeypatch.setattr(simulate, "_BLOCK", at_once)
        assert simulate._block_size(inst) == at_once
    for policy_name in ("myopic", "random:3"):
        policy = stodep.policy_from_name(policy_name)
        for n_reps in (1, 63, 64, 65, 250):
            summary = monte_carlo_value(inst, policy, n_reps, master_seed=9)
            assert (summary.mean, summary.stddev) == monte_carlo_oracle(inst, policy, n_reps, 9)


@pytest.mark.parametrize("capacity, horizon", [(64, 1), (3, 400)])
def test_a_large_monte_carlo_call_holds_one_blocks_arrays(capacity, horizon):
    # A block is at most _BLOCK episodes, fewer on a long horizon: 20000
    # replications hold a few MiB, not 20000 episodes' walks or uniforms.
    inst = make_instance(capacities=(capacity,), horizon=horizon,
                         schedule=np.full((horizon, 1, 1), 0.4 / horizon),
                         reward=LinearReward((1.0,)))
    policy = myopic_policy()
    monte_carlo_value(inst, policy, 10, master_seed=1)  # tables and numpy.random
    n_reps = 20000 if horizon == 1 else 2000
    tracemalloc.start()
    try:
        summary = monte_carlo_value(inst, policy, n_reps, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.n_reps == n_reps
    assert peak < 10 * 2**20


def test_import_leaves_numpy_random_unloaded():
    # Loading numpy.random takes about 17 ms; stodep defers it to the first rollout.
    src = os.path.dirname(os.path.dirname(stodep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def loads(module):
        code = f"import sys, {module}; print('numpy.random' in sys.modules)"
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True).stdout.strip() == "True"

    if loads("numpy"):
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not loads("stodep")


# A probability grid for numpy's binomial: tiny p, p = 0.5 and the doubles
# beside it, p > 0.5 (drawn as n - X at 1 - p), p = 1, and n * min(p, 1 - p)
# at 30 for n = 64 (inversion) and just above it (BTPE).
P_GRID = [5e-324, 1e-300, 1e-12, 0.01, 0.3, 30 / 64, np.nextafter(30 / 64, 1.0),
          np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1 - 30 / 64,
          np.nextafter(1 - 30 / 64, 0.0), 0.7, 0.99, np.nextafter(1.0, 0.0), 1.0]


@pytest.mark.parametrize("p", [float(p) for p in P_GRID])
def test_inversion_walk_is_numpys_binomial(p):
    # An inversion draw reads one word of the stream, so walking the steps
    # over a stream's words gives the draws numpy's binomial makes from it.
    Generator, PCG64, SeedWords = _generator_parts()
    for n in range(1, 65):
        steps = simulate._inversion_steps(n, p)
        if n * min(p, 1 - p) > 30:
            assert steps == []  # numpy's BTPE regime: left to numpy
            continue
        # The steps end before numpy's bound unless that bound is n with a
        # whole unit to spare, so a rounding of the bound cannot move it
        # below a step the walk accepts.
        r = min(p, 1 - p)
        reach = n * r + 10 * math.sqrt(n * r * (1 - r) + 1)
        assert len(steps) - 1 <= (n if reach >= n + 1 else math.floor(reach) - 1)
        seed = _seed_words([n])[0]
        u = (PCG64(SeedWords(seed)).random_raw(500) >> np.uint64(11)) * simulate._DOUBLE
        x = simulate._walk(u, np.tile(steps, (500, 1)))
        assert (x >= 0).all()
        if p > 0.5:
            x = n - x
        assert np.array_equal(x, Generator(PCG64(SeedWords(seed))).binomial(n, p, size=500))


def _grid_instance():
    """Capacities 64 and 61, with P_GRID spread over epochs, activities and types."""
    T, A = 6, 5
    schedule = np.array([[[P_GRID[(3 * t + 2 * a + 7 * m) % len(P_GRID)] for m in range(2)]
                          for a in range(A)] for t in range(T)])
    return make_instance(capacities=(64, 61), horizon=T, schedule=schedule,
                         reward=LinearReward((1.0, 0.5)))


def _assert_draws_are_the_oracles(inst, policy_name):
    policy = stodep.policy_from_name(policy_name)
    for seed in range(12):
        trace = simulate_episode(inst, policy, seed)
        rng = np.random.default_rng(seed)
        for step in trace.steps:
            assert stodep.sample_depletion(step.state, step.activity, inst, rng) == step.outcome
    summary = monte_carlo_value(inst, policy, 150, master_seed=5)
    assert (summary.mean, summary.stddev) == monte_carlo_oracle(inst, policy, 150, 5)


@pytest.mark.parametrize("policy_name", ["random:3", "round_robin"])
def test_rollout_draws_are_numpys_over_the_probability_grid(policy_name):
    inst = _grid_instance()
    assert any(simulate._inversion_steps(64, p) == [] for p in P_GRID)  # BTPE is reached
    _assert_draws_are_the_oracles(inst, policy_name)


@pytest.mark.parametrize("forced", ["every", "some"])
@pytest.mark.parametrize("name", ["grid", "zero-one", "coverage"])
def test_draws_left_to_numpy_keep_every_stream(name, forced, monkeypatch):
    # Every draw, or those whose uniform is below 0.4, is made by numpy on
    # the episode's generator advanced to the draw's word: the traces and
    # summaries do not change.
    inst = {"grid": _grid_instance, "zero-one": _zero_one_instance,
            "coverage": lambda: _stream_instances()["coverage"]}[name]()
    walk = simulate._walk

    def forcing(u, steps):
        return np.full(len(u), -1) if forced == "every" else np.where(u < 0.4, -1, walk(u, steps))

    policy = stodep.policy_from_name("random:3")
    plain = [simulate_episode(inst, policy, seed) for seed in range(12)]
    monkeypatch.setattr(simulate, "_walk", forcing)
    assert [simulate_episode(inst, policy, seed) for seed in range(12)] == plain
    _assert_draws_are_the_oracles(inst, "random:3")
