import itertools
import math

import numpy as np
import pytest

import stodep
from stodep import (
    CoverageFunction,
    InvalidPartition,
    State,
    check_assumption1,
    check_ratio,
    check_submodular,
    evaluate_policy_exact,
    myopic_policy,
    optimal_value,
    simulate_episode,
    solve_clairvoyant,
    validate_instance,
)
from stodep.apps import (
    AdwordsParams,
    BroadcastParams,
    MatroidParams,
    QueueingParams,
    bargain_hunter_params,
    build_adwords_instance,
    build_broadcast_instance,
    build_cardinality_matroid_instance,
    build_partition_matroid_instance,
    build_product_line_instance,
    build_queueing_instance,
    build_set_cover_instance,
    build_worst_case_instance,
)

from oracles import (
    best_feasible_subset_value,
    binomial_pmf_oracle,
    dp_value_oracle,
    q_oracle,
    set_cover_exists,
)


def j_at_start(instance, table):
    return float(table.values[table.state_index(instance.initial_items), 0])


# ------------------------------------------------------------------ queueing


def test_queueing_unit_service_always_completes():
    params = QueueingParams(
        num_buffers=2,
        num_servers=1,
        horizon=2,
        service_means=((1.0,), (1.0,)),
        rewards=((1.0, 1.0), (1.0, 1.0)),
        arrival_trace=((1, 0), (1, 0)),
    )
    inst = build_queueing_instance(params)
    assert validate_instance(inst).passed
    # every matched, arrived job has success probability exactly 1
    matched = inst.schedule[inst.schedule > 0]
    assert (matched == 1.0).all()


def test_queueing_deadline_decay_bites():
    params = QueueingParams(
        num_buffers=2,
        num_servers=1,
        horizon=2,
        service_means=((1.0,), (1.0,)),
        rewards=((1.0, 1.0), (1.0, 0.0)),
        arrival_trace=((1, 0), (1, 0)),
    )
    inst = build_queueing_instance(params)
    table = solve_clairvoyant(inst)
    assert j_at_start(inst, table) == 2.0
    assert j_at_start(inst, table) == pytest.approx(dp_value_oracle(inst), abs=1e-12)
    myopic_table = evaluate_policy_exact(inst, myopic_policy())
    assert j_at_start(inst, myopic_table) == 1.0  # serves buffer 0 first on the tie


def test_queueing_no_arrivals_no_value():
    params = QueueingParams(
        num_buffers=2,
        num_servers=2,
        horizon=3,
        service_means=((1.0, 2.0), (4.0, 1.0)),
        rewards=((1.0,), (2.0,)),
        arrival_rates=(0.0, 0.0),
    )
    inst = build_queueing_instance(params, seed=5)
    table = solve_clairvoyant(inst)
    assert j_at_start(inst, table) == 0.0


def test_queueing_sampled_arrivals_reproducible():
    params = QueueingParams(
        num_buffers=2,
        num_servers=1,
        horizon=3,
        service_means=((2.0,), (3.0,)),
        rewards=((1.0, 0.5, 0.25), (2.0, 1.0, 0.5)),
        arrival_rates=(0.6, 0.4),
    )
    one = build_queueing_instance(params, seed=11)
    two = build_queueing_instance(params, seed=11)
    assert stodep.instance_fingerprint(one) == stodep.instance_fingerprint(two)
    assert validate_instance(one).passed
    assert check_ratio(one, myopic_policy(), 2.0).passed


# ----------------------------------------------------------------- broadcast


def test_broadcast_full_subset_satisfies_all_requesters():
    params = BroadcastParams(
        num_users=2,
        num_pages=1,
        horizon=2,
        cap=2,
        rewards=((1.0, 2.0),),
        channels=[1.0, 1.0],
        requests=((0, 0, 0, 2), (1, 0, 0, 2)),
    )
    inst = build_broadcast_instance(params)
    assert validate_instance(inst).passed
    # transmitting page 0 to both users depletes both requests at once
    both = inst.activities.index("p0->u0+u1")
    assert binomial_pmf_oracle((1, 1), inst.probability_row(0, both)) == {(1, 1): 1.0}


def test_broadcast_static_channel_myopic_is_optimal():
    params = BroadcastParams(
        num_users=2,
        num_pages=2,
        horizon=3,
        cap=1,
        rewards=((1.0, 0.4), (0.7, 1.2)),
        channels=[0.8, 0.5],
        requests=((0, 0, 0, 3), (1, 0, 0, 3), (0, 1, 0, 3), (1, 1, 0, 3)),
    )
    inst = build_broadcast_instance(params)
    star = solve_clairvoyant(inst)
    mine = evaluate_policy_exact(inst, myopic_policy())
    assert np.allclose(mine.values, star.values, atol=1e-9)


def test_broadcast_myopic_maximizes_static_one_step_score():
    params = BroadcastParams(
        num_users=3,
        num_pages=2,
        horizon=2,
        cap=2,
        rewards=((1.0, 0.3, 2.0), (0.5, 1.5, 0.25)),
        channels=[0.9, 0.6, 0.3],
        requests=((0, 0, 0, 2), (1, 0, 0, 2), (1, 1, 0, 2), (2, 1, 0, 2)),
    )
    inst = build_broadcast_instance(params)
    pol = myopic_policy()
    s = inst.initial_state()
    chosen = pol.select(s, inst)
    values = [q_oracle(inst, s.items, s.epoch, a) for a in range(inst.num_activities)]
    assert values[chosen] == max(values)


def test_broadcast_expiring_page_reproduces_worst_case_pattern():
    delta = 0.01
    params = BroadcastParams(
        num_users=1,
        num_pages=2,
        horizon=2,
        cap=1,
        rewards=((1.0,), (1.0 + delta,)),
        channels=[1.0],
        requests=((0, 0, 0, 1), (0, 1, 0, 2)),
    )
    inst = build_broadcast_instance(params)
    table = solve_clairvoyant(inst)
    assert j_at_start(inst, table) == pytest.approx(2.0 + delta, abs=1e-12)
    mine = evaluate_policy_exact(inst, myopic_policy())
    assert j_at_start(inst, mine) == pytest.approx(1.0 + delta, abs=1e-12)


def test_broadcast_binding_cap_breaks_myopic_optimality():
    """Static channels are NOT enough when a page has more requesters than the cap.

    One page, three unit-reward requesters, two slots, cap 2.  Myopic serves
    the two reliable users first and leaves the flaky one a single attempt
    (total 2.5); serving the flaky user early gives it two attempts (2.75).
    Static-channel optimality therefore needs every page's outstanding
    requesters to fit in one transmission.
    """
    params = BroadcastParams(
        num_users=3,
        num_pages=1,
        horizon=2,
        cap=2,
        rewards=((1.0, 1.0, 1.0),),
        channels=[0.5, 1.0, 1.0],
        requests=((0, 0, 0, 2), (1, 0, 0, 2), (2, 0, 0, 2)),
    )
    inst = build_broadcast_instance(params)
    star = solve_clairvoyant(inst)
    mine = evaluate_policy_exact(inst, myopic_policy())
    assert j_at_start(inst, star) == 2.75
    assert j_at_start(inst, mine) == 2.5
    # still comfortably inside the general 2-approximation guarantee
    assert check_ratio(inst, myopic_policy(), 2.0, j_star=star).passed


def test_broadcast_sampled_requests_validate():
    params = BroadcastParams(
        num_users=2,
        num_pages=2,
        horizon=4,
        cap=1,
        rewards=((1.0, 0.5), (0.25, 2.0)),
        channels=[[0.5, 0.9], [0.4, 0.8], [0.3, 0.7], [0.2, 0.6]],
        max_requests_per_slot=1,
    )
    inst = build_broadcast_instance(params, seed=23)
    assert validate_instance(inst).passed
    # deadline masking: no trace depletes an item outside its window
    trace = simulate_episode(inst, stodep.SeededRandomPolicy(1), seed=6)
    for step in trace.steps:
        for m, depleted in enumerate(step.outcome):
            if depleted:
                assert inst.arrivals[m] <= step.state.epoch < inst.deadlines[m]


# -------------------------------------------------------------- product line


def test_product_line_seasonality_example():
    inst = build_product_line_instance(bargain_hunter_params(0.1))
    assert validate_instance(inst).passed
    star = solve_clairvoyant(inst)
    mine = evaluate_policy_exact(inst, myopic_policy())
    assert j_at_start(inst, star) == pytest.approx(2.1, abs=1e-12)
    assert j_at_start(inst, mine) == pytest.approx(1.1, abs=1e-12)


def test_product_line_assortment_independent_probabilities():
    # identical purchase behavior under every assortment: myopic is optimal
    probs = [[0.6, 0.3], [0.2, 0.5]]
    from stodep.apps.product_line import ProductLineParams, feasible_assortments, assortment_key

    table = {
        assortment_key(a): probs for a in feasible_assortments(2, 2)
    }
    params = ProductLineParams(
        num_products=2,
        assortment_cap=2,
        segment_sizes=(1, 2),
        prices=(1.0, 0.75),
        horizon=2,
        purchase_probs=table,
    )
    inst = build_product_line_instance(params)
    star = solve_clairvoyant(inst)
    mine = evaluate_policy_exact(inst, myopic_policy())
    assert np.allclose(mine.values, star.values, atol=1e-12)


def test_product_line_random_ratio_bound():
    from stodep.apps.product_line import ProductLineParams, feasible_assortments, assortment_key

    rng = np.random.default_rng(19)
    assortments = feasible_assortments(3, 2)
    probs = {assortment_key(a): rng.random((3, 2)).tolist() for a in assortments}
    params = ProductLineParams(
        num_products=3,
        assortment_cap=2,
        segment_sizes=(2, 1),
        prices=(1.5, 0.8),
        horizon=3,
        purchase_probs=probs,
    )
    inst = build_product_line_instance(params)
    assert validate_instance(inst).passed
    assert check_ratio(inst, myopic_policy(), 2.0).passed


# ------------------------------------------------------------------- adwords


def test_adwords_unbounded_budgets_pick_top_value_ads():
    params = AdwordsParams(
        num_advertisers=3,
        num_keywords=1,
        budgets=(math.inf, math.inf, math.inf),
        valuations=((1.0,), (3.0,), (2.0,)),
        keyword_sequence=(0, 0),
        slot_cap=2,
        click_probs=[[0.9], [0.5], [0.8]],
    )
    inst = build_adwords_instance(params)
    # expected one-step revenue per advertiser: 0.9, 1.5, 1.6 -> pick {1, 2}
    choice = myopic_policy().select(inst.initial_state(), inst)
    assert inst.activities[choice] == "ads:a1+a2"


def test_adwords_budget_truncation():
    params = AdwordsParams(
        num_advertisers=1,
        num_keywords=1,
        budgets=(1.0,),
        valuations=((2.0,),),
        keyword_sequence=(0, 0),
        slot_cap=1,
        click_probs=[[1.0]],
    )
    inst = build_adwords_instance(params)
    table = solve_clairvoyant(inst)
    assert j_at_start(inst, table) == 1.0


def test_adwords_random_ratio_bound():
    rng = np.random.default_rng(101)
    for trial in range(3):
        params = AdwordsParams(
            num_advertisers=3,
            num_keywords=2,
            budgets=tuple(float(b) for b in rng.uniform(0.5, 3.0, size=3)),
            valuations=tuple(tuple(float(v) for v in row) for row in rng.uniform(0, 2, (3, 2))),
            keyword_sequence=tuple(int(k) for k in rng.integers(0, 2, size=3)),
            slot_cap=1,
            click_probs=rng.random((3, 3, 2)).tolist(),
        )
        inst = build_adwords_instance(params)
        assert validate_instance(inst).passed
        assert check_submodular(inst.reward, (1,) * inst.num_types).passed
        assert check_ratio(inst, myopic_policy(), 2.0).passed


# ------------------------------------------------------------------- matroid


def coverage_fixture(rng, n_elements=4, n_types=4):
    covers = tuple(
        frozenset(int(e) for e in range(n_elements) if rng.random() < 0.5)
        for _ in range(n_types)
    )
    weights = tuple(float(rng.integers(1, 17)) / 16.0 for _ in range(n_elements))
    return CoverageFunction(n_elements, covers, weights)


def test_cardinality_matroid_matches_exhaustive_optimum():
    rng = np.random.default_rng(7)
    for trial in range(5):
        cov = coverage_fixture(rng)
        k = int(rng.integers(1, 5))
        params = MatroidParams(elements=tuple(f"e{i}" for i in range(4)), value=cov, cardinality=k)
        inst = build_cardinality_matroid_instance(params)
        table = solve_clairvoyant(inst)
        best = best_feasible_subset_value(
            lambda F: cov(tuple(1 if m in F else 0 for m in range(4))),
            4,
            lambda F: len(F) <= k,
        )
        assert j_at_start(inst, table) == best
        assert check_ratio(inst, myopic_policy(), 2.0, j_star=table).passed


def test_cardinality_matroid_full_depletion():
    rng = np.random.default_rng(3)
    cov = coverage_fixture(rng)
    params = MatroidParams(elements=("a", "b", "c", "d"), value=cov, cardinality=4)
    inst = build_cardinality_matroid_instance(params)
    table = solve_clairvoyant(inst)
    assert j_at_start(inst, table) == cov((1, 1, 1, 1)) - cov((0, 0, 0, 0))


def test_partition_matroid_matches_exhaustive_optimum():
    rng = np.random.default_rng(13)
    for trial in range(5):
        cov = coverage_fixture(rng, n_elements=5, n_types=5)
        blocks = (((0, 1), 1), ((2, 3, 4), int(rng.integers(1, 3))))
        params = MatroidParams(
            elements=tuple(f"e{i}" for i in range(5)), value=cov, partition=blocks
        )
        inst = build_partition_matroid_instance(params)
        table = solve_clairvoyant(inst)

        def feasible(F):
            return all(len(F & set(members)) <= k_i for members, k_i in blocks)

        best = best_feasible_subset_value(
            lambda F: cov(tuple(1 if m in F else 0 for m in range(5))), 5, feasible
        )
        assert j_at_start(inst, table) == best
        assert check_ratio(inst, myopic_policy(), 2.0, j_star=table).passed


def test_partition_myopic_is_local_greedy():
    rng = np.random.default_rng(29)
    cov = coverage_fixture(rng, n_elements=5, n_types=5)
    blocks = (((0, 1, 2), 2), ((3, 4), 1))
    params = MatroidParams(elements=tuple(f"e{i}" for i in range(5)), value=cov, partition=blocks)
    inst = build_partition_matroid_instance(params)

    # local greedy: within each time block, repeatedly take the element of that
    # block with the largest marginal gain
    selected: set[int] = set()
    for members, k_i in blocks:
        for _ in range(k_i):
            candidates = [m for m in members if m not in selected]
            gains = [
                cov(tuple(1 if e in selected | {m} else 0 for e in range(5)))
                - cov(tuple(1 if e in selected else 0 for e in range(5)))
                for m in candidates
            ]
            best = candidates[gains.index(max(gains))]
            selected.add(best)
    greedy_value = cov(tuple(1 if e in selected else 0 for e in range(5))) - cov((0,) * 5)

    trace = simulate_episode(inst, myopic_policy(), seed=0)
    assert trace.total_reward == greedy_value


def test_partition_full_blocks_deplete_everything():
    rng = np.random.default_rng(41)
    cov = coverage_fixture(rng, n_elements=4, n_types=4)
    params = MatroidParams(
        elements=("a", "b", "c", "d"),
        value=cov,
        partition=(((0, 1), 2), ((2, 3), 2)),
    )
    inst = build_partition_matroid_instance(params)
    table = solve_clairvoyant(inst)
    assert j_at_start(inst, table) == cov((1, 1, 1, 1)) - cov((0, 0, 0, 0))


def test_partition_validation():
    cov = CoverageFunction(2, (frozenset({0}), frozenset({1})), (1.0, 1.0))
    with pytest.raises(InvalidPartition):
        build_partition_matroid_instance(
            MatroidParams(elements=("a", "b"), value=cov, partition=(((0, 1), 1), ((1,), 1)))
        )
    with pytest.raises(InvalidPartition):
        build_partition_matroid_instance(
            MatroidParams(elements=("a", "b"), value=cov, partition=(((0,), 1),))
        )
    # A negative k_i once left the schedule a row short: an IndexError.
    with pytest.raises(InvalidPartition, match="k_i >= 0"):
        build_partition_matroid_instance(
            MatroidParams(elements=("a", "b"), value=cov, partition=(((0,), 3), ((1,), -1)))
        )


def test_stochastic_selection_per_element_sequences():
    cov = CoverageFunction(2, (frozenset({0}), frozenset({1})), (1.0, 2.0))
    params = MatroidParams(
        elements=("a", "b"),
        value=cov,
        cardinality=2,
        selection_probs={0: [0.5, 0.25], 1: [1.0, 0.0]},
    )
    inst = build_cardinality_matroid_instance(params)
    assert inst.schedule[0, 0, 0] == 0.5
    assert inst.schedule[1, 0, 0] == 0.25
    assert inst.schedule[0, 1, 1] == 1.0
    assert inst.schedule[1, 1, 1] == 0.0
    # optimal: take b while it is available (2.0), then one attempt at a (0.25)
    table = solve_clairvoyant(inst)
    assert j_at_start(inst, table) == pytest.approx(2.25, abs=1e-12)


def test_queueing_activity_cap():
    params = QueueingParams(
        num_buffers=2,
        num_servers=2,
        horizon=2,
        service_means=((1.0, 1.0), (1.0, 1.0)),
        rewards=((1.0,), (1.0,)),
        arrival_trace=((1, 1), (1, 1)),
    )
    with pytest.raises(stodep.ActivityCapExceeded):
        build_queueing_instance(params, activity_cap=3)


def test_stochastic_selection_ratio():
    e_ratio = math.e / (math.e - 1.0)
    rng = np.random.default_rng(31)
    for constant in (0.5, 1.0):
        for trial in range(3):
            cov = coverage_fixture(rng, n_elements=5, n_types=5)
            params = MatroidParams(
                elements=tuple(f"e{i}" for i in range(5)),
                value=cov,
                cardinality=3,
                selection_probs=constant,
            )
            inst = build_cardinality_matroid_instance(params)
            report = check_ratio(inst, myopic_policy(), e_ratio, tol=1e-6)
            assert report.passed, (constant, trial, report.max_ratio)


# ----------------------------------------------------------------- set cover


def test_set_cover_trivial_cases():
    inst = build_set_cover_instance(["a", "b"], [["a"], ["b"]], 2)
    assert optimal_value(solve_clairvoyant(inst), inst.initial_state()) == 2.0
    inst2 = build_set_cover_instance(["a", "b", "c"], [["a", "b"], ["b", "c"]], 1)
    assert optimal_value(solve_clairvoyant(inst2), inst2.initial_state()) == 2.0


def test_set_cover_matches_brute_force():
    rng = np.random.default_rng(47)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        n_sets = int(rng.integers(1, 5))
        covers = [
            frozenset(int(e) for e in range(n) if rng.random() < 0.6) or frozenset({0})
            for _ in range(n_sets)
        ]
        k = int(rng.integers(1, 5))
        elements = [f"u{e}" for e in range(n)]
        inst = build_set_cover_instance(
            elements, [[f"u{e}" for e in sorted(c)] for c in covers], k
        )
        j_star = optimal_value(solve_clairvoyant(inst), inst.initial_state())
        assert (j_star == float(n)) == set_cover_exists(n, covers, k)


# ---------------------------------------------------------------- worst case


def test_worst_case_parameter_validation():
    with pytest.raises(stodep.ConfigError):
        build_worst_case_instance(0.0)
    with pytest.raises(stodep.ConfigError):
        build_worst_case_instance(1.0)


def test_worst_case_family_membership():
    inst = build_worst_case_instance(0.5)
    assert validate_instance(inst).passed
    assert check_assumption1(inst).passed
    report = check_ratio(inst, myopic_policy(), 2.0)
    assert report.initial_ratio == pytest.approx(1.5, abs=1e-12)


# ------------------------------------------------------- builder invariants


def test_every_builder_output_validates_and_passes_family_checks():
    instances = [
        build_worst_case_instance(0.3),
        build_set_cover_instance(["a", "b"], [["a", "b"]], 1),
    ]
    params = QueueingParams(
        num_buffers=1,
        num_servers=1,
        horizon=2,
        service_means=((2.0,),),
        rewards=((1.0, 0.5),),
        arrival_trace=((1, 0),),
    )
    instances.append(build_queueing_instance(params))
    for inst in instances:
        assert validate_instance(inst).passed
        assert check_assumption1(inst).passed
