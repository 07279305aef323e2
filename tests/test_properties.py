import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stodep
from stodep import (
    BudgetedLinearFunction,
    ConfigError,
    CoverageFunction,
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    State,
    SubmodularReward,
    check_assumption1,
    check_ir,
    check_ratio,
    check_submodular,
    check_vfm,
    myopic_policy,
    solve_clairvoyant,
)
from stodep.apps import (
    build_worst_case_instance,
    random_linear_decaying_instance,
    random_submodular_instance,
)

from conftest import make_instance, small_instances
from oracles import ir_oracle, ratio_oracle, submodular_oracle, vfm_oracle


def test_vfm_and_ir_hold_on_both_families():
    for seed in range(6):
        for generator in (random_submodular_instance, random_linear_decaying_instance):
            inst = generator(seed)
            table = solve_clairvoyant(inst)
            vfm = check_vfm(inst, table)
            ir = check_ir(inst, table)
            assert vfm.passed, (generator.__name__, seed, vfm.violations[:1])
            assert ir.passed, (generator.__name__, seed, ir.violations[:1])
            assert vfm.checked > 0 and ir.checked > 0


def non_submodular_counterexample():
    """Monotone but supermodular potential; one activity reaches only type 1."""
    potential = lambda y: float((y[0] + y[1]) ** 2)
    reward = GeneralTabulatedReward.from_potential(potential, (1, 1), 1)
    return make_instance(
        capacities=(1, 1),
        horizon=1,
        schedule=[[[0.0, 1.0]]],
        reward=reward,
    )


def test_vfm_violated_without_submodularity():
    inst = non_submodular_counterexample()
    assert stodep.validate_instance(inst).passed  # monotone => valid reward data
    table = solve_clairvoyant(inst)
    report = check_vfm(inst, table)
    assert not report.passed
    # the witness: dropping the type-0 item raises the value from 1 to 3
    assert stodep.optimal_value(table, State((1, 1), 0)) == 1.0
    assert stodep.optimal_value(table, State((0, 1), 0)) == 3.0


def test_ir_alpha_zero_is_trivial(worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    report = check_ir(worst_case_tenth, table)
    assert report.passed
    # alpha = 0 pairs are included and satisfied with equality
    assert report.checked >= table.num_states * (worst_case_tenth.horizon + 1)


def test_ir_cap():
    inst = random_submodular_instance(0)
    table = solve_clairvoyant(inst)
    with pytest.raises(stodep.EnumerationCapExceeded):
        check_ir(inst, table, pair_cap=2)


def test_check_submodular_cap():
    # Bound (2, 1): w is read on the box [0, (3, 2)], 4 * 3 = 12 points.
    calls = []

    def reward():
        return SubmodularReward(lambda y: calls.append(y) or float(min(sum(y), 2)), label="capped")

    with mock.patch.object(stodep.properties, "DEFAULT_STATE_CAP", 12):
        assert check_submodular(reward(), (2, 1)).passed
    assert len(calls) == 12
    calls.clear()
    with mock.patch.object(stodep.properties, "DEFAULT_STATE_CAP", 11):
        with pytest.raises(stodep.EnumerationCapExceeded, match="12 points exceeds cap 11"):
            check_submodular(reward(), (2, 1))
    assert not calls  # refused before w is read anywhere


def test_check_submodular_certifies_a_box_the_pair_count_refused():
    # 7^5 points below the bound: 4.1e9 comparable pairs, 8^5 points read.
    coverage = CoverageFunction(6, tuple(frozenset({m, m + 1}) for m in range(5)),
                                (1.0, 2.0, 0.5, 0.25, 0.75, 1.5))
    report = check_submodular(SubmodularReward(coverage), (6,) * 5)
    S = 7**5
    assert report.passed and report.checked == 5 * S + 5 * (S - 1)


def test_check_submodular_lists_each_failing_point_and_type_once():
    # Gains of (y + 1)^2 - y^2 = 2y + 1 rise: every y' < 2 fails against y = 2.
    report = check_submodular(SubmodularReward(lambda y: float(y[0]) ** 2, label="sq"), (2,))
    assert report.checked == 3 + 2
    assert [(v.witness, v.lhs, v.rhs) for v in report.violations] == [
        ({"kind": "diminishing_returns", "y": [2], "y_prime": [0], "m": 0}, 5.0, 1.0),
        ({"kind": "diminishing_returns", "y": [2], "y_prime": [1], "m": 0}, 5.0, 3.0),
    ]
    assert report.worst_gap == 4.0


def test_check_submodular_fails_a_pair_whose_unit_steps_each_pass():
    # Gains 1, 1 + 0.9e-9, 1 + 1.1e-9: each unit step rises within tol = 1e-9,
    # but the pair (y' = 0, y = 2) rises by 1.1e-9.
    w = np.cumsum([0.0, 1.0, 1.0 + 0.9e-9, 1.0 + 1.1e-9])
    report = check_submodular(SubmodularReward(lambda y: float(w[y[0]]), label="steps"), (2,))
    assert [(v.witness["y_prime"], v.witness["y"]) for v in report.violations] == [([0], [2])]


def test_check_submodular_takes_a_gain_that_is_not_finite_as_a_witness():
    # w(1) = w(2) = inf: gain_0(1) = inf - inf is NaN, and must raise no warning.
    reward = SubmodularReward(lambda y: math.inf if y[0] >= 1 else 0.0, label="inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_submodular(reward, (1,))
    dr = [v for v in report.violations if v.witness["kind"] == "diminishing_returns"]
    assert [v.witness["y"] for v in dr] == [[1]] and math.isnan(dr[0].lhs)


def test_check_submodular_builtins_pass():
    coverage = SubmodularReward(
        CoverageFunction(3, (frozenset({0, 1}), frozenset({2})), (1.0, 2.0, 0.5))
    )
    assert check_submodular(coverage, (2, 2)).passed
    budgeted = SubmodularReward(
        BudgetedLinearFunction(budgets=(1.0, math.inf), values=(2.0, 0.3), groups=(0, 1))
    )
    assert check_submodular(budgeted, (2, 2)).passed


def test_check_submodular_flags_supermodular():
    rew = SubmodularReward(lambda y: float(sum(y)) ** 2, label="sum-squared")
    report = check_submodular(rew, (1, 1))
    assert not report.passed
    kinds = {v.witness["kind"] for v in report.violations}
    assert kinds == {"diminishing_returns"}  # monotone, so only the DR side fails
    witnessed = {
        (tuple(v.witness["y_prime"]), tuple(v.witness["y"]), v.witness["m"])
        for v in report.violations
    }
    assert ((0, 0), (1, 1), 1) in witnessed  # the partner with the largest gain


def test_check_submodular_rejects_other_variants():
    with pytest.raises(ConfigError):
        check_submodular(LinearReward((1.0,)), (1,))


@pytest.mark.parametrize(
    "bound", [(-1,), (1, -2), (2.7,), (True,), (1, np.bool_(True)), ("2",), (), 3], ids=repr
)
def test_check_submodular_refuses_a_bound_that_is_not_integers_at_least_zero(bound):
    calls = []
    reward = SubmodularReward(lambda y: calls.append(y) or float(sum(y)), label="sum")
    with pytest.raises(ConfigError, match="domain_bound"):
        check_submodular(reward, bound)
    assert not calls
    assert check_submodular(reward, (np.int64(1), 2)).passed  # numpy integers are integers


def test_budgeted_potential_adds_its_groups_left_to_right():
    # Compensated summation (sum() from Python 3.12 on) would give 1e16 + 2.
    budgeted = BudgetedLinearFunction(budgets=(math.inf,) * 3, values=(1e16, 1.0, 1.0),
                                      groups=(0, 1, 2))
    assert budgeted((1, 1, 1)) == (1e16 + 1.0) + 1.0 == 1e16


def _counted(caps, evaluator):
    """An instance over caps with a custom potential, and the points it was called at."""
    calls = []
    reward = SubmodularReward(lambda y: calls.append(y) or evaluator(y), label="counted")
    schedule = np.full((2, 2, len(caps)), 0.5)
    return make_instance(capacities=caps, horizon=2, schedule=schedule, reward=reward), calls


@pytest.mark.parametrize("caps", [(1,), (2, 1), (1, 3, 2)])
def test_each_consumer_reads_a_custom_potential_once_per_point(caps):
    inst, calls = _counted(caps, lambda y: float(min(sum(y), 2)))
    box = math.prod(c + 1 for c in caps)
    stodep.dp.BellmanOperator(inst)
    assert len(calls) == len(set(calls)) == box
    assert all(type(v) is int for y in calls for v in y)
    calls.clear()
    stodep.instance_fingerprint(inst)
    assert len(calls) == box
    calls.clear()
    assert check_assumption1(inst).passed  # the fingerprint is kept on the instance
    assert len(calls) == box
    calls.clear()
    assert check_submodular(inst.reward, caps).passed
    assert len(calls) == len(set(calls)) == math.prod(c + 2 for c in caps)


@pytest.mark.parametrize("consume", [
    stodep.dp.BellmanOperator,
    stodep.instance_fingerprint,
    check_assumption1,
    lambda inst: check_submodular(inst.reward, inst.capacities),
    lambda inst: GeneralTabulatedReward.from_potential(inst.reward.evaluator, inst.capacities, 2),
], ids=["operator", "fingerprint", "assumption1", "submodular", "from_potential"])
def test_a_potential_value_that_is_not_a_number_raises_type_error(consume):
    # float(None) raises; an array built from the values would hold NaN instead.
    inst, _ = _counted((1, 1), lambda y: None if y == (1, 1) else float(sum(y)))
    with pytest.raises(TypeError, match="float"):
        consume(inst)


def test_assumption1_linear_decaying():
    good = make_instance(
        capacities=(1,),
        horizon=2,
        schedule=[[[0.5]], [[0.5]]],
        reward=LinearDecayingReward(((0.9, 0.2),)),
    )
    assert check_assumption1(good).passed


def test_assumption1_tabulated_violations():
    table = {
        ((1,), (0,), 0): 1.0,
        ((1,), (0,), 1): 2.0,  # increases in t
        ((1,), (1,), 0): 0.0,
        ((1,), (1,), 1): 0.0,
        ((0,), (0,), 0): 0.0,
        ((0,), (0,), 1): 0.0,
        ((1,), (0,), 2): 0.5,  # nonzero terminal entry
    }
    inst = make_instance(
        capacities=(1,),
        horizon=2,
        schedule=[[[0.5]], [[0.5]]],
        reward=GeneralTabulatedReward(table),
    )
    report = check_assumption1(inst)
    rules = {v.witness["rule"] for v in report.violations}
    assert "non-increasing in t" in rules
    assert "terminal reward nonzero" in rules


def test_ratio_worst_case_is_sharp():
    for epsilon in (0.5, 0.1):
        inst = build_worst_case_instance(epsilon)
        report = check_ratio(inst, myopic_policy(), 2.0)
        assert report.passed
        assert report.max_ratio == pytest.approx(2.0 - epsilon, abs=1e-12)
        assert report.initial_ratio == pytest.approx(2.0 - epsilon, abs=1e-12)
        assert report.slack == pytest.approx(epsilon, abs=1e-12)
        assert not report.zero_value_states


@pytest.mark.parametrize("j_star, j_policy, ratio", [
    (3.0, 2.0, 1.5),
    (0.0, 0.0, 1.0),  # nothing to earn: the policy loses nothing
    (1.0, 0.0, math.inf),
])
def test_value_ratio_branches(j_star, j_policy, ratio):
    assert stodep.properties.value_ratio(j_star, j_policy) == ratio


def test_ratio_single_step_is_one():
    rng = np.random.default_rng(3)
    inst = make_instance(
        capacities=(2, 1),
        horizon=1,
        schedule=rng.random((1, 3, 2)),
        reward=LinearReward((1.0, 0.5)),
    )
    report = check_ratio(inst, myopic_policy(), 2.0)
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_ratio_flags_zero_policy_value():
    # a mean-spirited fixed policy that never earns, while the optimum does
    inst = build_worst_case_instance(0.1)
    report = check_ratio(inst, stodep.FixedPolicy(1), 1000.0)
    # fixed(1) still earns at t=0 from (1,1), but at ((0,1),1) both are zero;
    # from ((1,0),0) the optimum earns 1 via activity 0 and fixed(1) earns 0.
    assert report.zero_value_states
    assert not report.passed


def test_tolerance_semantics():
    inst = random_submodular_instance(5)
    table = solve_clairvoyant(inst)
    # absurdly huge tolerance: nothing can be flagged
    assert check_vfm(inst, table, tol=1e6).passed
    # negative-gap worst case is still reported in worst_gap
    report = check_vfm(inst, table)
    assert report.worst_gap <= 1e-12


def test_ir_flags_a_raised_entry(worst_case_tenth):
    table = solve_clairvoyant(worst_case_tenth)
    table.values[table.state_index((1, 1)), 0] += 0.5
    report = check_ir(worst_case_tenth, table)
    assert not report.passed
    for v in report.violations:
        assert (v.witness["x"], v.witness["t"]) == ([1, 1], 0)
        assert v.witness["alpha"] != [0, 0] and v.gap > 0.4


def test_ir_violations_come_by_state_index_of_x_then_x_next_then_epoch():
    """Entries of J raised at some states and lowered at others break IR with
    each as x and as x'; the violations are listed in state-index order,
    which on these capacities is not the lexicographic order of (x, x')."""
    caps, T = (2, 1, 2), 2
    rng = np.random.default_rng(4)
    inst = make_instance(capacities=caps, horizon=T, schedule=rng.random((T, 2, 3)),
                         reward=LinearDecayingReward(((1.0, 0.5), (0.8, 0.8), (0.6, 0.1))))
    table = solve_clairvoyant(inst)
    for x, t, step in (((2, 0, 1), 0, 2.0), ((1, 1, 0), 1, 2.0), ((0, 1, 2), 0, 2.0),
                       ((1, 0, 1), 0, -2.0), ((0, 0, 2), 1, -2.0)):
        table.values[table.state_index(x), t] += step
    report = check_ir(inst, table)
    keys = [(tuple(v.witness["x"]),
             tuple(a - b for a, b in zip(v.witness["x"], v.witness["alpha"])), v.witness["t"])
            for v in report.violations]
    by_index = [(table.state_index(x), table.state_index(x_next), t) for x, x_next, t in keys]
    assert by_index == sorted(by_index)
    assert keys != sorted(keys)
    assert set(keys) == {(tuple(w["x"]), tuple(a - b for a, b in zip(w["x"], w["alpha"])), w["t"])
                         for w, *_ in ir_oracle(inst, table.values, 1e-9)[2]}


# ------------------------------------------ array certifiers vs scalar oracles


def _perturb_one(data, table):
    """Move one entry of the table up or down, or leave it clean."""
    if data.draw(st.booleans()):
        si = data.draw(st.integers(0, table.num_states - 1))
        t = data.draw(st.integers(0, table.horizon))
        table.values[si, t] += data.draw(st.sampled_from([-0.5, -1e-6, 1e-6, 0.5]))


def _witness_key(witness):
    return tuple(sorted((k, tuple(v) if isinstance(v, list) else v) for k, v in witness.items()))


def _assert_matches_oracle(report, oracle):
    checked, worst, violations = oracle
    assert report.checked == checked
    assert abs(report.worst_gap - worst) <= 1e-12 * max(1.0, abs(worst))
    assert {_witness_key(v.witness) for v in report.violations} == {
        _witness_key(w) for w, *_ in violations
    }


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(), data=st.data())
def test_vfm_and_ir_match_scalar_oracles(inst, data):
    table = solve_clairvoyant(inst)
    _perturb_one(data, table)
    _assert_matches_oracle(check_vfm(inst, table), vfm_oracle(inst, table.values, 1e-9))
    ir = ir_oracle(inst, table.values, 1e-9)
    _assert_matches_oracle(check_ir(inst, table), ir)
    with mock.patch.object(stodep.properties, "_BLOCK", 1):  # one pair per block
        _assert_matches_oracle(check_ir(inst, table), ir)


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(), data=st.data())
def test_ratio_matches_scalar_oracle(inst, data):
    j_star = solve_clairvoyant(inst)
    policy = data.draw(st.sampled_from([myopic_policy(), stodep.approx_myopic_policy(2.0)]))
    j_policy = stodep.evaluate_policy_exact(inst, policy)
    _perturb_one(data, data.draw(st.sampled_from([j_star, j_policy])))
    report = check_ratio(inst, policy, 2.0, j_star=j_star, j_policy=j_policy)
    expected = ratio_oracle(inst, j_star.values, j_policy.values)
    got = (report.max_ratio, report.worst_state, report.zero_value_states, report.checked)
    assert got == expected


@st.composite
def potentials(draw):
    """(reward, bound): a built-in evaluator, maybe moved at one point of the box."""
    M = draw(st.integers(1, 3))
    bound = tuple(draw(st.integers(0, 2)) for _ in range(M))
    weight = st.floats(0.0, 2.0)
    if draw(st.booleans()):
        n = M + 1
        covers = tuple(frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n))) for _ in range(M))
        evaluator = CoverageFunction(n, covers, tuple(draw(weight) for _ in range(n)))
    else:
        evaluator = BudgetedLinearFunction(
            budgets=(draw(st.one_of(st.just(math.inf), st.floats(0.5, 3.0))), draw(weight)),
            values=tuple(draw(weight) for _ in range(M)),
            groups=tuple(draw(st.integers(0, 1)) for _ in range(M)),
        )
    if not draw(st.booleans()):
        return SubmodularReward(evaluator), bound
    # One point of the box or just above it takes another value.
    at = tuple(draw(st.integers(0, b + 1)) for b in bound)
    delta = draw(st.sampled_from([-0.5, -1e-6, 1e-6, 0.5, math.nan, math.inf, -math.inf]))

    def moved(y):
        return evaluator(y) + (delta if tuple(y) == at else 0.0)

    return SubmodularReward(moved, label="moved"), bound


@settings(max_examples=80, deadline=None)
@given(case=potentials())
def test_submodular_matches_scalar_oracle(case):
    reward, bound = case
    _, worst, violations = submodular_oracle(reward, bound, 1e-9)
    report = check_submodular(reward, bound)
    S = math.prod(b + 1 for b in bound)
    assert report.checked == len(bound) * (2 * S - 1)
    assert report.passed == (not violations)
    # Monotonicity is listed pair by pair as the oracle lists it.
    mono = [v for v in report.violations if v.witness["kind"] == "monotonicity"]
    o_mono = [o for o in violations if o[0]["kind"] == "monotonicity"]
    assert len(mono) == len(o_mono)
    for v, (o_witness, o_lhs, o_rhs, _) in zip(mono, o_mono):
        assert v.witness == o_witness
        assert np.array_equal([v.lhs, v.rhs], [o_lhs, o_rhs], equal_nan=True)
    # Diminishing returns: one violation per failing (y', m), in the oracle's order.
    partners = {}
    for o_witness, o_lhs, _, _ in violations:
        if o_witness["kind"] == "diminishing_returns":
            key = (tuple(o_witness["y_prime"]), o_witness["m"])
            partners.setdefault(key, []).append((tuple(o_witness["y"]), o_lhs))
    dr = [v for v in report.violations if v.witness["kind"] == "diminishing_returns"]
    assert [(tuple(v.witness["y_prime"]), v.witness["m"]) for v in dr] == sorted(partners)
    w = np.array([reward.w(y) for y in itertools.product(*(range(b + 2) for b in bound))])
    if np.isfinite(w).all():
        assert report.worst_gap == worst
        for v in dr:  # the witness is a violating partner with the largest gain
            pairs = partners[tuple(v.witness["y_prime"]), v.witness["m"]]
            assert (tuple(v.witness["y"]), v.lhs) in pairs
            assert v.lhs == max(gain for _, gain in pairs)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_every_certifier_refuses_a_tolerance_that_certifies_nothing(tol):
    # Weights rising over time break assumption1 under any finite tolerance >= 0.
    inst = make_instance(
        capacities=(1,), horizon=2, schedule=[[[0.5]], [[0.5]]],
        reward=LinearDecayingReward(((0.1, 0.9),)),
    )
    assert not check_assumption1(inst).passed
    table = solve_clairvoyant(inst)
    potential = SubmodularReward(CoverageFunction(1, (frozenset({0}),), (1.0,)))
    certifiers = {
        "assumption1": lambda: check_assumption1(inst, tol),
        "vfm": lambda: check_vfm(inst, table, tol),
        "ir": lambda: check_ir(inst, table, tol),
        "submodular": lambda: check_submodular(potential, (1,), tol),
        "ratio": lambda: check_ratio(inst, myopic_policy, 2.0, tol, j_star=table),
        "audit": lambda: stodep.audit_table(inst, table, tol=tol),
    }
    for name, certify in certifiers.items():
        with pytest.raises(ConfigError, match=f"tolerance {tol!r}"):
            certify()
