import math
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
    # Bound (2, 1): 6 * 3 = 18 pairs (y, y') with y' <= y, y = y' included.
    calls = []

    def reward():  # a fresh one each time: w's values are memoized
        return SubmodularReward(lambda y: calls.append(y) or float(min(sum(y), 2)), label="capped")

    assert check_submodular(reward(), (2, 1), pair_cap=18).passed
    assert calls
    calls.clear()
    with pytest.raises(stodep.EnumerationCapExceeded, match="18 exceeds cap 17"):
        check_submodular(reward(), (2, 1), pair_cap=17)
    assert not calls  # refused before w is read anywhere


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
    assert ((0, 0), (1, 0), 1) in witnessed


def test_check_submodular_rejects_other_variants():
    with pytest.raises(ConfigError):
        check_submodular(LinearReward((1.0,)), (1,))


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
    with mock.patch.object(stodep.properties, "_BLOCK", 1):  # one x per block
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
    delta = draw(st.sampled_from([-0.5, -1e-6, 1e-6, 0.5, math.nan]))

    def moved(y):
        return evaluator(y) + (delta if tuple(y) == at else 0.0)

    return SubmodularReward(moved, label="moved"), bound


@settings(max_examples=80, deadline=None)
@given(case=potentials())
def test_submodular_matches_scalar_oracle(case):
    reward, bound = case
    checked, worst, violations = submodular_oracle(reward, bound, 1e-9)
    report = check_submodular(reward, bound)
    assert report.checked == checked
    assert report.worst_gap == worst
    got = [(v.witness, v.lhs, v.rhs) for v in report.violations]
    assert len(got) == len(violations)
    for (witness, lhs, rhs), (o_witness, o_lhs, o_rhs, _) in zip(got, violations):
        assert witness == o_witness
        assert np.array_equal([lhs, rhs], [o_lhs, o_rhs], equal_nan=True)
    with mock.patch.object(stodep.properties, "_BLOCK", 1):  # one y per block
        assert [v.witness for v in check_submodular(reward, bound).violations] == [
            w for w, *_ in violations
        ]


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
