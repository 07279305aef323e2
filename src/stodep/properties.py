"""Numerical certification of structural properties on concrete instances.

Checked against exact DP values: value-function monotonicity (more items never
hurt), the immediate-rewards inequality (depleting items without consuming an
epoch, credited at the current epoch's reward, never decreases value), reward
structure (non-negative, non-increasing in t, zero at the horizon), potential
monotonicity/submodularity, and the myopic approximation-ratio bounds.

Tolerance semantics: a pair (lhs, rhs) that must satisfy lhs <= rhs is a
violation iff lhs > rhs + max(tol, tol * |rhs|).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import ConfigError, EnumerationCapExceeded
from .model import (
    DEFAULT_STATE_CAP,
    Instance,
    State,
    _iter_box,
    outcome_reward_fn,
    validate_instance,
)
from .rewards import (
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    SubmodularReward,
)
from .dp import ValueTable, decode_state, evaluate_policy_exact, solve_clairvoyant
from .serialize import instance_fingerprint

DEFAULT_TOL = 1e-9
DEFAULT_PAIR_CAP = 10**7


def _exceeds(lhs: float, rhs: float, tol: float) -> bool:
    return lhs > rhs + max(tol, tol * abs(rhs))


@dataclass
class Violation:
    """One witnessed inequality failure."""

    witness: dict
    lhs: float
    rhs: float
    gap: float

    def to_dict(self) -> dict:
        return {"witness": self.witness, "lhs": self.lhs, "rhs": self.rhs, "gap": self.gap}


@dataclass
class PropertyReport:
    property_name: str
    fingerprint: str
    checked: int
    violations: list[Violation]
    worst_gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "fingerprint": self.fingerprint,
            "checked": self.checked,
            "passed": self.passed,
            "worst_gap": self.worst_gap,
            "tolerance": self.tolerance,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass
class RatioReport:
    """Per-state maximum of J* / J^policy against a claimed bound."""

    fingerprint: str
    policy_name: str
    bound: float
    tolerance: float
    j_star_initial: float
    j_policy_initial: float
    initial_ratio: float
    max_ratio: float
    worst_state: dict | None
    zero_value_states: list[dict]
    checked: int

    @property
    def slack(self) -> float:
        return self.bound - self.max_ratio

    @property
    def passed(self) -> bool:
        if self.zero_value_states:
            return False
        return not _exceeds(self.max_ratio, self.bound, self.tolerance)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "policy": self.policy_name,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "j_star_initial": self.j_star_initial,
            "j_policy_initial": self.j_policy_initial,
            "initial_ratio": self.initial_ratio,
            "max_ratio": self.max_ratio,
            "slack": self.slack,
            "worst_state": self.worst_state,
            "zero_value_states": self.zero_value_states,
            "checked": self.checked,
            "passed": self.passed,
        }


def check_vfm(instance: Instance, table: ValueTable, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Value-function monotonicity: J(x - e_m, t) <= J(x, t) for all x, m, t.

    Single-coordinate decrements suffice: the full componentwise order follows
    by chaining them.
    """
    table.require_match(instance)
    caps = instance.capacities
    violations: list[Violation] = []
    worst = -math.inf
    checked = 0
    for t in range(instance.horizon + 1):
        col = table.values[:, t]
        for si in range(table.num_states):
            x = decode_state(si, caps)
            rhs = float(col[si])
            for m in range(instance.num_types):
                if x[m] == 0:
                    continue
                lhs = float(col[si - table.radices[m]])
                checked += 1
                gap = lhs - rhs
                worst = max(worst, gap)
                if _exceeds(lhs, rhs, tol):
                    violations.append(
                        Violation(
                            witness={"x": list(x), "m": m, "t": t},
                            lhs=lhs,
                            rhs=rhs,
                            gap=gap,
                        )
                    )
    return PropertyReport(
        property_name="vfm",
        fingerprint=table.fingerprint,
        checked=checked,
        violations=violations,
        worst_gap=worst if checked else 0.0,
        tolerance=tol,
    )


def check_ir(
    instance: Instance,
    table: ValueTable,
    tol: float = DEFAULT_TOL,
    *,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> PropertyReport:
    """Immediate rewards: J(x, t) <= g(x, x - alpha, t) + J(x - alpha, t), all alpha <= x.

    The inequality is checked on every depletion vector, not just unit steps,
    because g need not be additive across alpha.  For decaying-linear rewards
    the credited amount sum_m alpha_m w[m][t] coincides with g at epoch t, so g
    is used uniformly.
    """
    table.require_match(instance)
    caps = instance.capacities
    pairs = instance.horizon + 1
    for c in caps:
        pairs *= (c + 1) * (c + 2) // 2
    if pairs > pair_cap:
        raise EnumerationCapExceeded(f"(x, alpha) enumeration {pairs} exceeds cap {pair_cap}")
    g = outcome_reward_fn(instance)
    violations: list[Violation] = []
    worst = -math.inf
    checked = 0
    radices = table.radices
    for t in range(instance.horizon + 1):
        col = table.values[:, t]
        for si in range(table.num_states):
            x = decode_state(si, caps)
            lhs = float(col[si])
            for alpha in _iter_box(x):
                delta = sum(a * r for a, r in zip(alpha, radices))
                rhs = g(x, alpha, t) + float(col[si - delta])
                checked += 1
                gap = lhs - rhs
                worst = max(worst, gap)
                if _exceeds(lhs, rhs, tol):
                    violations.append(
                        Violation(
                            witness={"x": list(x), "alpha": list(alpha), "t": t},
                            lhs=lhs,
                            rhs=rhs,
                            gap=gap,
                        )
                    )
    return PropertyReport(
        property_name="ir",
        fingerprint=table.fingerprint,
        checked=checked,
        violations=violations,
        worst_gap=worst if checked else 0.0,
        tolerance=tol,
    )


def check_submodular(
    reward: SubmodularReward, domain_bound, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Monotonicity and diminishing returns of the potential on a bounded box.

    Checks w(y + e_m) >= w(y) and, for every comparable pair y' <= y,
    w(y + e_m) - w(y) <= w(y' + e_m) - w(y').  On the integer lattice the
    unit-increment form implies the general vector form by telescoping the
    increment one coordinate at a time.
    """
    if not isinstance(reward, SubmodularReward):
        raise ConfigError("check_submodular applies to the submodular reward variant")
    bound = tuple(int(b) for b in domain_bound)
    M = len(bound)
    points = list(_iter_box(bound))
    violations: list[Violation] = []
    worst = -math.inf
    checked = 0

    def unit(m):
        return tuple(1 if i == m else 0 for i in range(M))

    for y in points:
        wy = reward.w(y)
        for m in range(M):
            y_up = tuple(v + u for v, u in zip(y, unit(m)))
            checked += 1
            gap = wy - reward.w(y_up)
            worst = max(worst, gap)
            if _exceeds(wy, reward.w(y_up), tol):
                violations.append(
                    Violation(
                        witness={"kind": "monotonicity", "y": list(y), "m": m},
                        lhs=wy,
                        rhs=reward.w(y_up),
                        gap=gap,
                    )
                )
    for y in points:
        wy = reward.w(y)
        for y_lo in _iter_box(y):
            if y_lo == y:
                continue
            w_lo = reward.w(y_lo)
            for m in range(M):
                e = unit(m)
                lhs = reward.w(tuple(a + b for a, b in zip(y, e))) - wy
                rhs = reward.w(tuple(a + b for a, b in zip(y_lo, e))) - w_lo
                checked += 1
                gap = lhs - rhs
                worst = max(worst, gap)
                if _exceeds(lhs, rhs, tol):
                    violations.append(
                        Violation(
                            witness={
                                "kind": "diminishing_returns",
                                "y": list(y),
                                "y_prime": list(y_lo),
                                "m": m,
                            },
                            lhs=lhs,
                            rhs=rhs,
                            gap=gap,
                        )
                    )
    return PropertyReport(
        property_name="submodular",
        fingerprint=f"reward:{reward.label}",
        checked=checked,
        violations=violations,
        worst_gap=worst if checked else 0.0,
        tolerance=tol,
    )


def check_assumption1(instance: Instance, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Reward structure: non-negative, non-increasing in t, zero at the horizon.

    Exhaustive over the finite domain for tabulated rewards; per-entry
    structural checks for the built-in families (whose form already forces the
    time shape); bounded monotonicity probing for custom potentials.
    """
    rew = instance.reward
    violations: list[Violation] = []
    checked = 0
    worst = -math.inf
    T = instance.horizon

    def record(witness, lhs, rhs):
        nonlocal checked, worst
        checked += 1
        gap = lhs - rhs
        worst = max(worst, gap)
        if _exceeds(lhs, rhs, tol):
            violations.append(Violation(witness=witness, lhs=lhs, rhs=rhs, gap=gap))

    if isinstance(rew, LinearReward):
        for m, w in enumerate(rew.weights):
            record({"field": "weights", "m": m, "rule": "non-negative"}, 0.0, w)
    elif isinstance(rew, LinearDecayingReward):
        for m, row in enumerate(rew.weights):
            for t, w in enumerate(row):
                record({"field": "weights", "m": m, "t": t, "rule": "non-negative"}, 0.0, w)
                if t + 1 < len(row):
                    record(
                        {"field": "weights", "m": m, "t": t + 1, "rule": "non-increasing"},
                        row[t + 1],
                        w,
                    )
    elif isinstance(rew, SubmodularReward):
        # g >= 0 reduces to monotonicity of the potential; probe unit steps on
        # the capacity box.  Built-in forms are monotone by construction but a
        # cheap probe also covers custom evaluators.
        for y in _iter_box(instance.capacities):
            wy = rew.w(tuple(y))
            for m in range(instance.num_types):
                if y[m] == instance.capacities[m]:
                    continue
                y_up = tuple(v + (1 if i == m else 0) for i, v in enumerate(y))
                record({"field": "potential", "y": list(y), "m": m, "rule": "monotone"}, wy, rew.w(y_up))
    elif isinstance(rew, GeneralTabulatedReward):
        for x in _iter_box(instance.capacities):
            for x_next in _iter_box(x):
                previous = None
                for t in range(T + 1):
                    value = rew.table.get((x, x_next, t))
                    if value is None:
                        if t < T:
                            violations.append(
                                Violation(
                                    witness={"x": list(x), "x_next": list(x_next), "t": t,
                                             "rule": "missing entry"},
                                    lhs=0.0,
                                    rhs=0.0,
                                    gap=0.0,
                                )
                            )
                            previous = None
                            continue
                        value = 0.0
                    record({"x": list(x), "x_next": list(x_next), "t": t, "rule": "non-negative"},
                           0.0, value)
                    if t == T:
                        record({"x": list(x), "x_next": list(x_next), "t": t,
                                "rule": "terminal reward nonzero"}, value, 0.0)
                    if previous is not None:
                        record({"x": list(x), "x_next": list(x_next), "t": t,
                                "rule": "non-increasing in t"}, value, previous)
                    previous = value
    return PropertyReport(
        property_name="assumption1",
        fingerprint=instance_fingerprint(instance),
        checked=checked,
        violations=violations,
        worst_gap=worst if checked else 0.0,
        tolerance=tol,
    )


def check_ratio(
    instance: Instance,
    policy,
    bound: float,
    tol: float = DEFAULT_TOL,
    *,
    j_star: ValueTable | None = None,
    j_policy: ValueTable | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> RatioReport:
    """Maximum over all states of J* / J^policy versus a claimed bound.

    States with J^policy = 0 < J* are reported separately (the ratio is
    unbounded there); for the families the guarantees cover, J^policy = 0
    forces J* = 0.  Precomputed tables may be supplied to avoid re-solving.
    """
    if j_star is None:
        j_star = solve_clairvoyant(instance, state_cap=state_cap)
    else:
        j_star.require_match(instance)
    if j_policy is None:
        j_policy = evaluate_policy_exact(instance, policy, state_cap=state_cap)
    else:
        j_policy.require_match(instance)
    caps = instance.capacities
    max_ratio = 1.0
    worst_state = None
    zero_states: list[dict] = []
    checked = 0
    for t in range(instance.horizon + 1):
        star_col = j_star.values[:, t]
        pol_col = j_policy.values[:, t]
        for si in range(j_star.num_states):
            star = float(star_col[si])
            pol = float(pol_col[si])
            checked += 1
            if pol == 0.0:
                if star > 0.0:
                    zero_states.append({"x": list(decode_state(si, caps)), "t": t, "j_star": star})
                continue
            ratio = star / pol
            if ratio > max_ratio:
                max_ratio = ratio
                worst_state = {"x": list(decode_state(si, caps)), "t": t,
                               "j_star": star, "j_policy": pol}
    x0 = instance.initial_items
    si0 = j_star.state_index(x0)
    star0 = float(j_star.values[si0, 0])
    pol0 = float(j_policy.values[si0, 0])
    if pol0 > 0.0:
        initial_ratio = star0 / pol0
    else:
        initial_ratio = 1.0 if star0 == 0.0 else math.inf
    return RatioReport(
        fingerprint=j_star.fingerprint,
        policy_name=getattr(policy, "name", str(policy)),
        bound=float(bound),
        tolerance=tol,
        j_star_initial=star0,
        j_policy_initial=pol0,
        initial_ratio=initial_ratio,
        max_ratio=max_ratio,
        worst_state=worst_state,
        zero_value_states=zero_states,
        checked=checked,
    )
