"""Numerical certification of structural properties on concrete instances.

Checked against exact DP values: value-function monotonicity (more items never
hurt), the immediate-rewards inequality (depleting items without consuming an
epoch, credited at the current epoch's reward, never decreases value), reward
structure (non-negative, non-increasing in t, zero at the horizon), potential
monotonicity/submodularity, and the myopic approximation-ratio bounds.

Tolerance semantics: a pair (lhs, rhs) that must satisfy lhs <= rhs is a
violation iff either side is not finite or lhs > rhs + max(tol, tol * |rhs|)
(stodep.model.exceeds).  A tolerance that is not finite and >= 0 certifies
nothing, and every certifier refuses it with ConfigError
(stodep.model.require_tolerance), as stodep.dp.audit_table does.  The
value-table certifiers compare whole arrays of such pairs; each docstring
gives the order its violations are listed in.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, EnumerationCapExceeded
from .model import DEFAULT_STATE_CAP, Instance, exceeds, require_tolerance, reward_rules
from .rewards import SubmodularReward, pair_count, pair_items, potential_on_box
from .dp import (ValueTable, bellman_operator, decode_state, evaluate_policy_exact,
                 mixed_radix_radices, solve_clairvoyant)
from .serialize import instance_fingerprint

DEFAULT_TOL = 1e-9
DEFAULT_PAIR_CAP = 10**7

# Entries per block of check_ir: a block of pairs (at least one) spans at
# most _BLOCK (pair, t, type) cells, which bounds its working set at a few
# arrays of that size whatever the size of the box.
_BLOCK = 2**16


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
        return not exceeds(self.max_ratio, self.bound, self.tolerance)

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


def _report(name: str, fingerprint: str, tol: float, chunks: Iterable[tuple]) -> PropertyReport:
    """PropertyReport over chunks of pairs that must satisfy lhs <= rhs.

    Each chunk is (lhs, rhs, witness): equal-shape arrays, read in C order,
    and a function from the flat index of a violating pair to its witness.
    worst_gap is the largest lhs - rhs that is not NaN.
    """
    tol = require_tolerance(tol)
    checked, worst, violations = 0, -math.inf, []
    for lhs, rhs, witness in chunks:
        # Views are read in place; flat indices follow C order of their shape.
        lhs = np.asarray(lhs, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        bad = np.flatnonzero(exceeds(lhs, rhs, tol))
        # A pair with a side that is not finite is a violation, so inf - inf
        # (a NaN gap) can only occur in a chunk with violations.
        with np.errstate(invalid="ignore") if len(bad) else contextlib.nullcontext():
            gap = lhs - rhs
        checked += gap.size
        worst = max(worst, float(np.fmax.reduce(gap, axis=None, initial=-math.inf)))  # skips NaN
        for i in bad:
            i = int(i)
            violations.append(
                Violation(witness(i), float(lhs.flat[i]), float(rhs.flat[i]), float(gap.flat[i]))
            )
    return PropertyReport(name, fingerprint, checked, violations, worst if checked else 0.0, tol)


def check_vfm(instance: Instance, table: ValueTable, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Value-function monotonicity: J(x - e_m, t) <= J(x, t) for all x, m, t.

    Single-coordinate decrements suffice at tol = 0: the full componentwise
    order follows by chaining them.  With tol > 0 it holds only up to the
    slacks: a chain of k decrements may lose up to k of them.  Violations are
    listed by type m, then epoch, then state index.
    """
    table.require_match(instance)
    # V[x_0, ..., x_{M-1}, t]: the state index is the Fortran-order offset.
    dims = tuple(c + 1 for c in table.capacities)
    values = table.values.reshape(dims + (table.horizon + 1,), order="F")

    def chunks():
        for m in range(len(dims)):
            cut = [slice(None)] * values.ndim
            cut[m] = slice(1, None)
            upper = values[tuple(cut)].transpose()  # J(x, t), t first
            cut[m] = slice(None, -1)
            lower = values[tuple(cut)].transpose()  # J(x - e_m, t)

            def witness(i, m=m, shape=upper.shape):
                t, *x = np.unravel_index(i, shape)
                x = [int(v) for v in reversed(x)]
                x[m] += 1
                return {"x": x, "m": m, "t": int(t)}

            yield lower, upper, witness

    return _report("vfm", table.fingerprint, tol, chunks())


def check_ir(instance: Instance, table: ValueTable, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Immediate rewards: J(x, t) <= g(x, x - alpha, t) + J(x - alpha, t), all alpha <= x.

    The inequality is checked on every depletion vector, not just unit steps,
    because g need not be additive across alpha; g is zero at the horizon.
    The pairs (x, x' = x - alpha) are compared at every epoch at once, a
    block of pairs at a time, read from the pair layout over the types in
    reverse (stodep.rewards.pair_items), which lists them by the state
    index of x, then that of x'.  Violations are listed in that order, then
    by epoch.  More than DEFAULT_PAIR_CAP (pair, epoch) entries raise
    EnumerationCapExceeded before any is compared.
    """
    table.require_match(instance)
    T, M = instance.horizon, instance.num_types
    E = pair_count(instance.capacities)
    pairs = (T + 1) * E
    if pairs > DEFAULT_PAIR_CAP:
        raise EnumerationCapExceeded(f"(x, alpha) enumeration {pairs} exceeds cap {DEFAULT_PAIR_CAP}")
    op = bellman_operator(instance, state_cap=2**62)  # the table already holds every state
    items, values = op.items, table.values
    radices = np.array(mixed_radix_radices(instance.capacities)[::-1])
    block = max(1, _BLOCK // ((T + 1) * M))

    def chunks():
        for lo in range(0, E, block):
            index = np.arange(lo, min(lo + block, E))
            x, x_next = (v @ radices for v in pair_items(index, instance.capacities[::-1]))
            rhs = values[x_next]  # J(x', t), shape (len(x), T + 1)
            rhs[:, :T] += op.rewards(x[:, None], x_next[:, None], np.arange(T))

            def witness(i, x=x, x_next=x_next):
                k, t = divmod(i, T + 1)
                alpha = items[x[k]] - items[x_next[k]]
                return {"x": items[x[k]].tolist(), "alpha": alpha.tolist(), "t": t}

            yield values[x], rhs, witness

    return _report("ir", table.fingerprint, tol, chunks())


def _unit_steps(w: np.ndarray, lower) -> tuple[np.ndarray, ...]:
    """w(y) and w(y + e_m) of each unit step inside w's box from a y <= lower.

    Also returns the points y <= lower, lexicographically, and per step the
    index k of its y among them and its m; the steps come by y, then m.
    """
    points = np.indices([b + 1 for b in lower]).reshape(w.ndim, -1).T
    k, m = np.nonzero(points < np.array(w.shape) - 1)
    unit = np.cumprod((1,) + w.shape[:0:-1])[::-1]  # C-order offset of each e_m
    at = (points @ unit)[k]
    return w.ravel()[at], w.ravel()[at + unit[m]], points, k, m


def check_submodular(
    reward: SubmodularReward, domain_bound, tol: float = DEFAULT_TOL
) -> PropertyReport:
    """Monotonicity and diminishing returns of the potential on a bounded box.

    With gain_m(y) = w(y + e_m) - w(y), checks gain_m(y) >= 0 at every
    y <= bound, and gain_m(y) <= gain_m(y') for every y' < y <= bound
    (componentwise): diminishing returns on the integer lattice (Soma and
    Yoshida, NeurIPS 2015).  A pair's slack depends on y' alone, so one
    comparison per (y', m) with the largest gain_m(y) over y > y' decides
    all its pairs; a gain that is not finite enters that maximum as NaN.
    w is read once at each point of the box [0, bound + 1].  Violations:
    monotonicity by y, then m; then one per failing (y', m), by y', then m
    (lexicographic), witnessed by the first y > y' with a gain that is not
    finite, else the first that attains the maximum.  Before w is read, a
    box of more than DEFAULT_STATE_CAP points raises EnumerationCapExceeded;
    a domain_bound that is not one integer >= 0 per type, ConfigError.
    """
    if not isinstance(reward, SubmodularReward):
        raise ConfigError("check_submodular applies to the submodular reward variant")
    try:
        bound = tuple(domain_bound)
    except TypeError:
        bound = ()
    if not bound or any(isinstance(b, bool) or not isinstance(b, numbers.Integral) or b < 0
                        for b in bound):
        raise ConfigError(f"domain_bound {domain_bound!r}: need one integer >= 0 per type")
    bound = tuple(map(int, bound))
    points = math.prod(b + 2 for b in bound)
    if points > DEFAULT_STATE_CAP:
        raise EnumerationCapExceeded(
            f"box [0, bound + 1] of {points} points exceeds cap {DEFAULT_STATE_CAP}"
        )
    M, dims = len(bound), [b + 1 for b in bound]
    w = potential_on_box(reward.evaluator, dims)
    base, up, box, step_y, step_m = _unit_steps(w, bound)  # every y <= bound has M steps
    with np.errstate(invalid="ignore"):  # inf - inf: a gain that is not finite
        gain = (up - base).reshape(-1, M)  # gain_m(y), y lexicographic
    above = np.where(np.isfinite(gain), gain, np.nan).reshape(dims + [M])
    for j in range(M):  # above[y', m]: max of gain_m(y) over y >= y'
        above = np.flip(np.maximum.accumulate(np.flip(above, j), axis=j), j)
    beyond = np.full_like(above, -np.inf)  # over y > y': the largest of above at y' + e_j
    for j in range(M):
        lo, hi = (slice(None),) * j + (slice(-1),), (slice(None),) * j + (slice(1, None),)
        beyond[lo] = np.maximum(beyond[lo], above[hi])
    beyond = beyond.reshape(-1, M)[:-1]  # the top corner has no y > y'

    def witness(i):
        k, m = divmod(i, M)
        cone = gain.reshape(dims + [M])[tuple(slice(v, None) for v in box[k])][..., m]  # y >= y'
        first = np.argmax(np.where(np.isfinite(cone), cone, np.inf).ravel()[1:])  # not finite first
        y = box[k] + np.unravel_index(1 + first, cone.shape)  # y > y', lexicographic
        return {"kind": "diminishing_returns", "y": y.tolist(), "y_prime": box[k].tolist(), "m": m}

    chunks = [
        (base, up, lambda i: {"kind": "monotonicity", "y": box[step_y[i]].tolist(),
                              "m": int(step_m[i])}),
        (beyond, gain[:-1], witness),
    ]
    return _report("submodular", f"reward:{reward.label}", tol, chunks)


def check_assumption1(instance: Instance, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Reward structure: non-negative, non-increasing in t, zero at the horizon.

    Reports the rules validate_instance applies (stodep.model.reward_rules)
    under tolerance tol, plus, for submodular rewards, a probe of the
    potential's monotonicity along unit steps on the capacity box, which
    also covers custom evaluators.
    """
    lhs, rhs, describe = reward_rules(instance)

    def witness(i):
        field, indices, rule = describe(i)
        return {"field": field, "indices": list(indices), "rule": rule}

    chunks = [(lhs, rhs, witness)]
    rew = instance.reward
    if isinstance(rew, SubmodularReward):
        caps = instance.capacities
        lhs, rhs, points, step_y, step_m = _unit_steps(potential_on_box(rew.evaluator, caps), caps)
        chunks.append((lhs, rhs, lambda i: {"field": "reward.potential",
                                            "indices": [tuple(points[step_y[i]].tolist()),
                                                        int(step_m[i])],
                                            "rule": "potential not monotone"}))
    return _report("assumption1", instance_fingerprint(instance), tol, chunks)


def value_ratio(j_star: float, j_policy: float) -> float:
    """J* / J^pi at one state where J^pi > 0; otherwise 1 if J* = 0, else inf."""
    if j_policy > 0.0:
        return j_star / j_policy
    return 1.0 if j_star == 0.0 else math.inf


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
    forces J* = 0.  worst_state is the first maximum, and zero_value_states
    are listed, in (epoch, state index) order.  Precomputed tables may be
    supplied to avoid re-solving.
    """
    tol = require_tolerance(tol)
    if j_star is None:
        j_star = solve_clairvoyant(instance, state_cap=state_cap)
    else:
        j_star.require_match(instance)
    if j_policy is None:
        j_policy = evaluate_policy_exact(instance, policy, state_cap=state_cap)
    else:
        j_policy.require_match(instance)
    caps = instance.capacities
    star, pol = j_star.values.T, j_policy.values.T  # (epoch, state index)
    zero_states = [
        {"x": list(decode_state(int(si), caps)), "t": int(t), "j_star": float(star[t, si])}
        for t, si in zip(*np.nonzero((pol == 0.0) & (star > 0.0)))
    ]
    with np.errstate(over="ignore"):  # J* / J^policy past the largest double is inf
        ratio = np.divide(star, pol, out=np.ones(star.shape), where=pol != 0.0)
    t, si = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    max_ratio = 1.0
    worst_state = None
    if ratio[t, si] > max_ratio:
        max_ratio = float(ratio[t, si])
        worst_state = {"x": list(decode_state(int(si), caps)), "t": int(t),
                       "j_star": float(star[t, si]), "j_policy": float(pol[t, si])}
    x0 = instance.initial_items
    si0 = j_star.state_index(x0)
    star0 = float(j_star.values[si0, 0])
    pol0 = float(j_policy.values[si0, 0])
    return RatioReport(
        fingerprint=j_star.fingerprint,
        policy_name=getattr(policy, "name", str(policy)),
        bound=float(bound),
        tolerance=tol,
        j_star_initial=star0,
        j_policy_initial=pol0,
        initial_ratio=value_ratio(star0, pol0),
        max_ratio=max_ratio,
        worst_state=worst_state,
        zero_value_states=zero_states,
        checked=ratio.size,
    )
