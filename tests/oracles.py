"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against the math directly (math.comb,
plain recursion, exhaustive subset enumeration) rather than reusing the
production solver paths it cross-checks.
"""

import hashlib
import itertools
import json
import math
import struct
from collections.abc import Mapping
from functools import lru_cache

import numpy as np

from stodep import (
    BudgetedLinearFunction,
    CoverageFunction,
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    State,
    SubmodularReward,
    mix64,
    sample_depletion,
)


@lru_cache(maxsize=16)
def _entries(rew):
    """A tabulated reward's {(x, x', t): value}, from its JSON entries."""
    return {(tuple(x), tuple(x_next), t): value for x, x_next, t, value in rew.spec_dict()["entries"]}


def reward_oracle(instance, x, x_next, t):
    """g(x, x', t) from each family's formula; 0 at t >= horizon.

    Linear families sum w_m (x_m - x'_m) in type order from 0, submodular
    rewards difference the evaluator, w(cap - x') - w(cap - x), and a
    tabulated reward looks its entry up (KeyError if there is none).
    """
    rew = instance.reward
    if t >= instance.horizon:
        return 0.0
    if isinstance(rew, LinearReward):
        return sum(w * (v - n) for w, v, n in zip(rew.weights, x, x_next))
    if isinstance(rew, LinearDecayingReward):
        return sum(row[t] * (v - n) for row, v, n in zip(rew.weights, x, x_next))
    if isinstance(rew, SubmodularReward):
        caps = instance.capacities
        after = float(rew.evaluator(tuple(c - n for c, n in zip(caps, x_next))))
        return after - float(rew.evaluator(tuple(c - v for c, v in zip(caps, x))))
    assert isinstance(rew, GeneralTabulatedReward)
    return _entries(rew)[tuple(x), tuple(x_next), t]


def monte_carlo_oracle(instance, policy, n_reps, master_seed):
    """(mean, stddev) of n_reps episodes, one step at a time.

    Episode k draws from default_rng(mix64(master_seed, k)) through
    sample_depletion, earns reward_oracle per step, added in epoch order from
    0.0; the summary is monte_carlo_value's: math.fsum over the totals in
    replication order, sample stddev, 0.0 for one replication.
    """
    totals = []
    for k in range(n_reps):
        rng = np.random.default_rng(mix64(master_seed, k))
        x, total = instance.initial_items, 0.0
        for t in range(instance.horizon):
            state = State(x, t)
            outcome = sample_depletion(state, policy.select(state, instance), instance, rng)
            x_next = tuple(v - d for v, d in zip(x, outcome))
            total += reward_oracle(instance, x, x_next, t)
            x = x_next
        totals.append(total)
    mean = math.fsum(totals) / n_reps
    if n_reps == 1:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in totals) / (n_reps - 1))


def from_potential_oracle(potential, capacities, horizon):
    """The [x, x', t, value] entries tabulating a depletion potential, in key order.

    The scalar loop: x, then x' <= x, then t, each lexicographically, with
    value w(cap - x') - w(cap - x) and the potential read again at every pair.
    """
    caps = tuple(int(c) for c in capacities)
    entries = []
    for x in itertools.product(*(range(c + 1) for c in caps)):
        w_x = float(potential(tuple(c - v for c, v in zip(caps, x))))
        for x_next in itertools.product(*(range(v + 1) for v in x)):
            w_next = float(potential(tuple(c - v for c, v in zip(caps, x_next))))
            entries += [(x, x_next, t, w_next - w_x) for t in range(horizon)]
    return entries


def binomial_pmf_oracle(x, p):
    """Joint pmf of independent Binomial(x_m, p_m) counts via the closed formula."""
    out = {}
    for alpha in itertools.product(*(range(v + 1) for v in x)):
        prob = 1.0
        for m, a in enumerate(alpha):
            prob *= math.comb(x[m], a) * p[m] ** a * (1.0 - p[m]) ** (x[m] - a)
        if prob > 0.0:
            out[alpha] = prob
    return out


def q_oracle(instance, x, t, a, value=None):
    """E[g(x, x - X, t) + value(x - X, t + 1)] for activity a; value=None means V = 0."""
    total = 0.0
    for alpha, prob in binomial_pmf_oracle(x, instance.probability_row(t, a)).items():
        x_next = tuple(v - d for v, d in zip(x, alpha))
        later = 0.0 if value is None else value(x_next, t + 1)
        total += prob * (reward_oracle(instance, x, x_next, t) + later)
    return total


def value_function_oracle(instance, policy=None):
    """J(x, t) by plain memoized recursion: optimal, or under policy if given.

    Returns the memoized function of (items tuple, t).
    """

    @lru_cache(maxsize=None)
    def value(x, t):
        if t >= instance.horizon:
            return 0.0
        if policy is None:
            activities = range(instance.num_activities)
        else:
            activities = [policy.select(State(x, t), instance)]
        return max(q_oracle(instance, x, t, a, value) for a in activities)

    return value


def dp_value_oracle(instance, items=None, t=0):
    """Optimal value by plain memoized recursion over (items, t)."""
    start = tuple(items) if items is not None else instance.initial_items
    return value_function_oracle(instance)(start, t)


def set_cover_exists(num_elements, covers, k):
    """True iff some <= k of the cover sets union to the full universe."""
    universe = frozenset(range(num_elements))
    for size in range(0, min(k, len(covers)) + 1):
        for combo in itertools.combinations(covers, size):
            union = frozenset().union(*combo) if combo else frozenset()
            if union >= universe:
                return True
    return False


def max_coverage_value(covers, weights, k):
    """Best total weight coverable by at most k of the cover sets."""
    best = 0.0
    for size in range(0, min(k, len(covers)) + 1):
        for combo in itertools.combinations(covers, size):
            union = set().union(*combo) if combo else set()
            best = max(best, sum(weights[e] for e in union))
    return best


def best_feasible_subset_value(evaluate, num_elements, feasible):
    """max over subsets F with feasible(F) of evaluate(F) - evaluate(empty)."""
    base = evaluate(frozenset())
    best = 0.0
    for size in range(num_elements + 1):
        for combo in itertools.combinations(range(num_elements), size):
            subset = frozenset(combo)
            if feasible(subset):
                best = max(best, evaluate(subset) - base)
    return best


# ------------------------------------------- scalar certifiers (one pair a step)


def _breaks(lhs, rhs, tol):
    """lhs <= rhs fails under tol: a side is not finite or lhs > rhs + max(tol, tol |rhs|)."""
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return True
    return lhs > rhs + max(tol, tol * abs(rhs))


def _index_states(capacities):
    """Item vectors in mixed-radix index order (type 0 least significant)."""
    boxes = (range(c + 1) for c in reversed(capacities))
    return [tuple(reversed(v)) for v in itertools.product(*boxes)]


def table_rules_oracle(instance):
    """Value rules on a tabulated reward, as (field, key, rule, lhs, rhs), one loop step each.

    Walks x over the capacity box, x' over the box of x and t up to the
    horizon.  A missing terminal entry counts as 0; an instance has every
    entry below the horizon.
    """
    rew, T = instance.reward, instance.horizon
    for x in itertools.product(*(range(c + 1) for c in instance.capacities)):
        for x_next in itertools.product(*(range(v + 1) for v in x)):
            previous = None
            for t in range(T + 1):
                key = (x, x_next, t)
                value = _entries(rew).get(key, 0.0)
                yield "reward.table", key, "negative reward", 0.0, value
                if t == T:
                    yield "reward.table", key, "terminal reward nonzero", abs(value), 0.0
                if previous is not None:
                    yield "reward.table", key, "non-increasing in t", value, previous
                previous = value


def _certificate(pairs, tol):
    """(checked, worst_gap, violations) over (witness, lhs, rhs) triples, in order."""
    checked, worst, violations = 0, -math.inf, []
    for witness, lhs, rhs in pairs:
        checked += 1
        gap = lhs - rhs
        worst = max(worst, gap)
        if _breaks(lhs, rhs, tol):
            violations.append((witness, lhs, rhs, gap))
    return checked, worst if checked else 0.0, violations


def vfm_oracle(instance, values, tol):
    """J(x - e_m, t) <= J(x, t) pair by pair on values[index(x), t]."""
    states = _index_states(instance.capacities)
    index = {x: i for i, x in enumerate(states)}

    def pairs():
        for t in range(instance.horizon + 1):
            for x in states:
                for m in range(len(x)):
                    if x[m]:
                        lower = x[:m] + (x[m] - 1,) + x[m + 1:]
                        witness = {"x": list(x), "m": m, "t": t}
                        yield witness, values[index[lower], t], values[index[x], t]

    return _certificate(pairs(), tol)


def ir_oracle(instance, values, tol):
    """J(x, t) <= g(x, x - alpha, t) + J(x - alpha, t) for every alpha <= x; g = 0 at t = T."""
    states = _index_states(instance.capacities)
    index = {x: i for i, x in enumerate(states)}
    T = instance.horizon

    def pairs():
        for t in range(T + 1):
            for x in states:
                for alpha in itertools.product(*(range(v + 1) for v in x)):
                    x_next = tuple(v - a for v, a in zip(x, alpha))
                    g = reward_oracle(instance, x, x_next, t)
                    witness = {"x": list(x), "alpha": list(alpha), "t": t}
                    yield witness, values[index[x], t], g + values[index[x_next], t]

    return _certificate(pairs(), tol)


def ratio_oracle(instance, star_values, policy_values):
    """(max_ratio, worst_state, zero_value_states, checked) of J* / J^policy, scanned by (t, x)."""
    states = _index_states(instance.capacities)
    max_ratio, worst_state, zero_states, checked = 1.0, None, [], 0
    for t in range(instance.horizon + 1):
        for si, x in enumerate(states):
            star, pol = float(star_values[si, t]), float(policy_values[si, t])
            checked += 1
            if pol == 0.0:
                if star > 0.0:
                    zero_states.append({"x": list(x), "t": t, "j_star": star})
                continue
            if star / pol > max_ratio:
                max_ratio = star / pol
                worst_state = {"x": list(x), "t": t, "j_star": star, "j_policy": pol}
    return max_ratio, worst_state, zero_states, checked


def submodular_oracle(reward, bound, tol):
    """w(y) <= w(y + e_m), then w(y + e_m) - w(y) <= w(y' + e_m) - w(y') for y' <= y, y' != y."""
    box = list(itertools.product(*(range(b + 1) for b in bound)))
    w = reward.w

    def up(y, m):
        return y[:m] + (y[m] + 1,) + y[m + 1:]

    def pairs():
        for y in box:
            for m in range(len(y)):
                yield {"kind": "monotonicity", "y": list(y), "m": m}, w(y), w(up(y, m))
        for y in box:
            for y_lo in itertools.product(*(range(v + 1) for v in y)):
                if y_lo == y:
                    continue
                for m in range(len(y)):
                    witness = {"kind": "diminishing_returns", "y": list(y),
                               "y_prime": list(y_lo), "m": m}
                    yield witness, w(up(y, m)) - w(y), w(up(y_lo, m)) - w(y_lo)

    return _certificate(pairs(), tol)


def _plain(value):
    """JSON-ready copy of frozen metadata: mappings become dicts, tuples lists."""
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def fingerprint_oracle(instance):
    """SHA-256 of the layout the stodep.serialize docstring documents.

    The head is the instance's JSON form with each bulk array replaced by
    ["<f8" or "<i8", shape]; then the schedule and the reward's arrays
    follow as little-endian float64 ("<d") or int64 ("<q") values in C order.
    """
    rew, caps = instance.reward, list(instance.capacities)
    T, A, M = instance.horizon, len(instance.activities), instance.num_types
    schedule = [p for rows in instance.schedule.tolist() for row in rows for p in row]
    arrays = [("d", schedule)]
    if isinstance(rew, LinearReward):
        reward = {"kind": "linear", "weights": ["<f8", [M]]}
        arrays.append(("d", list(rew.weights)))
    elif isinstance(rew, LinearDecayingReward):
        reward = {"kind": "linear_decaying", "weights": ["<f8", [M, T]]}
        arrays.append(("d", [w for row in rew.weights for w in row]))
    elif isinstance(rew, GeneralTabulatedReward):
        entries = rew.spec_dict()["entries"]  # in key order
        n = len(entries)
        reward = {"kind": "general_tabulated", "keys": ["<i8", [n, 2 * M + 1]],
                  "values": ["<f8", [n]]}
        arrays.append(("q", [k for x, x_next, t, _ in entries for k in (*x, *x_next, t)]))
        arrays.append(("d", [value for *_, value in entries]))
    elif isinstance(rew.evaluator, CoverageFunction):
        ev = rew.evaluator
        reward = {"kind": "submodular_coverage", "num_elements": ev.num_elements,
                  "covers": [sorted(c) for c in ev.covers],
                  "element_weights": list(ev.element_weights)}
    elif isinstance(rew.evaluator, BudgetedLinearFunction):
        ev = rew.evaluator
        reward = {"kind": "submodular_budgeted",
                  "budgets": [None if b == math.inf else b for b in ev.budgets],
                  "values": list(ev.values), "groups": list(ev.groups)}
    else:
        box = itertools.product(*(range(c + 1) for c in caps))
        reward = {"kind": "submodular_custom", "label": rew.label,
                  "values": ["<f8", [c + 1 for c in caps]]}
        arrays.append(("d", [float(rew.evaluator(y)) for y in box]))
    head = {
        "num_types": M, "capacities": caps, "initial_items": list(instance.initial_items),
        "horizon": T, "activities": list(instance.activities),
        "schedule": ["<f8", [T, A, M]], "reward": reward, "metadata": _plain(instance.metadata),
    }
    if instance.arrivals is not None:
        head["arrivals"] = list(instance.arrivals)
    if instance.deadlines is not None:
        head["deadlines"] = list(instance.deadlines)
    sha = hashlib.sha256(json.dumps(head, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    for code, values in arrays:
        sha.update(struct.pack(f"<{len(values)}{code}", *values))
    return sha.hexdigest()
