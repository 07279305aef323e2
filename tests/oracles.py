"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written against the math directly (math.comb,
plain recursion, exhaustive subset enumeration) rather than reusing the
production solver paths it cross-checks.
"""

import itertools
import math
from functools import lru_cache

from stodep import State, reward as instance_reward


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
        best = -math.inf
        for a in activities:
            p_row = instance.probability_row(t, a)
            total = 0.0
            for alpha, prob in binomial_pmf_oracle(x, p_row).items():
                x_next = tuple(v - d for v, d in zip(x, alpha))
                total += prob * (
                    instance_reward(x, x_next, t, instance) + value(x_next, t + 1)
                )
            best = max(best, total)
        return best

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
