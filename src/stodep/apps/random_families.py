"""Seeded random instance generators for the two guaranteed reward families.

Used by batch experiments and the acceptance suites: desk-scale instances with
arbitrary probability schedules whose rewards are submodular (coverage or
budget-truncated linear) or decaying linear, so the myopic two-approximation
applies per instance.
"""

from __future__ import annotations

import numpy as np

from ..model import Instance
from ..rewards import (
    BudgetedLinearFunction,
    CoverageFunction,
    LinearDecayingReward,
    SubmodularReward,
    require_integers,
)


def _random_shape(rng, max_types, max_capacity, max_horizon, max_activities):
    bounds = dict(max_types=max_types, max_capacity=max_capacity, max_horizon=max_horizon,
                  max_activities=max_activities)
    require_integers(bounds, *bounds)
    M = int(rng.integers(1, max_types + 1))
    caps = tuple(int(rng.integers(1, max_capacity + 1)) for _ in range(M))
    T = int(rng.integers(1, max_horizon + 1))
    A = int(rng.integers(1, max_activities + 1))
    x0 = tuple(int(rng.integers(0, c + 1)) for c in caps)
    if all(v == 0 for v in x0):
        x0 = caps
    return M, caps, T, A, x0


def random_submodular_instance(
    seed: int,
    *,
    max_types: int = 3,
    max_capacity: int = 2,
    max_horizon: int = 4,
    max_activities: int = 4,
) -> Instance:
    """Random schedule with a random coverage or budgeted-linear reward."""
    rng = np.random.default_rng(seed)
    M, caps, T, A, x0 = _random_shape(rng, max_types, max_capacity, max_horizon, max_activities)
    schedule = rng.random((T, A, M))
    if rng.random() < 0.5:
        n_elements = int(rng.integers(1, 7))
        covers = tuple(
            frozenset(int(e) for e in range(n_elements) if rng.random() < 0.5) for _ in range(M)
        )
        weights = tuple(float(rng.random()) for _ in range(n_elements))
        evaluator = CoverageFunction(n_elements, covers, weights)
        family = "coverage"
    else:
        n_groups = int(rng.integers(1, M + 1))
        evaluator = BudgetedLinearFunction(
            budgets=tuple(float(3.0 * rng.random()) for _ in range(n_groups)),
            values=tuple(float(2.0 * rng.random()) for _ in range(M)),
            groups=tuple(int(rng.integers(0, n_groups)) for _ in range(M)),
        )
        family = "budgeted"
    return Instance(
        num_types=M,
        capacities=caps,
        initial_items=x0,
        horizon=T,
        activities=tuple(f"a{j}" for j in range(A)),
        schedule=schedule,
        reward=SubmodularReward(evaluator),
        metadata={"app": "random-submodular", "seed": int(seed), "form": family},
    )


def random_linear_decaying_instance(
    seed: int,
    *,
    max_types: int = 3,
    max_capacity: int = 2,
    max_horizon: int = 4,
    max_activities: int = 4,
) -> Instance:
    """Random schedule with random non-increasing per-type reward rows."""
    rng = np.random.default_rng(seed)
    M, caps, T, A, x0 = _random_shape(rng, max_types, max_capacity, max_horizon, max_activities)
    schedule = rng.random((T, A, M))
    weights = tuple(
        tuple(sorted((float(rng.random()) for _ in range(T)), reverse=True)) for _ in range(M)
    )
    return Instance(
        num_types=M,
        capacities=caps,
        initial_items=x0,
        horizon=T,
        activities=tuple(f"a{j}" for j in range(A)),
        schedule=schedule,
        reward=LinearDecayingReward(weights),
        metadata={"app": "random-linear-decaying", "seed": int(seed)},
    )
