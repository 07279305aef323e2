"""Submodular maximization over cardinality and partition matroids, plus
stochastic selection.

Both reductions use one unit-capacity type per ground-set element and one
activity per element, and one builder (_matroid_instance): under a
partition the horizon is sum_i k_i and consecutive time blocks of length k_i
admit only elements of block i (the myopic policy then coincides with the
local-greedy heuristic); the cardinality bound k is the partition of one
block, every element, with k_1 = k.
Selection is deterministic unless per-element success sequences are supplied,
in which case attempting element e at epoch t succeeds with probability
P_t^e (stochastic selection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ActivityCapExceeded, ConfigError, InvalidPartition
from ..model import DEFAULT_ACTIVITY_CAP, Instance
from ..rewards import (
    BudgetedLinearFunction,
    CoverageFunction,
    SetFunctionEvaluator,
    SubmodularReward,
    require_integers,
)


@dataclass
class MatroidParams:
    """Ground set with a monotone submodular value and a matroid constraint.

    value: a count-vector evaluator (CoverageFunction, BudgetedLinearFunction)
    or a set-function callable f(frozenset of element indices) -> float.
    Exactly one of `cardinality` or `partition` must be given.  partition is a
    list of (element-index list, k_i) blocks.  selection_probs is None for
    deterministic selection, a constant in [0, 1], or a mapping from element
    index to a per-epoch probability list.
    """

    elements: tuple[str, ...]
    value: object
    cardinality: int | None = None
    partition: tuple[tuple[tuple[int, ...], int], ...] | None = None
    selection_probs: object = None

    def __post_init__(self):
        self.elements = tuple(str(e) for e in self.elements)
        if (self.cardinality is None) == (self.partition is None):
            raise ConfigError("exactly one of cardinality or partition must be set")


def _reward_for(params: MatroidParams) -> SubmodularReward:
    value = params.value
    if isinstance(value, (CoverageFunction, BudgetedLinearFunction, SetFunctionEvaluator)):
        return SubmodularReward(value)
    if callable(value):
        return SubmodularReward(SetFunctionEvaluator(value))
    raise ConfigError("value must be an evaluator or a set-function callable")


def _success(params: MatroidParams, m: int, t: int) -> float:
    probs = params.selection_probs
    if probs is None:
        return 1.0
    if isinstance(probs, (int, float)):
        return float(probs)
    seq = probs[m]
    return float(seq[t])


def _matroid_instance(params: MatroidParams, blocks, metadata: dict, activity_cap: int) -> Instance:
    """The instance of (members, k_i) blocks: k_i consecutive epochs admit
    only the members of block i."""
    n = len(params.elements)
    if n > activity_cap:
        raise ActivityCapExceeded(f"{n} activities exceed cap {activity_cap}")
    seen: set[int] = set()
    for members, k_i in blocks:
        members = set(members)
        if members & seen:
            raise InvalidPartition("partition blocks overlap")
        if any(m < 0 or m >= n for m in members):
            raise InvalidPartition("partition references an unknown element")
        if int(k_i) < 0:
            raise InvalidPartition("a partition block admits k_i >= 0 selections")
        seen |= members
    if seen != set(range(n)):
        raise InvalidPartition("partition does not cover the ground set")
    # the members selectable at each epoch
    epochs = [frozenset(members) for members, k_i in blocks for _ in range(int(k_i))]
    if not epochs:
        raise ConfigError("partition must admit at least one selection")
    schedule = np.zeros((len(epochs), n, n))
    for t, members in enumerate(epochs):
        for j in members:
            schedule[t, j, j] = _success(params, j, t)
    return Instance(
        num_types=n,
        capacities=(1,) * n,
        initial_items=(1,) * n,
        horizon=len(epochs),
        activities=params.elements,
        schedule=schedule,
        reward=_reward_for(params),
        metadata={**metadata, "stochastic": params.selection_probs is not None},
    )


def build_cardinality_matroid_instance(
    params: MatroidParams, *, activity_cap: int = DEFAULT_ACTIVITY_CAP
) -> Instance:
    if params.cardinality is None:
        raise ConfigError("cardinality bound required")
    n = len(params.elements)
    k = int(params.cardinality)
    if not 1 <= k <= n:
        raise ConfigError("need 1 <= k <= |elements|")
    return _matroid_instance(params, [(range(n), k)], {"app": "matroid-card", "k": k}, activity_cap)


def build_partition_matroid_instance(
    params: MatroidParams, *, activity_cap: int = DEFAULT_ACTIVITY_CAP
) -> Instance:
    if params.partition is None:
        raise ConfigError("partition blocks required")
    listed = [[sorted(int(m) for m in members), int(k_i)] for members, k_i in params.partition]
    metadata = {"app": "matroid-part", "blocks": listed}
    return _matroid_instance(params, params.partition, metadata, activity_cap)


def matroid_params_from_dict(data: Mapping) -> MatroidParams:
    """Parse JSON matroid parameters (value must be a built-in evaluator spec).

    A selection_probs object names each element by its index as a string,
    as JSON keys are; a key that is not an element's index is refused.
    """
    from ..rewards import reward_from_dict

    elements = tuple(data["elements"])
    require_integers(data, "cardinality")
    for i, block in enumerate(data.get("partition") or ()):
        require_integers(block, "elements", "k", prefix=f"partition[{i}].")
    probs = data.get("selection_probs")
    if isinstance(probs, Mapping):
        index = {str(m): m for m in range(len(elements))}
        stray = [key for key in probs if str(key) not in index]
        if stray:
            raise ConfigError(f"selection_probs key {stray[0]!r} is not an element index "
                              f"in [0, {len(elements)})")
        probs = {index[str(key)]: seq for key, seq in probs.items()}
    value_spec = data["value"]
    reward = reward_from_dict(value_spec)
    if not isinstance(reward, SubmodularReward):
        raise ConfigError("matroid value must be a submodular evaluator spec")
    partition = None
    if data.get("partition") is not None:
        partition = tuple(
            (tuple(int(m) for m in block["elements"]), int(block["k"]))
            for block in data["partition"]
        )
    return MatroidParams(
        elements=elements,
        value=reward.evaluator,
        cardinality=data.get("cardinality"),
        partition=partition,
        selection_probs=probs,
    )
