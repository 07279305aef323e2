"""Monte Carlo episode simulation and statistical policy evaluation.

An episode draws from np.random.default_rng(seed): per epoch the policy's
choice, then one binomial draw per type with items left, in type order.  A
block of _BLOCK episodes reads its rewards with one Bellman operator call.

Reproducibility contract: replication k of a Monte Carlo run uses the seed
mix64(master_seed, k), where mix64 is a splitmix64-style avalanche of
master_seed + (k + 1) * 0x9E3779B97F4A7C15 (mod 2^64).  Per-replication totals
are stored by replication index and combined with math.fsum, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from .dp import BellmanOperator, bellman_operator, mixed_radix_radices
from .errors import DomainError
from .model import Instance, State, _draw, _require_state

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Episodes per rollout block: one rewards read, and the paths held, per block.
_BLOCK = 64


def mix64(seed: int, k: int) -> int:
    """Deterministic 64-bit avalanche mix of a seed and an index."""
    z = (seed + (k + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class EpisodeStep:
    state: State
    activity: int
    outcome: tuple[int, ...]
    reward: float

    def to_dict(self) -> dict:
        return {
            "items": list(self.state.items),
            "t": self.state.epoch,
            "activity": self.activity,
            "outcome": list(self.outcome),
            "reward": self.reward,
        }


@dataclass
class EpisodeTrace:
    """One realized trajectory; per-step rewards sum exactly to total_reward."""

    steps: list[EpisodeStep]
    total_reward: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "total_reward": self.total_reward,
            "steps": [s.to_dict() for s in self.steps],
        }


@dataclass
class EvalSummary:
    mean: float
    stddev: float
    n_reps: int
    std_error: float
    master_seed: int
    policy_name: str

    def to_dict(self) -> dict:
        return asdict(self)


def _rollout(instance: Instance, policy, seeds: list[int], op: BellmanOperator):
    """Roll out one episode per seed from the initial items; op is the instance's operator.

    Returns the item vectors, (seeds, T + 1, types), the activities in one
    list, the rewards, (seeds, T), and the totals.  Only the initial items are
    range-checked: from them a rollout reaches no state outside the capacities.
    """
    T, A, x0 = instance.horizon, instance.num_activities, instance.initial_items
    _require_state(instance, x0, 0)
    rows, visited, chosen = instance._rows, [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        items = x0
        visited += items
        for t in range(T):
            activity = policy.select(State(items, t), instance)
            if not 0 <= activity < A:
                raise DomainError(f"activity index {activity} out of range")
            alpha = _draw(items, rows[t][activity], rng)
            items = tuple(v - d for v, d in zip(items, alpha))
            visited += items
            chosen.append(activity)
    paths = np.array(visited).reshape(len(seeds), T + 1, -1)
    index = paths @ np.array(mixed_radix_radices(instance.capacities))
    g = op.rewards(index[:, :-1], index[:, 1:], np.arange(T))
    totals = np.zeros(len(seeds))
    for t in range(T):  # epoch by epoch from 0.0, as a running sum adds them
        totals += g[:, t]
    return paths, chosen, g, totals.tolist()


def _episodes(instance: Instance, policy, seeds: Iterable[int],
              op: BellmanOperator) -> Iterator[EpisodeTrace]:
    """The trace of each seed's episode, in seed order, rolled out _BLOCK at a time."""
    T, seeds = instance.horizon, iter(seeds)
    while block := list(itertools.islice(seeds, _BLOCK)):
        paths, chosen, g, totals = _rollout(instance, policy, block, op)
        for k, (path, earned) in enumerate(zip(paths.tolist(), g.tolist())):
            steps = [EpisodeStep(State(tuple(x), t), chosen[k * T + t],
                                 tuple(u - v for u, v in zip(x, path[t + 1])), earned[t])
                     for t, x in enumerate(path[:-1])]
            yield EpisodeTrace(steps, totals[k], block[k])


def simulate_episode(instance: Instance, policy, seed: int) -> EpisodeTrace:
    """Roll out one episode from the initial items under the given policy.

    Bit-reproducible per (instance, policy, seed) on a platform; the caller is
    responsible for passing a validated instance.  A block of one (_episodes).
    """
    return next(_episodes(instance, policy, [seed], bellman_operator(instance)))


def summarize_totals(totals, master_seed: int, policy_name: str) -> EvalSummary:
    """Mean/sample-stddev summary of per-replication totals in index order."""
    n = len(totals)
    if n < 1:
        raise ValueError("at least one replication is required")
    mean = math.fsum(totals) / n
    if n > 1:
        variance = math.fsum((v - mean) ** 2 for v in totals) / (n - 1)
        stddev = math.sqrt(variance)
    else:
        stddev = 0.0
    return EvalSummary(
        mean=mean,
        stddev=stddev,
        n_reps=n,
        std_error=stddev / math.sqrt(n),
        master_seed=master_seed,
        policy_name=policy_name,
    )


def monte_carlo_value(
    instance: Instance, policy, n_reps: int, master_seed: int
) -> EvalSummary:
    """Sample mean of the episode total over n_reps seeded replications."""
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    op, totals = bellman_operator(instance), []
    for lo in range(0, n_reps, _BLOCK):
        seeds = [mix64(master_seed, k) for k in range(lo, min(lo + _BLOCK, n_reps))]
        totals += _rollout(instance, policy, seeds, op)[3]
    return summarize_totals(totals, master_seed, getattr(policy, "name", str(policy)))
