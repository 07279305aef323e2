"""Deterministic activity-selection policies behind one interface.

Every policy is a total mapping (state, instance) -> activity index with a
stable name; the same inputs always produce the same choice, so exact policy
evaluation and seeded simulation are reproducible.  Exact evaluation reads a
policy through its decision table (Policy.decisions), which the myopic,
approximate-myopic and optimal policies hold already; a one-step policy new
to an instance instead chooses inside the evaluating sweep
(decision_sources), and decision_tables builds the one-step policies' tables
of one instance from a single sweep.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from .dp import OPTIMAL, Epoch, bellman_operator, lowest_tied, one_step_decisions, tie_slack
from .errors import ConfigError, DomainError
from .model import DEFAULT_STATE_CAP, Instance, State


class Policy:
    """Deterministic total mapping from (state, instance) to an activity index."""

    name: str = "abstract"

    def select(self, state: State, instance: Instance) -> int:
        raise NotImplementedError

    def decisions(self, instance: Instance, state_cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
        """(num_states, horizon) table of the activity chosen at each (state index, t).

        Built here from select at every state; range-checked.
        """
        op = bellman_operator(instance, state_cap)
        states = [tuple(x) for x in op.items.tolist()]
        table = np.empty((op.num_states, instance.horizon), dtype=np.int32, order="F")
        for t in range(instance.horizon):
            table[:, t] = np.fromiter(
                (self.select(State(x, t), instance) for x in states),
                dtype=np.int32,
                count=op.num_states,
            )
        return self._in_range(table, instance)

    def _in_range(self, table: np.ndarray, instance: Instance) -> np.ndarray:
        if table.min() < 0 or table.max() >= instance.num_activities:
            raise DomainError(f"policy {self.name!r} chose an unknown activity")
        return table


class _DecisionTable(Policy):
    """Selects by lookup in a (num_states, horizon) table of activities.

    The table is built once per instance (keyed weakly) and read as an nd
    view table[x_0, ..., x_{M-1}, t]; a state outside it raises DomainError.
    """

    def __init__(self):
        self._memo: weakref.WeakKeyDictionary[Instance, np.ndarray] = weakref.WeakKeyDictionary()

    def _decisions(self, instance: Instance, state_cap: int) -> np.ndarray:
        raise NotImplementedError

    def _table(self, instance: Instance, state_cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
        table = self._memo.get(instance)
        if table is None:
            table = self._keep(instance, self._decisions(instance, state_cap))
        return table

    def _keep(self, instance: Instance, table: np.ndarray) -> np.ndarray:
        """Range-check a (num_states, horizon) table and keep it as the nd view."""
        table = self._in_range(table, instance)
        dims = tuple(c + 1 for c in instance.capacities)
        # Fortran order makes table[x_0, ..., x_{M-1}, t] the mixed-radix entry.
        table = self._memo[instance] = table.reshape(dims + (instance.horizon,), order="F")
        return table

    def decisions(self, instance: Instance, state_cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
        return self._table(instance, state_cap).reshape(-1, instance.horizon, order="F")

    def select(self, state: State, instance: Instance) -> int:
        table = self._memo.get(instance)
        if table is None:
            table = self._table(instance)
        key = state.items + (state.epoch,)
        # A negative index would wrap around; item() reads a 1-tuple as a flat index.
        if len(key) == table.ndim and min(key) >= 0:
            try:
                return table.item(key)
            except IndexError:
                pass
        raise DomainError(f"state {state} has no decision in this instance")


class _OneStepPolicy(_DecisionTable):
    """A rule on expected one-step rewards, precomputed as a decision table.

    The table comes from the instance's Bellman operator with V = 0 the
    first time an instance is seen: from the sweep that evaluates the policy
    (decision_sources), or else from one sweep shared with the other
    one-step policies that decision_tables is given.  Ties follow the
    solver's rule (see stodep.dp.TIE_TOL).
    """

    def _rule(self, epoch: Epoch) -> np.ndarray:
        raise NotImplementedError

    def _decisions(self, instance: Instance, state_cap: int) -> np.ndarray:
        return one_step_decisions(instance, [self._rule], state_cap)[0]


class MyopicPolicy(_OneStepPolicy):
    """Maximizes the expected reward of the next epoch; ties to the lowest index."""

    name = "myopic"

    def _rule(self, epoch: Epoch) -> np.ndarray:
        return lowest_tied(epoch)[1]


class ApproxMyopicPolicy(_OneStepPolicy):
    """Adversarial 1/alpha-approximate one-step oracle.

    Among activities whose expected one-step reward is at least (1/alpha) times
    the maximum, picks the one with the smallest expected reward (ties to the
    lowest index).  This is the weakest oracle the 1+alpha guarantee admits,
    which is what makes it useful for stress-testing that bound.  Both the
    threshold and the minimum are compared with the solver's tie slack.
    """

    def __init__(self, alpha: float):
        if alpha < 1.0:
            raise ConfigError("alpha must be >= 1")
        super().__init__()
        self.alpha = float(alpha)
        self.name = f"approx:{self.alpha:g}"

    def _rule(self, epoch: Epoch) -> np.ndarray:
        threshold = epoch.best() / self.alpha
        floor = threshold - tie_slack(threshold)
        least = -epoch.best(lambda q: np.where(q >= floor, -q, -np.inf))
        ceiling = least + tie_slack(least)
        return epoch.lowest(lambda q: (q >= floor) & (q <= ceiling))


class TablePolicy(_DecisionTable):
    """Greedy maximizer read off a solved value table."""

    name = "optimal"

    def __init__(self, table):
        super().__init__()
        self.table = table

    def _decisions(self, instance: Instance, state_cap: int) -> np.ndarray:
        self.table.require_match(instance)
        return self.table.best_activity


class FixedPolicy(Policy):
    """Always the same activity."""

    def __init__(self, activity: int):
        if activity < 0:
            raise ConfigError("activity index must be non-negative")
        self.activity = int(activity)
        self.name = f"fixed:{self.activity}"

    def select(self, state: State, instance: Instance) -> int:
        if self.activity >= instance.num_activities:
            raise ConfigError(
                f"fixed activity {self.activity} out of range for {instance.num_activities} activities"
            )
        return self.activity


class RoundRobinPolicy(Policy):
    """Epoch t selects activity t mod |activities|."""

    name = "round_robin"

    def select(self, state: State, instance: Instance) -> int:
        return state.epoch % instance.num_activities


class SeededRandomPolicy(Policy):
    """Pseudo-random but deterministic: the choice is a hash of (seed, state).

    Folding items and epoch through the splitmix64 mixer keeps the mapping a
    pure function, so repeated calls on the same state agree.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.name = f"random:{self.seed}"

    def select(self, state: State, instance: Instance) -> int:
        from .simulate import mix64

        h = mix64(self.seed, state.epoch)
        for v in state.items:
            h = mix64(h, v)
        return h % instance.num_activities


def decision_sources(
    instance: Instance, policies: Sequence, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[list, list, Callable]:
    """Where one backward sweep (stodep.dp) reads each policy's choices.

    Returns (sources, rules, keep).  A policy's source is its Policy.decisions
    table.  A one-step policy that has not seen the instance gets instead the
    index of its rule in rules, which the sweep applies to each epoch's
    expected one-step reward; keep(tables) then stores the rules'
    (num_states, horizon) tables in their policies.  stodep.dp.OPTIMAL,
    the solve's own policy, gets None.
    """
    fresh = {
        id(p): p for p in policies if isinstance(p, _OneStepPolicy) and instance not in p._memo
    }
    index = {key: i for i, key in enumerate(fresh)}

    def source(p):
        if p == OPTIMAL:
            return None
        return index[id(p)] if id(p) in index else p.decisions(instance, state_cap)

    def keep(tables):
        for policy, table in zip(fresh.values(), tables):
            policy._keep(instance, table)

    return [source(p) for p in policies], [p._rule for p in fresh.values()], keep


def decision_tables(
    instance: Instance, policies: Sequence[Policy], state_cap: int = DEFAULT_STATE_CAP
) -> list[np.ndarray]:
    """Policy.decisions of each policy on instance.

    The one-step policies that have not seen the instance get their tables
    from one shared sweep with V = 0 (stodep.dp.one_step_decisions).
    """
    sources, rules, keep = decision_sources(instance, policies, state_cap)
    if rules:
        keep(one_step_decisions(instance, rules, state_cap))
    return [
        p.decisions(instance, state_cap) if isinstance(s, int) else s
        for p, s in zip(policies, sources)
    ]


def myopic_policy() -> Policy:
    return MyopicPolicy()


def approx_myopic_policy(alpha: float) -> Policy:
    return ApproxMyopicPolicy(alpha)


def optimal_policy_from_table(table) -> Policy:
    return TablePolicy(table)


def baseline_policies() -> dict:
    """Factories for the experimental-control policies."""
    return {
        "random": SeededRandomPolicy,
        "fixed": FixedPolicy,
        "round_robin": RoundRobinPolicy,
    }


def policy_from_name(name: str, *, table=None) -> Policy:
    """Parse a CLI policy spec: myopic|optimal|approx:<a>|random:<seed>|fixed:<a>|round_robin."""
    if name == "myopic":
        return MyopicPolicy()
    if name == "optimal":
        if table is None:
            raise ConfigError("the optimal policy requires a solved value table")
        return TablePolicy(table)
    if name == "round_robin":
        return RoundRobinPolicy()
    if ":" in name:
        head, _, arg = name.partition(":")
        try:
            if head == "approx":
                return ApproxMyopicPolicy(float(arg))
            if head == "random":
                return SeededRandomPolicy(int(arg))
            if head == "fixed":
                return FixedPolicy(int(arg))
        except ValueError as exc:
            raise ConfigError(f"bad policy argument in {name!r}") from exc
    raise ConfigError(f"unknown policy {name!r}")
