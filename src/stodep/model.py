"""Core problem representation: instances, states, validation and one-transition reads.

An instance fixes a realized (clairvoyant) probability schedule: schedule[t][a][m]
is the per-item success probability for depleting type m when activity a runs at
epoch t.  Given the remaining counts x and an activity, the number of items
depleted per type is an independent Binomial(x_m, p_m) draw; outcomes across
types are independent, so the joint law is the product of binomial pmfs.  The
expectation over that law and every evaluation of the reward g are the Bellman
operator's (stodep.dp); this module samples one outcome and reads g and Q with
V = 0 at one state, each behind one range check (_require_state).

All operations here are pure functions of their inputs; random sampling takes
an explicit numpy Generator.  Instances are immutable, so data derived from
one (its fingerprint, its Bellman operator) is computed once and kept on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, EnumerationCapExceeded
from .rewards import (
    BudgetedLinearFunction,
    CoverageFunction,
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    RewardSpec,
    SubmodularReward,
    pair_count,
    pair_index,
    pair_items,
)

DEFAULT_STATE_CAP = 10**7
DEFAULT_ACTIVITY_CAP = 10**5

# The documented limit on any one type's capacity.
MAX_CAPACITY = 64

# Cells of the (x, x', t) grid _table_rules may build.
_TABLE_GRID_CAP = 10**6


class State(NamedTuple):
    """Reduced clairvoyant state: remaining items per type plus the epoch."""

    items: tuple[int, ...]
    epoch: int


def freeze(value: Any) -> Any:
    """Read-only deep copy of JSON-like data: mappings become proxies, lists tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return value


def thaw(value: Any) -> Any:
    """Plain JSON-ready copy of frozen data: mappings become dicts, tuples lists."""
    if isinstance(value, Mapping):
        return {k: thaw(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [thaw(v) for v in value]
    return value


@dataclass(frozen=True, eq=False)
class Instance:
    """A full stochastic depletion problem over a realized probability schedule.

    Fields mirror the canonical JSON form (see stodep.serialize).  The
    constructor raises ConfigError on every fault of shape, the reward data's
    included, and of structural limits; value-level rules (probability bounds,
    reward monotonicity, arrival/deadline masking) are reported by
    validate_instance as data, not raised.

    Instances are immutable: assigning a field raises, and the schedule and
    metadata are read-only copies of what was passed in.  That is what lets
    stodep.serialize.instance_fingerprint and stodep.dp.bellman_operator
    compute their results once and keep them on the instance.
    """

    num_types: int
    capacities: tuple[int, ...]
    initial_items: tuple[int, ...]
    horizon: int
    activities: tuple[str, ...]
    schedule: np.ndarray  # shape (horizon, |activities|, num_types)
    reward: RewardSpec
    arrivals: tuple[int, ...] | None = None
    deadlines: tuple[int, ...] | None = None
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("num_types", int(self.num_types))
        put("horizon", int(self.horizon))
        put("capacities", tuple(int(c) for c in self.capacities))
        put("initial_items", tuple(int(v) for v in self.initial_items))
        put("activities", tuple(str(a) for a in self.activities))
        if self.num_types < 1:
            raise ConfigError("num_types must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not self.activities:
            raise ConfigError("activities must name at least one activity")
        if len(self.capacities) != self.num_types:
            raise ConfigError("capacities must have one entry per type")
        if len(self.initial_items) != self.num_types:
            raise ConfigError("initial_items must have one entry per type")
        if any(c > MAX_CAPACITY for c in self.capacities):
            raise ConfigError(f"capacities are capped at {MAX_CAPACITY} per type")
        if any(c < 0 for c in self.capacities):
            raise ConfigError("capacities must be non-negative")
        schedule = np.array(self.schedule, dtype=np.float64)
        schedule.flags.writeable = False
        put("schedule", schedule)
        expected = (self.horizon, len(self.activities), self.num_types)
        if schedule.shape != expected:
            raise ConfigError(
                f"schedule shape {schedule.shape} != (horizon, activities, types) {expected}"
            )
        if self.arrivals is not None:
            put("arrivals", tuple(int(v) for v in self.arrivals))
            if len(self.arrivals) != self.num_types:
                raise ConfigError("arrivals must have one entry per type")
        if self.deadlines is not None:
            put("deadlines", tuple(int(v) for v in self.deadlines))
            if len(self.deadlines) != self.num_types:
                raise ConfigError("deadlines must have one entry per type")
        _check_reward_shape(self.reward, self.capacities, self.horizon)
        put("metadata", freeze(self.metadata))

    @functools.cached_property
    def _rows(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Plain-float schedule rows [t][activity], for probability_row and _draws.

        Built on first read and kept in the instance's __dict__, so building
        an instance that is only solved costs nothing for them.
        """
        return tuple(tuple(map(tuple, rows)) for rows in self.schedule.tolist())

    @functools.cached_property
    def _draws(self) -> tuple[tuple[tuple[tuple[int, float], ...], ...], ...]:
        """The (type, probability) pairs [t][activity] a sample draws for, in type order.

        A type with probability exactly 0 is left out: numpy's binomial
        returns 0 there without drawing, so skipping the call leaves the
        stream as it was.  Built on first read, as _rows is.
        """
        return tuple(tuple(tuple((m, p) for m, p in enumerate(row) if p != 0.0) for row in rows)
                     for rows in self._rows)

    def __reduce__(self):
        # Pickled as its constructor arguments, so derived data stays behind.
        return Instance, tuple(thaw(getattr(self, f.name)) for f in fields(self))

    @property
    def num_activities(self) -> int:
        return len(self.activities)

    def probability_row(self, t: int, activity: int) -> tuple[float, ...]:
        """Per-type success probabilities for (epoch, activity)."""
        return self._rows[t][activity]

    def initial_state(self) -> State:
        return State(self.initial_items, 0)


def _check_reward_shape(rew: RewardSpec, caps: tuple[int, ...], T: int) -> None:
    """Raise ConfigError unless the reward's data has one entry per type (and epoch).

    Every key of a tabulated reward must lie in the domain x' <= x <= caps,
    0 <= t <= T.
    """
    M = len(caps)
    if isinstance(rew, LinearReward):
        if len(rew.weights) != M:
            raise ConfigError(f"reward.weights: length {len(rew.weights)} != num_types {M}")
    elif isinstance(rew, LinearDecayingReward):
        if len(rew.weights) != M:
            raise ConfigError(f"reward.weights: one row per type required, got {len(rew.weights)}")
        for m, row in enumerate(rew.weights):
            if len(row) != T:
                raise ConfigError(f"reward.weights[{m}]: row length {len(row)} != horizon {T}")
    elif isinstance(rew, SubmodularReward):
        ev = rew.evaluator
        if isinstance(ev, CoverageFunction) and len(ev.covers) != M:
            raise ConfigError(f"reward.covers: one cover per type required, got {len(ev.covers)}")
        if isinstance(ev, BudgetedLinearFunction) and len(ev.values) != M:
            raise ConfigError(f"reward.values: one value per type required, got {len(ev.values)}")
    elif isinstance(rew, GeneralTabulatedReward):
        keys = rew.keys
        if not len(keys):
            raise ConfigError("reward.entries: the table has no entries")
        if keys.shape[1] != 2 * M + 1:
            raise ConfigError(f"reward.entries: key {_table_key(keys[0], keys.shape[1] // 2)} "
                              f"does not have {M} types")
        x, x_next, t = keys[:, :M], keys[:, M:2 * M], keys[:, 2 * M]
        inside = ((0 <= x_next) & (x_next <= x) & (x <= caps)).all(axis=1) & (0 <= t) & (t <= T)
        if not inside.all():
            key = _table_key(keys[np.argmin(inside)], M)
            raise ConfigError(f"reward.entries: key {key} outside the domain "
                              "x' <= x <= capacities, 0 <= t <= horizon")
    else:
        raise ConfigError(f"unknown reward spec {type(rew).__name__}")


def _table_key(row, M: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The (x, x', t) tuple of a tabulated key row."""
    row = [int(v) for v in row]
    return tuple(row[:M]), tuple(row[M:2 * M]), row[2 * M]


def state_space_size(instance: Instance) -> int:
    """Number of dense table entries: prod(cap_m + 1) * (horizon + 1)."""
    size = instance.horizon + 1
    for c in instance.capacities:
        size *= c + 1
    return size


@dataclass
class RuleViolation:
    """One broken validation rule, naming the field and indices involved."""

    field: str
    indices: tuple
    rule: str

    def to_dict(self) -> dict:
        return {"field": self.field, "indices": list(self.indices), "rule": self.rule}


@dataclass
class ValidationReport:
    violations: list[RuleViolation]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"passed": self.passed, "violations": [v.to_dict() for v in self.violations]}


def validate_instance(instance: Instance, *, rewards: bool = True) -> ValidationReport:
    """Check every value-level invariant; violations are data, not failures.

    An instance with an empty violation list is accepted by every other
    operation in the package.  rewards=False leaves out the value rules on
    the reward data (reward_rules), which stodep check reports as its
    assumption1 property.
    """
    out: list[RuleViolation] = []
    M, T = instance.num_types, instance.horizon

    for m, cap in enumerate(instance.capacities):
        if cap < 1:
            out.append(RuleViolation("capacities", (m,), "capacity below 1"))
    for m, x0 in enumerate(instance.initial_items):
        if x0 < 0 or x0 > instance.capacities[m]:
            out.append(RuleViolation("initial_items", (m,), "initial items out of [0, capacity]"))

    sched = instance.schedule
    finite = np.isfinite(sched)
    for t, a, m in np.argwhere(~finite):
        out.append(RuleViolation("schedule", (int(t), int(a), int(m)), "probability not finite"))
    for t, a, m in np.argwhere(finite & ((sched < 0.0) | (sched > 1.0))):
        out.append(RuleViolation("schedule", (int(t), int(a), int(m)), "probability out of [0,1]"))

    if instance.arrivals is not None or instance.deadlines is not None:
        arrivals = instance.arrivals or (0,) * M
        deadlines = instance.deadlines or (T,) * M
        for m in range(M):
            if not 0 <= arrivals[m] <= deadlines[m] <= T:
                out.append(
                    RuleViolation("arrivals/deadlines", (m,), "need 0 <= arrival <= deadline <= horizon")
                )
        epochs = np.arange(T)[:, None]
        outside = (epochs < np.array(arrivals)) | (epochs >= np.array(deadlines))  # (T, M)
        # The schedule transposed to (T, M, A), so the hits come in (t, m, a) order.
        for t, m, a in np.argwhere((sched.transpose(0, 2, 1) != 0.0) & outside[:, :, None]):
            out.append(RuleViolation("schedule", (int(t), int(a), int(m)),
                                     "nonzero probability outside the [arrival, deadline) window"))
    if rewards:
        lhs, rhs, describe = reward_rules(instance)
        for k in np.flatnonzero(exceeds(lhs, rhs, 0.0)):
            out.append(RuleViolation(*describe(int(k))))
    return ValidationReport(out)


def exceeds(lhs, rhs, tol):
    """Elementwise: does the pair break lhs <= rhs under tolerance tol?

    It does when either side is not finite or lhs > rhs + max(tol, tol * |rhs|).
    validate_instance applies it with tol = 0, the certifiers with theirs.
    """
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    with np.errstate(invalid="ignore"):  # 0 * inf: that pair is not finite anyway
        slack = np.maximum(tol, tol * np.abs(rhs))
        return ~(np.isfinite(lhs) & np.isfinite(rhs)) | (lhs > rhs + slack)


def require_tolerance(tol, name: str = "tolerance") -> float:
    """tol as a float; ConfigError unless it is finite and >= 0.

    A NaN or infinite tolerance would make exceeds false on every finite
    pair, and a negative one fail equal sides, so neither certifies anything.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"{name} {tol!r} is not a finite number >= 0")
    return tol


def _non_negative(field: str, indices: tuple, value: float, noun: str):
    rule = f"negative {noun}" if math.isfinite(value) else f"{noun} not finite"
    return field, indices, rule, 0.0, value


def reward_rules(instance: Instance) -> tuple[np.ndarray, np.ndarray, Callable[[int], tuple]]:
    """Every value rule on the reward data, as arrays lhs and rhs and describe.

    Rule k asks for lhs[k] <= rhs[k] with both sides finite (see exceeds);
    describe(k) is its (field, indices, rule).  The data's shape and a
    tabulated reward's domain are the constructor's to enforce, so the only
    structural fault here is a missing table entry; the monotonicity of a
    submodular potential is probed by stodep.properties.check_assumption1,
    not here.
    """
    rew = instance.reward
    if isinstance(rew, GeneralTabulatedReward):
        return _table_rules(rew, instance.capacities, instance.horizon)
    rules = list(_scalar_rules(rew, instance.horizon))
    lhs, rhs = (np.array([r[k] for r in rules], dtype=np.float64) for k in (3, 4))
    return lhs, rhs, lambda k: rules[k][:3]


def _scalar_rules(rew: RewardSpec, T: int) -> Iterator[tuple[str, tuple, str, float, float]]:
    """The rules of the weight and potential kinds, as (field, indices, rule, lhs, rhs)."""
    if isinstance(rew, LinearReward):
        for m, w in enumerate(rew.weights):
            yield _non_negative("reward.weights", (m,), w, "weight")
    elif isinstance(rew, LinearDecayingReward):
        for m, row in enumerate(rew.weights):
            for t, w in enumerate(row):
                yield _non_negative("reward.weights", (m, t), w, "weight")
                if t + 1 < T:
                    yield "reward.weights", (m, t + 1), "w not non-increasing in t", row[t + 1], w
    else:
        # Built-in evaluators are submodular by construction, so only their
        # data ranges are rules; stodep.properties.check_submodular checks
        # custom evaluators on demand.
        ev = rew.evaluator
        if isinstance(ev, CoverageFunction):
            for e, w in enumerate(ev.element_weights):
                yield _non_negative("reward.element_weights", (e,), w, "weight")
        elif isinstance(ev, BudgetedLinearFunction):
            for g, b in enumerate(ev.budgets):
                if b != math.inf:  # an uncapped group
                    yield _non_negative("reward.budgets", (g,), b, "budget")
            for m, v in enumerate(ev.values):
                yield _non_negative("reward.values", (m,), v, "value")


def _table_rules(rew: GeneralTabulatedReward, caps: tuple[int, ...], T: int):
    """reward_rules of a tabulated reward, on a (pair, t, rule) grid.

    Pairs (x, x') with x' <= x are numbered by the pair layout
    (stodep.rewards.pair_index).  Each (pair, t) has up to
    three rules, in this order: the entry is present (t < T) or else
    non-negative; zero at t = T; and no larger than at t - 1 when both
    entries are present.  A missing entry at t = T counts as 0.  The rules
    that apply are read in C order of the grid, which is the order of the
    scalar loop over x, x', t.

    The grid takes about 100 bytes a cell however few entries the table has,
    so more than _TABLE_GRID_CAP cells raise EnumerationCapExceeded
    before anything is allocated.
    """
    cells = pair_count(caps) * (T + 1)
    if cells > _TABLE_GRID_CAP:
        raise EnumerationCapExceeded(
            f"tabulated reward grid of {cells} (x, x', t) cells exceeds cap {_TABLE_GRID_CAP}"
        )
    M = len(caps)
    pair, t = pair_index(rew.keys[:, :M], rew.keys[:, M:2 * M], caps), rew.keys[:, 2 * M]
    value = np.zeros((pair_count(caps), T + 1))
    value[pair, t] = rew.values
    have = np.zeros(value.shape, dtype=bool)
    have[pair, t] = True
    have[:, T] = True  # a terminal entry defaults to zero

    lhs, rhs = np.zeros(value.shape + (3,)), np.zeros(value.shape + (3,))
    applies = np.zeros(value.shape + (3,), dtype=bool)
    lhs[:, :, 0] = np.where(have, 0.0, np.inf)  # missing: breaks under any tolerance
    rhs[:, :, 0] = np.where(have, value, 0.0)
    applies[:, :, 0] = True
    lhs[:, T, 1] = np.abs(value[:, T])
    applies[:, T, 1] = True
    lhs[:, 1:, 2], rhs[:, 1:, 2] = value[:, 1:], value[:, :-1]
    applies[:, 1:, 2] = have[:, 1:] & have[:, :-1]
    cells = np.flatnonzero(applies)

    def describe(k):
        p, t, rule = np.unravel_index(cells[k], applies.shape)
        x, x_next = pair_items(p, caps)
        key = (tuple(x.tolist()), tuple(x_next.tolist()), int(t))
        if rule == 1:
            return "reward.table", key, "terminal reward nonzero"
        if rule == 2:
            return "reward.table", key, "non-increasing in t"
        if not have[p, t]:
            return "reward.table", key, "missing entry"
        return _non_negative("reward.table", key, float(value[p, t]), "reward")[:3]

    return lhs[applies], rhs[applies], describe


def _require_state(instance: Instance, x, t: int, activity=None, x_next=None) -> None:
    """DomainError unless x (one count per type within [0, capacity]) at epoch
    t >= 0 is a state, activity (if given) is chosen at a decision epoch and
    x_next (if given) lies within [0, x] componentwise."""
    if t < 0:
        raise DomainError(f"epoch {t} is negative")
    if activity is not None and not t < instance.horizon:
        raise DomainError(f"epoch {t} has no decision (horizon {instance.horizon})")
    if activity is not None and not 0 <= activity < instance.num_activities:
        raise DomainError(f"activity index {activity} out of range")
    if len(x) != instance.num_types or not all(0 <= v <= c for v, c in zip(x, instance.capacities)):
        raise DomainError(f"items {tuple(x)} outside capacities {instance.capacities}")
    if x_next is not None and not (len(x_next) == len(x)
                                   and all(0 <= n <= v for n, v in zip(x_next, x))):
        raise DomainError(f"x_next {tuple(x_next)} not componentwise within [0, x] for x {tuple(x)}")


def sample_depletion(
    state: State, activity: int, instance: Instance, rng: np.random.Generator
) -> tuple[int, ...]:
    """Draw one outcome vector: per-type binomial draws in type order.

    A type draws only with items left and a nonzero probability
    (Instance._draws); numpy draws nothing for the others either, so this is
    the stream of one binomial call per type.  stodep.simulate's rollouts
    draw the same way.
    """
    _require_state(instance, state.items, state.epoch, activity)
    alpha = [0] * instance.num_types
    for m, p in instance._draws[state.epoch][activity]:
        if state.items[m]:
            alpha[m] = int(rng.binomial(state.items[m], p))
    return tuple(alpha)


def reward(
    x: Sequence[int], x_next: Sequence[int], t: int, instance: Instance
) -> float:
    """g(x, x', t), 0.0 for t >= horizon: a read of the instance's Bellman operator,
    built on first use, which raises StateSpaceCapExceeded above the default state cap."""
    from .dp import bellman_operator, mixed_radix_radices, state_index  # dp builds on this module

    _require_state(instance, x, t, x_next=x_next)
    if t >= instance.horizon:
        return 0.0
    i, j = (state_index(v, mixed_radix_radices(instance.capacities)) for v in (x, x_next))
    return float(bellman_operator(instance).rewards(i, j, t))


def expected_one_step_reward(state: State, activity: int, instance: Instance) -> float:
    """E[g(x, x - X, t)] for one activity at one state: Q_t(x, a) with V = 0.

    Read from the instance's Bellman operator (stodep.dp.bellman_operator),
    which is built on first use and raises StateSpaceCapExceeded above the
    default state cap.
    """
    from .dp import bellman_operator, mixed_radix_radices, state_index  # dp builds on this module

    _require_state(instance, state.items, state.epoch, activity)
    q = bellman_operator(instance).q(state.epoch, None, np.array([activity]))
    return float(q[0, state_index(state.items, mixed_radix_radices(instance.capacities))])


def apply_depletion_with_step(state: State, alpha: Sequence[int]) -> State:
    """Deplete alpha items (clamped at zero) and advance the epoch."""
    items = tuple(max(0, v - a) for v, a in zip(state.items, alpha))
    return State(items, state.epoch + 1)
