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

from .errors import ConfigError, DomainError
from .rewards import (
    BudgetedLinearFunction,
    CoverageFunction,
    GeneralTabulatedReward,
    LinearDecayingReward,
    LinearReward,
    RewardSpec,
    SubmodularReward,
    entry_types,
    is_integer,
    is_number,
    pair_count,
    pair_index,
    pair_items,
    require_entries,
)

DEFAULT_STATE_CAP = 10**7
DEFAULT_ACTIVITY_CAP = 10**5

# The documented limit on any one type's capacity.
MAX_CAPACITY = 64


# The fields that hold integers: a count, or one count per type.
_COUNTS = ("num_types", "horizon", "capacities", "initial_items", "arrivals", "deadlines")


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
    constructor is the one place that refuses, with ConfigError naming the
    first bad field, every fault that would make a number wrong: a field of
    the wrong shape; activities that are not a list or tuple of strings; a
    count that is not an integer or a number that is a string or a bool; a
    capacity outside [1, MAX_CAPACITY], initial items outside [0, capacity],
    a schedule entry outside [0, 1] (NaN included), windows that break
    0 <= arrival <= deadline <= horizon or a nonzero entry outside
    [arrival, deadline); and reward data that is not finite or whose largest
    total over one episode is not (_check_reward).  An instance that exists
    can be run.  The reward value rules (non-negative,
    non-increasing in t, zero at the horizon) are what the paper's
    Assumption 1 asks of the data; validate_instance reports them as data.

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

        counts = {name: getattr(self, name) for name in _COUNTS if getattr(self, name) is not None}
        if not all(map(is_integer, entry_types(list(counts.values())))):
            for name, value in counts.items():
                require_entries(value, name, is_integer, "an integer")
        put("num_types", int(self.num_types))
        put("horizon", int(self.horizon))
        M, T = self.num_types, self.horizon
        if M < 1:
            raise ConfigError("num_types must be >= 1")
        if T < 1:
            raise ConfigError("horizon must be >= 1")
        if type(self.activities) not in (list, tuple):
            raise ConfigError("activities must be a list of strings, "
                              f"not a {type(self.activities).__name__}")
        for a, name in enumerate(self.activities):
            if not isinstance(name, str):
                raise ConfigError(f"activities[{a}] is {name!r}: a string is required")
        put("activities", tuple(map(str, self.activities)))
        if not self.activities:
            raise ConfigError("activities must name at least one activity")
        for name in _COUNTS[2:]:
            if name in counts:
                put(name, values := tuple(int(v) for v in counts[name]))
                if len(values) != M:
                    raise ConfigError(f"{name} must have one entry per type")
        for m, (c, x) in enumerate(zip(self.capacities, self.initial_items)):
            if not 1 <= c <= MAX_CAPACITY:
                raise ConfigError(f"capacities[{m}] is {c}: a capacity must lie in [1, {MAX_CAPACITY}]")
            if not 0 <= x <= c:
                raise ConfigError(f"initial_items[{m}] is {x}: it must lie in [0, capacities[{m}]]")
        require_entries(self.schedule, "schedule", is_number, "a number")
        try:
            schedule = np.array(self.schedule, dtype=np.float64)
        except ValueError as exc:  # rows of unequal length
            raise ConfigError(f"schedule: {exc}") from None
        schedule.flags.writeable = False
        put("schedule", schedule)
        if schedule.shape != (T, len(self.activities), M):
            raise ConfigError(f"schedule shape {schedule.shape} != (horizon, activities, types) "
                              f"{(T, len(self.activities), M)}")
        if not (schedule.min() >= 0 and schedule.max() <= 1):  # NaN fails both
            t, a, m = np.argwhere(~((schedule >= 0) & (schedule <= 1)))[0].tolist()
            raise ConfigError(f"schedule[{t}][{a}][{m}] is {float(schedule[t, a, m])!r}: "
                              "a probability must lie in [0, 1]")
        if self.arrivals is not None or self.deadlines is not None:
            _check_windows(schedule, self.arrivals or (0,) * M, self.deadlines or (T,) * M)
        _check_reward(self.reward, self.capacities, T)
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


def _check_windows(schedule: np.ndarray, arrivals, deadlines) -> None:
    """Raise ConfigError unless 0 <= arrival <= deadline <= horizon for every
    type and the schedule is 0 outside each type's [arrival, deadline); the
    first entry outside is named in (t, m, a) order."""
    T = len(schedule)
    for m, (a, d) in enumerate(zip(arrivals, deadlines)):
        if not 0 <= a <= d <= T:
            raise ConfigError(f"arrivals[{m}] is {a} and deadlines[{m}] is {d}: "
                              "need 0 <= arrival <= deadline <= horizon")
    epochs = np.arange(T)[:, None]
    outside = (epochs < np.array(arrivals)) | (epochs >= np.array(deadlines))  # (T, M)
    # The schedule transposed to (T, M, A), so the hits come in (t, m, a) order.
    hits = np.argwhere((schedule.transpose(0, 2, 1) != 0.0) & outside[:, :, None])
    if len(hits):
        t, m, a = hits[0].tolist()
        raise ConfigError(f"schedule[{t}][{a}][{m}] is {float(schedule[t, a, m])!r}: nonzero "
                          f"outside [arrivals[{m}], deadlines[{m}]) = [{arrivals[m]}, {deadlines[m]})")


def _check_reward(rew: RewardSpec, caps: tuple[int, ...], T: int) -> None:
    """Raise ConfigError unless the reward's data has one entry per type (and
    epoch), every value is finite and the largest total over one episode is
    a finite double.

    That total is sum_m c_m max_t |w_m(t)| on the linear routes and
    T max |g| for a table; on the potential route it is max Phi - min Phi,
    which the Bellman operator checks, since a custom evaluator is known
    only on the capacity box.  A budget may be +inf: its group is uncapped.
    Every key of a tabulated reward must lie in the domain x' <= x <= caps,
    0 <= t <= T, and every key with t < T must be present; a missing one is
    named lexicographically first.
    """
    M = len(caps)
    total = 0.0
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
        if isinstance(ev, CoverageFunction):
            if len(ev.covers) != M:
                raise ConfigError(f"reward.covers: one cover per type required, got {len(ev.covers)}")
            _require_finite(np.array(ev.element_weights),
                            lambda i: f"reward.element_weights[{i[0]}]")
        if isinstance(ev, BudgetedLinearFunction):
            if len(ev.values) != M:
                raise ConfigError(f"reward.values: one value per type required, got {len(ev.values)}")
            _require_finite(np.array(ev.values), lambda i: f"reward.values[{i[0]}]")
            budgets = np.array(ev.budgets)
            _require_finite(np.where(budgets == math.inf, 0.0, budgets),
                            lambda i: f"reward.budgets[{i[0]}]")
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
        # The keys are unique, in the domain and sorted, so the rows with t < T
        # are complete exactly when there are T * E of them for E pairs; else the
        # first missing key is the first row k that is not the k-th of the pair
        # layout (pair_items(k // T), k % T), or the one after the last row.
        below = t < T
        n = int(np.count_nonzero(below))
        if n != T * pair_count(caps):
            k = np.arange(n + 1)
            want = np.concatenate((*pair_items(k // T, caps), (k % T)[:, None]), axis=1)
            first = np.argmax(np.append((keys[below] != want[:n]).any(axis=1), True))
            raise ConfigError(f"reward.entries: no entry for {_table_key(want[first], M)}")
        _require_finite(rew.values, lambda i: f"reward.entries: the value at {_table_key(keys[i[0]], M)}")
        total = T * float(np.abs(rew.values[below]).max())
    else:
        raise ConfigError(f"unknown reward spec {type(rew).__name__}")
    if isinstance(rew, (LinearReward, LinearDecayingReward)):
        weights = np.array(rew.weights)  # (M,) or (M, T)
        peaks = np.abs(weights).reshape(M, -1).max(axis=1).tolist()
        total = sum(c * w for c, w in zip(caps, peaks))
        if not math.isfinite(total):  # a weight that is not finite, or a sum past a double
            _require_finite(weights, lambda i: "reward.weights" + "".join(f"[{k}]" for k in i))
    if not math.isfinite(total):
        raise ConfigError(f"the largest reward total over one episode is {total!r}: "
                          "the reward data must be finite")


def _require_finite(values: np.ndarray, name: Callable[[tuple], str]) -> None:
    """ConfigError naming the first entry of values that is not finite, by name(index)."""
    finite = np.isfinite(values)
    if not finite.all():
        i = tuple(int(k) for k in np.argwhere(~finite)[0])
        raise ConfigError(f"{name(i)} is {float(values[i])!r}: the reward data must be finite")


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


def validate_instance(instance: Instance) -> ValidationReport:
    """The reward value rules (reward_rules) the instance breaks, as data.

    Every other fault that would make a number wrong is refused by the
    Instance constructor; these rules are what stodep check reports as its
    assumption1 property.
    """
    lhs, rhs, describe = reward_rules(instance)
    return ValidationReport([RuleViolation(*describe(int(k)))
                             for k in np.flatnonzero(exceeds(lhs, rhs, 0.0))])


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
    return field, indices, f"negative {noun}", 0.0, value


def reward_rules(instance: Instance) -> tuple[np.ndarray, np.ndarray, Callable[[int], tuple]]:
    """Every value rule on the reward data, as arrays lhs and rhs and describe.

    Rule k asks for lhs[k] <= rhs[k] with both sides finite (see exceeds);
    describe(k) is its (field, indices, rule).  The data's shape, and a
    tabulated reward's domain and completeness, are the constructor's to
    enforce; the monotonicity of a submodular potential is probed by
    stodep.properties.check_assumption1, not here.
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
    (stodep.rewards.pair_index), in which the constructor has found every
    entry below the horizon; a missing entry at t = T counts as 0.  Each
    (pair, t) has up to three rules, in this order: non-negative; zero at
    t = T; and no larger than at t - 1.  The rules that apply are read in C
    order of the grid, which is the order of the scalar loop over x, x', t.
    """
    M = len(caps)
    t = rew.keys[:, 2 * M]
    value = np.zeros((pair_count(caps), T + 1))
    value[:, :T] = rew.values[t < T].reshape(-1, T)
    end = t == T
    value[pair_index(rew.keys[end, :M], rew.keys[end, M:2 * M], caps), T] = rew.values[end]

    lhs, rhs = np.zeros(value.shape + (3,)), np.zeros(value.shape + (3,))
    applies = np.zeros(value.shape + (3,), dtype=bool)
    rhs[:, :, 0] = value
    applies[:, :, 0] = True
    lhs[:, T, 1] = np.abs(value[:, T])
    applies[:, T, 1] = True
    lhs[:, 1:, 2], rhs[:, 1:, 2] = value[:, 1:], value[:, :-1]
    applies[:, 1:, 2] = True
    cells = np.flatnonzero(applies)

    def describe(k):
        p, t, rule = np.unravel_index(cells[k], applies.shape)
        x, x_next = pair_items(p, caps)
        key = (tuple(x.tolist()), tuple(x_next.tolist()), int(t))
        if rule == 1:
            return "reward.table", key, "terminal reward nonzero"
        if rule == 2:
            return "reward.table", key, "non-increasing in t"
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
