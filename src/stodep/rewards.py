"""Reward specifications: the three reward families and their built-in evaluators.

A reward spec holds the data of g(x, x', t), the reward earned during epoch t
when the vector of remaining items moves from x to x'; stodep.dp.BellmanOperator
is the one place g is evaluated.  g is 0 at the terminal epoch (t == horizon),
and is non-negative and non-increasing in t on valid data;
`stodep.model.validate_instance` and the property checkers verify those facts
rather than assuming them.  The specs refuse data that is not a number (or,
where a count or an index is meant, an integer): a string or a bool is
neither, though float() and numpy read both as numbers.

The reward specs and the coverage and budgeted evaluators are frozen: an
instance's fingerprint and solver data are computed once, so the data they
are computed from cannot change.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError


class RewardSpec:
    """Base class for the tagged union of reward families."""

    kind: str = "abstract"

    def spec_dict(self) -> dict:
        """JSON-serializable descriptor. Raises ConfigError if not representable."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class LinearReward(RewardSpec):
    """Per-item depletion rewards, constant over epochs: g = sum_m w_m (x_m - x'_m).

    The simplest member of both reward families: it is a linear-decaying reward
    with constant weights and also telescopes through the modular potential
    w(y) = sum_m w_m y_m.
    """

    weights: tuple[float, ...]

    kind = "linear"

    def __post_init__(self):
        require_entries(self.weights, "reward.weights", is_number, "a number")
        object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "weights": list(self.weights)}


@dataclass(frozen=True, eq=False)
class LinearDecayingReward(RewardSpec):
    """Per-item rewards that decay over time: g = sum_m w[m][t] (x_m - x'_m).

    weights[m][t] must be non-negative and non-increasing in t; that is a
    value rule reported by validate_instance, not enforced here.
    """

    weights: tuple[tuple[float, ...], ...]

    kind = "linear_decaying"

    def __post_init__(self):
        require_entries(self.weights, "reward.weights", is_number, "a number")
        weights = tuple(tuple(float(v) for v in row) for row in self.weights)
        object.__setattr__(self, "weights", weights)

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "weights": [list(row) for row in self.weights]}


@dataclass(frozen=True, eq=False)
class CoverageFunction:
    """Weighted-coverage potential: depleting an item of type m covers covers[m].

    The value of a depletion-count vector y is the total weight of elements
    covered by any type with y_m >= 1.  Monotone and submodular by construction.
    """

    num_elements: int
    covers: tuple[frozenset[int], ...]
    element_weights: tuple[float, ...]

    kind = "submodular_coverage"

    def __post_init__(self):
        require_entries(self.num_elements, "reward.num_elements", is_integer, "an integer")
        require_entries(self.element_weights, "reward.element_weights", is_number, "a number")
        for m, cover in enumerate(self.covers):
            require_entries(list(cover), f"reward.covers[{m}]", is_integer, "an integer")
        covers = tuple(frozenset(int(e) for e in c) for c in self.covers)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "element_weights", tuple(float(v) for v in self.element_weights))
        if len(self.element_weights) != self.num_elements:
            raise ConfigError("reward.element_weights: length must equal num_elements")
        for m, cover in enumerate(covers):
            if any(e < 0 or e >= self.num_elements for e in cover):
                raise ConfigError(f"reward.covers[{m}]: an element outside the universe")
        object.__setattr__(self, "_masks", tuple(sum(1 << e for e in cover) for cover in covers))

    def __call__(self, y: Sequence[int]) -> float:
        mask = 0
        for m, type_mask in enumerate(self._masks):
            if y[m] > 0:
                mask |= type_mask
        total = 0.0
        w = self.element_weights
        while mask:
            low = mask & -mask
            total += w[low.bit_length() - 1]
            mask ^= low
        return total

    def spec_dict(self) -> dict:
        return {
            "kind": self.kind,
            "num_elements": self.num_elements,
            "covers": [sorted(c) for c in self.covers],
            "element_weights": list(self.element_weights),
        }


@dataclass(frozen=True, eq=False)
class BudgetedLinearFunction:
    """Budget-truncated linear potential: sum_g min(B_g, sum_{m in group g} v_m y_m).

    Concave truncation of a non-negative linear form per group, hence monotone
    and submodular.  budgets may contain math.inf for uncapped groups.
    """

    budgets: tuple[float, ...]
    values: tuple[float, ...]
    groups: tuple[int, ...]

    kind = "submodular_budgeted"

    def __post_init__(self):
        require_entries(self.budgets, "reward.budgets", is_number, "a number")
        require_entries(self.values, "reward.values", is_number, "a number")
        require_entries(self.groups, "reward.groups", is_integer, "an integer")
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "groups", tuple(int(g) for g in self.groups))
        if len(self.values) != len(self.groups):
            raise ConfigError("reward.values and reward.groups must have one entry per type")
        if any(g < 0 or g >= len(self.budgets) for g in self.groups):
            raise ConfigError(f"reward.groups {list(self.groups)}: an index past the budgets")

    def __call__(self, y: Sequence[int]) -> float:
        sums = [0.0] * len(self.budgets)
        for m, g in enumerate(self.groups):
            if y[m]:
                sums[g] += self.values[m] * y[m]
        total = 0.0  # left to right: from Python 3.12 on, sum() of floats rounds otherwise
        for b, s in zip(self.budgets, sums):
            total += min(b, s)
        return total

    def spec_dict(self) -> dict:
        return {
            "kind": self.kind,
            "budgets": [None if b == float("inf") else b for b in self.budgets],
            "values": list(self.values),
            "groups": list(self.groups),
        }


class SetFunctionEvaluator:
    """Adapts a monotone submodular set function f(S) to count vectors.

    Evaluates f on the support of y; extra copies of a type add nothing, which
    preserves monotonicity and the diminishing-returns inequality on the
    integer lattice.
    """

    kind = "submodular_custom"

    def __init__(self, fn: Callable[[frozenset[int]], float], label: str = "set_function"):
        self.fn = fn
        self.label = label

    def __call__(self, y: Sequence[int]) -> float:
        return float(self.fn(frozenset(m for m, v in enumerate(y) if v > 0)))


@dataclass(frozen=True, eq=False)
class SubmodularReward(RewardSpec):
    """Rewards that telescope through a potential of cumulative depletions.

    g(x, x', t) = w(capacities - x') - w(capacities - x) for t < horizon, else 0.
    The evaluator maps a non-negative count vector y (items depleted so far,
    per type) to a value; it should be monotone and submodular (checkable with
    stodep.properties.check_submodular).  Built-in evaluators: CoverageFunction,
    BudgetedLinearFunction, SetFunctionEvaluator; any callable works in memory
    but only built-in forms serialize.  stodep reads the evaluator through
    potential_on_box, once per point of a box for each operator, fingerprint
    or certificate, so a custom evaluator must be a pure function.
    """

    evaluator: Callable[[Sequence[int]], float]
    label: str | None = None

    def __post_init__(self):
        if self.label is None:
            object.__setattr__(self, "label", getattr(self.evaluator, "label", "custom"))

    @property
    def kind(self) -> str:
        return getattr(self.evaluator, "kind", "submodular_custom")

    def w(self, y: tuple[int, ...]) -> float:
        """The potential at one point, uncached."""
        return float(self.evaluator(y))

    def spec_dict(self) -> dict:
        spec = getattr(self.evaluator, "spec_dict", None)
        if spec is None:
            raise ConfigError(
                f"submodular reward with custom evaluator {self.label!r} cannot be serialized"
            )
        return spec()


@dataclass(frozen=True, eq=False, init=False)
class GeneralTabulatedReward(RewardSpec):
    """Explicit table of g(x, x', t) over the finite reduced domain.

    Keys are (x, x', t) with x' <= x <= capacities componentwise and
    0 <= t <= horizon, and every key below the horizon is present, which
    the Instance constructor checks.  Entries at t == horizon may be
    omitted and default to 0.

    The table is held as two read-only arrays: keys, int64 of shape
    (n, 2M + 1) with rows (x, x', t) in lexicographic order, each given
    once, and values, float64 of shape (n,): the pair layout (pair_index)
    with t last, in which the Bellman operator reads the values as stored.
    """

    keys: np.ndarray
    values: np.ndarray

    kind = "general_tabulated"

    def __init__(self, table: Mapping):
        """From a mapping {(x, x', t): value}."""
        self._store(*_normalise([(*key, value) for key, value in table.items()]))

    @classmethod
    def from_entries(cls, entries: Sequence) -> "GeneralTabulatedReward":
        """From a sequence of [x, x', t, value] entries, the JSON form."""
        rew = cls.__new__(cls)
        rew._store(*_normalise(list(entries)))
        return rew

    @classmethod
    def _from_sorted(cls, keys: np.ndarray, values: np.ndarray) -> "GeneralTabulatedReward":
        """From int64 keys in strictly ascending lexicographic order and float64 values."""
        if not _ascending(keys).all():
            raise ConfigError("reward keys are not in ascending order, each given once")
        rew = cls.__new__(cls)
        rew._store(keys, values)
        return rew

    def _store(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        return GeneralTabulatedReward._from_sorted, (self.keys, self.values)

    @classmethod
    def from_potential(
        cls,
        potential: Callable[[tuple[int, ...]], float],
        capacities: Sequence[int],
        horizon: int,
    ) -> "GeneralTabulatedReward":
        """Tabulate g from a depletion potential: g = w(cap - x') - w(cap - x).

        The potential is read by potential_on_box on the capacity box; the
        pairs x' <= x come from the pair layout (pair_items), in its order.
        """
        caps = tuple(int(c) for c in capacities)
        w = potential_on_box(potential, caps)
        x, x_next = pair_items(np.arange(pair_count(caps)), caps)
        pairs = np.concatenate((x, x_next), axis=1).repeat(horizon, axis=0)
        keys = np.concatenate((pairs, np.tile(np.arange(horizon), len(x))[:, None]), axis=1)
        g = w[tuple((caps - x_next).T)] - w[tuple((caps - x).T)]
        return cls._from_sorted(keys, g.repeat(horizon))

    def spec_dict(self) -> dict:
        m = self.keys.shape[1] // 2
        columns = (self.keys[:, :m], self.keys[:, m:2 * m], self.keys[:, -1], self.values)
        return {"kind": self.kind, "entries": list(map(list, zip(*(c.tolist() for c in columns))))}


def pair_count(caps: Sequence[int]) -> int:
    """Number of pairs (x, x') with x' <= x <= caps componentwise."""
    return math.prod((c + 1) * (c + 2) // 2 for c in caps)


def pair_index(x, x_next, caps: Sequence[int]) -> np.ndarray:
    """Position of each pair (x, x') with x' <= x <= caps, x and x_next (..., M), in the
    pair layout: lexicographic order of (x, x'), that of a tabulated reward's keys.
    Before x come sum_m prod_{j < m} (x_j + 1) * x_m (x_m + 1) / 2 * pair_count(caps[m + 1:])
    pairs; x' counts in mixed radix x + 1, the last type least significant."""
    side = np.asarray(x, dtype=np.int64) + 1
    after = np.array([pair_count(caps[m + 1:]) for m in range(len(caps))], dtype=np.int64)
    before = np.cumprod(side, axis=-1) // side * (side - 1) * side // 2 * after
    within = np.flip(np.cumprod(np.flip(side, -1), axis=-1), -1) // side
    return (before + x_next * within).sum(axis=-1)


def pair_items(index, caps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (x, x') at positions index of the pair layout, each of
    shape index.shape + (M,): the inverse of pair_index.  A suffix of types
    counts at most one pair more than the largest index, which reads every
    index as its full count would and keeps the arithmetic within int64."""
    rest = np.array(index, dtype=np.int64)
    top = int(rest.max(initial=0)) + 1
    x, x_next = (np.empty(rest.shape + (len(caps),), dtype=np.int64) for _ in range(2))
    step = np.ones_like(rest)  # prod_{j < m} (x_j + 1)
    for m, c in enumerate(caps):  # below[v]: the pairs before x_m = v, per step
        after = min(pair_count(caps[m + 1:]), top)
        below = np.array([v * (v + 1) // 2 * after for v in range(c + 1)], dtype=np.int64)
        x[..., m] = v = np.searchsorted(below, rest // step, side="right") - 1
        rest -= step * below[v]
        step *= v + 1
    for m in reversed(range(len(caps))):  # x' in mixed radix x + 1, the last type first
        rest, x_next[..., m] = np.divmod(rest, x[..., m] + 1)
    return x, x_next


def potential_on_box(evaluator: Callable, bound: Sequence[int]) -> np.ndarray:
    """evaluator(y) at every integer y with 0 <= y <= bound, an array of the box's shape.

    The one place a potential is evaluated: once per point, in C order, on a
    tuple of ints.  float() makes a value that is not a number a TypeError,
    where an array would take None as NaN.
    """
    shape = tuple(int(b) + 1 for b in bound)
    values = (float(evaluator(y)) for y in itertools.product(*map(range, shape)))
    return np.fromiter(values, np.float64).reshape(shape)


def _columns(entries: list) -> tuple[np.ndarray, np.ndarray] | None:
    """(keys, values) of [x, x', t, value] entries in their order, or None.

    None unless every entry has four fields, x and x' are integer lists of
    one length throughout, t is an integer and value a number.
    """
    try:
        xs, xs_next, ts, vs = zip(*entries, strict=True)
        x, x_next, t, values = (np.array(column) for column in (xs, xs_next, ts, vs))
    except (TypeError, ValueError, OverflowError):
        return None
    if not (x.ndim == 2 and x.shape == x_next.shape and t.ndim == values.ndim == 1):
        return None
    if not (all(map(is_integer, entry_types((xs, xs_next)) | entry_types(ts)))
            and all(map(is_number, entry_types(vs)))):
        return None
    keys = np.concatenate((x, x_next, t[:, None]), axis=1)
    if keys.dtype.kind != "i" or values.dtype.kind not in "iuf":
        return None
    return keys.astype(np.int64, copy=False), values.astype(np.float64, copy=False)


def _entry_fault(entry, width: int | None) -> str | None:
    """What is wrong with one entry, given the key length of entries[0]."""
    columns = _columns([entry])
    if columns is None:
        try:
            _, _, _, _ = entry
        except (TypeError, ValueError):
            return "expected four fields [x, x_next, t, value]"
        return "x and x_next must be lists of integers of one length, t an integer, value a number"
    if width is not None and columns[0].shape[1] != width:
        return "key is not as long as that of entries[0]"
    return None


def _normalise(entries: list) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically sorted (keys, values) of [x, x', t, value] entries.

    Raises ConfigError, naming the entry, on one that is not four fields
    with integer keys as long as that of entries[0], and on a key given
    twice.
    """
    if not entries:
        return np.zeros((0, 1), dtype=np.int64), np.zeros(0)
    columns = _columns(entries)
    if columns is None:
        first = _columns(entries[:1])
        width = None if first is None else first[0].shape[1]
        for k, entry in enumerate(entries):
            fault = _entry_fault(entry, width)
            if fault is not None:
                raise ConfigError(f"reward.entries[{k}] {entry!r}: {fault}")
        raise ConfigError("reward.entries: the values are not numbers of one kind")
    keys, values = columns
    if not _ascending(keys).all():  # saved tables are sorted already
        order = np.lexsort(keys.T[::-1])
        keys, values = keys[order], values[order]
        repeated = np.flatnonzero(~_ascending(keys))
        if len(repeated):
            first, again = sorted(int(order[j]) for j in (repeated[0], repeated[0] + 1))
            raise ConfigError(f"reward.entries[{again}] {entries[again]!r}: "
                              f"key given twice (also entries[{first}])")
    return keys, values


def _ascending(keys: np.ndarray) -> np.ndarray:
    """Per adjacent pair of key rows, is the second lexicographically greater?"""
    earlier, later = keys[:-1], keys[1:]
    at = np.arange(len(later)), (later != earlier).argmax(axis=1)  # first column that differs
    return later[at] > earlier[at]


@functools.cache
def is_number(kind: type) -> bool:
    """Is kind a type of real number?  bool and str are not, nor numpy's bool
    and str, though float() and numpy read them as numbers."""
    return (issubclass(kind, (int, float, np.integer, np.floating))
            and not issubclass(kind, (bool, np.bool_)))


@functools.cache
def is_integer(kind: type) -> bool:
    """Is kind a type of integer?  bool and numpy's bool are not."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def entry_types(value) -> set[type]:
    """The types of the entries of value: lists and tuples are walked to any
    depth, and an array stands for its dtype's scalar type (np.object_ if
    it holds objects).  A level at a time, so the entries cost one map(type).
    """
    found, level = set(), [value]
    while level:
        types = set(map(type, level))
        found |= types - _CONTAINERS
        if np.ndarray in types:
            found |= {v.dtype.type for v in level if type(v) is np.ndarray}
        if types.isdisjoint(_SEQUENCES):
            break
        if not types <= _SEQUENCES:  # rows of unequal depth
            level = [v for v in level if type(v) in _SEQUENCES]
        level = list(itertools.chain.from_iterable(level))
    return found


_SEQUENCES = frozenset({list, tuple})
_CONTAINERS = _SEQUENCES | {np.ndarray}


def require_entries(value, name: str, accept: Callable[[type], bool], noun: str) -> None:
    """ConfigError naming the first entry of value (see entry_types), by name
    and index, whose type accept refuses; noun says what it must be.  The
    entries are read one by one only when entry_types finds such a type."""
    if all(map(accept, entry_types(value))):
        return
    for index, entry in _indexed(value):
        if not accept(type(entry)):
            at = "".join(f"[{i}]" for i in index)
            raise ConfigError(f"{name}{at} is {entry!r}: {noun} is required")


def require_integers(data: Mapping, *names: str, prefix: str = "") -> None:
    """ConfigError naming the first entry of data's fields names (those set
    and not null) that is not an integer (is_integer), as prefix + name."""
    for name in names:
        if data.get(name) is not None:
            require_entries(data[name], prefix + name, is_integer, "an integer")


def _indexed(value, index=()):
    """(index, entry) of every entry of value, in order."""
    if type(value) in (list, tuple) or (type(value) is np.ndarray and value.ndim):
        for i, v in enumerate(value):
            yield from _indexed(v, index + (i,))
    else:
        yield index, value


def reward_from_dict(spec: Mapping) -> RewardSpec:
    """Build a RewardSpec from its JSON descriptor."""
    kind = spec.get("kind")
    if kind == "linear":
        return LinearReward(tuple(spec["weights"]))
    if kind == "linear_decaying":
        return LinearDecayingReward(tuple(tuple(row) for row in spec["weights"]))
    if kind == "submodular_coverage":
        return SubmodularReward(
            CoverageFunction(
                num_elements=spec["num_elements"],
                covers=tuple(spec["covers"]),
                element_weights=tuple(spec["element_weights"]),
            )
        )
    if kind == "submodular_budgeted":
        budgets = tuple(math.inf if b is None else b for b in spec["budgets"])
        return SubmodularReward(
            BudgetedLinearFunction(
                budgets=budgets,
                values=tuple(spec["values"]),
                groups=tuple(spec["groups"]),
            )
        )
    if kind == "general_tabulated":
        return GeneralTabulatedReward.from_entries(spec["entries"])
    raise ConfigError(f"unknown reward kind {kind!r}")

