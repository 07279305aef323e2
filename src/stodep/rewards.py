"""Reward specifications: the three reward families and their built-in evaluators.

A reward spec computes g(x, x', t), the reward earned during epoch t when the
vector of remaining items moves from x to x'.  Every variant returns 0 at the
terminal epoch (t == horizon), and is non-negative and non-increasing in t on
valid data; `stodep.model.validate_instance` and the property checkers verify
those facts rather than assuming them.

The reward specs and the coverage and budgeted evaluators are frozen: an
instance's fingerprint and solver data are computed once, so the data they
are computed from cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import ConfigError, DomainError


class RewardSpec:
    """Base class for the tagged union of reward families."""

    kind: str = "abstract"

    def amount(
        self,
        x: Sequence[int],
        x_next: Sequence[int],
        t: int,
        *,
        horizon: int,
        capacities: Sequence[int],
    ) -> float:
        raise NotImplementedError

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
        object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))

    def amount(self, x, x_next, t, *, horizon, capacities) -> float:
        if t >= horizon:
            return 0.0
        w = self.weights
        return sum(w[m] * (x[m] - x_next[m]) for m in range(len(w)))

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "weights": list(self.weights)}


@dataclass(frozen=True, eq=False)
class LinearDecayingReward(RewardSpec):
    """Per-item rewards that decay over time: g = sum_m w[m][t] (x_m - x'_m).

    weights[m][t] must be non-negative and non-increasing in t; that is a data
    invariant checked by validate_instance, not enforced here.
    """

    weights: tuple[tuple[float, ...], ...]

    kind = "linear_decaying"

    def __post_init__(self):
        weights = tuple(tuple(float(v) for v in row) for row in self.weights)
        object.__setattr__(self, "weights", weights)

    def amount(self, x, x_next, t, *, horizon, capacities) -> float:
        if t >= horizon:
            return 0.0
        w = self.weights
        return sum(w[m][t] * (x[m] - x_next[m]) for m in range(len(w)))

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
        covers = tuple(frozenset(int(e) for e in c) for c in self.covers)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "element_weights", tuple(float(v) for v in self.element_weights))
        if len(self.element_weights) != self.num_elements:
            raise ConfigError("element_weights length must equal num_elements")
        for m, cover in enumerate(covers):
            if any(e < 0 or e >= self.num_elements for e in cover):
                raise ConfigError(f"covers[{m}] contains an element outside the universe")
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
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "groups", tuple(int(g) for g in self.groups))
        if len(self.values) != len(self.groups):
            raise ConfigError("values and groups must have one entry per type")
        if any(g < 0 or g >= len(self.budgets) for g in self.groups):
            raise ConfigError("group index out of range")

    def __call__(self, y: Sequence[int]) -> float:
        sums = [0.0] * len(self.budgets)
        for m, g in enumerate(self.groups):
            if y[m]:
                sums[g] += self.values[m] * y[m]
        return sum(min(b, s) for b, s in zip(self.budgets, sums))

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
    but only built-in forms serialize.  The potential is memoized, so a custom
    evaluator must be a pure function.
    """

    evaluator: Callable[[Sequence[int]], float]
    label: str | None = None
    _cache: dict[tuple[int, ...], float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.label is None:
            object.__setattr__(self, "label", getattr(self.evaluator, "label", "custom"))

    @property
    def kind(self) -> str:
        return getattr(self.evaluator, "kind", "submodular_custom")

    def w(self, y: tuple[int, ...]) -> float:
        """Memoized potential evaluation."""
        cached = self._cache.get(y)
        if cached is None:
            cached = float(self.evaluator(y))
            self._cache[y] = cached
        return cached

    def amount(self, x, x_next, t, *, horizon, capacities) -> float:
        if t >= horizon:
            return 0.0
        before = tuple(capacities[m] - x[m] for m in range(len(capacities)))
        after = tuple(capacities[m] - x_next[m] for m in range(len(capacities)))
        return self.w(after) - self.w(before)

    def spec_dict(self) -> dict:
        spec = getattr(self.evaluator, "spec_dict", None)
        if spec is None:
            raise ConfigError(
                f"submodular reward with custom evaluator {self.label!r} cannot be serialized"
            )
        return spec()


@dataclass(frozen=True, eq=False)
class GeneralTabulatedReward(RewardSpec):
    """Explicit table of g(x, x', t) over the finite reduced domain.

    Keys are (x, x', t) with x' <= x <= capacities componentwise and
    0 <= t <= horizon.  Entries at t == horizon may be omitted and default to 0;
    a missing entry below the horizon is a domain error (and is reported as a
    violation by validate_instance).  table is a read-only copy of the mapping
    passed in.
    """

    table: Mapping[tuple[tuple[int, ...], tuple[int, ...], int], float]

    kind = "general_tabulated"

    def __post_init__(self):
        table = {
            (tuple(int(v) for v in x), tuple(int(v) for v in x_next), int(t)): float(value)
            for (x, x_next, t), value in self.table.items()
        }
        object.__setattr__(self, "table", MappingProxyType(table))

    def __reduce__(self):
        return GeneralTabulatedReward, (dict(self.table),)

    @classmethod
    def from_potential(
        cls,
        potential: Callable[[tuple[int, ...]], float],
        capacities: Sequence[int],
        horizon: int,
    ) -> "GeneralTabulatedReward":
        """Tabulate g from a depletion potential: g = w(cap - x') - w(cap - x)."""
        from itertools import product

        caps = tuple(int(c) for c in capacities)
        table = {}
        for x in product(*(range(c + 1) for c in caps)):
            w_x = float(potential(tuple(c - v for c, v in zip(caps, x))))
            for x_next in product(*(range(v + 1) for v in x)):
                w_next = float(potential(tuple(c - v for c, v in zip(caps, x_next))))
                for t in range(horizon):
                    table[(x, x_next, t)] = w_next - w_x
        return cls(table)

    def amount(self, x, x_next, t, *, horizon, capacities) -> float:
        key = (tuple(x), tuple(x_next), t)
        value = self.table.get(key)
        if value is None:
            if t >= horizon:
                return 0.0
            raise DomainError(f"tabulated reward has no entry for {key}")
        return value

    def spec_dict(self) -> dict:
        entries = [
            [list(x), list(x_next), t, value]
            for (x, x_next, t), value in sorted(self.table.items())
        ]
        return {"kind": self.kind, "entries": entries}


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
                num_elements=int(spec["num_elements"]),
                covers=tuple(frozenset(c) for c in spec["covers"]),
                element_weights=tuple(spec["element_weights"]),
            )
        )
    if kind == "submodular_budgeted":
        budgets = tuple(float("inf") if b is None else float(b) for b in spec["budgets"])
        return SubmodularReward(
            BudgetedLinearFunction(
                budgets=budgets,
                values=tuple(spec["values"]),
                groups=tuple(spec["groups"]),
            )
        )
    if kind == "general_tabulated":
        table = {
            (tuple(x), tuple(x_next), int(t)): float(v)
            for x, x_next, t, v in spec["entries"]
        }
        return GeneralTabulatedReward(table)
    raise ConfigError(f"unknown reward kind {kind!r}")

