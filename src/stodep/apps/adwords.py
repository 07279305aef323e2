"""Cost-per-click keyword auctions with advertiser budgets.

One unit-capacity type per realized (advertiser, keyword, slot) triple, where
the keyword is the one arriving in that slot.  An activity is a subset of at
most slot_cap advertisers assigned to the arriving keyword; an assigned ad is
clicked with the supplied probability and pays its valuation, truncated by the
advertiser's remaining budget.  Budget truncation makes the reward the
budgeted-linear potential sum_i min(B_i, earned_i), which telescopes.
The subsets of sizes 0..slot_cap are counted against the activity cap before
they are built (product_line.feasible_assortments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ConfigError
from ..model import DEFAULT_ACTIVITY_CAP, Instance
from ..rewards import BudgetedLinearFunction, SubmodularReward
from .product_line import feasible_assortments


@dataclass
class AdwordsParams:
    """Budgets, valuations, the keyword arrival sequence, and click probabilities.

    click_probs: either a constant matrix [i][k] or per-slot [t][i][k].
    budgets may contain math.inf (or None in JSON) for uncapped advertisers.
    """

    num_advertisers: int
    num_keywords: int
    budgets: tuple[float, ...]
    valuations: tuple[tuple[float, ...], ...]
    keyword_sequence: tuple[int, ...]
    slot_cap: int
    click_probs: object

    def __post_init__(self):
        self.budgets = tuple(float(b) for b in self.budgets)
        self.valuations = tuple(tuple(float(v) for v in row) for row in self.valuations)
        self.keyword_sequence = tuple(int(k) for k in self.keyword_sequence)
        if len(self.budgets) != self.num_advertisers:
            raise ConfigError("one budget per advertiser required")
        if any(b < 0 for b in self.budgets):
            raise ConfigError("budgets must be non-negative")
        if len(self.valuations) != self.num_advertisers or any(
            len(row) != self.num_keywords for row in self.valuations
        ):
            raise ConfigError("valuations must be advertisers x keywords")
        if any(v < 0 for row in self.valuations for v in row):
            raise ConfigError("valuations must be non-negative")
        if any(k < 0 or k >= self.num_keywords for k in self.keyword_sequence):
            raise ConfigError("keyword_sequence references an unknown keyword")
        if not 1 <= self.slot_cap <= self.num_advertisers:
            raise ConfigError("need 1 <= slot_cap <= num_advertisers")

    def click_probability(self, t: int, i: int, k: int) -> float:
        probs = self.click_probs
        first = probs[0]
        if isinstance(first[0], (int, float)):
            return float(probs[i][k])
        return float(probs[t][i][k])


def build_adwords_instance(
    params: AdwordsParams, *, activity_cap: int = DEFAULT_ACTIVITY_CAP
) -> Instance:
    T = len(params.keyword_sequence)
    N = params.num_advertisers
    # Types only for triples whose keyword actually arrives in that slot;
    # triples for other keywords can never deplete and are omitted.
    types = [(i, params.keyword_sequence[t], t) for t in range(T) for i in range(N)]
    M = len(types)

    subsets = feasible_assortments(
        N, params.slot_cap, smallest=0, activity_cap=activity_cap, noun="advertiser subsets"
    )

    schedule = np.zeros((T, len(subsets), M))
    for a, subset in enumerate(subsets):
        chosen = set(subset)
        for m, (i, k, t_m) in enumerate(types):
            if i in chosen:
                schedule[t_m, a, m] = params.click_probability(t_m, i, k)

    reward = SubmodularReward(
        BudgetedLinearFunction(
            budgets=params.budgets,
            values=tuple(params.valuations[i][k] for i, k, _ in types),
            groups=tuple(i for i, _, _ in types),
        )
    )
    labels = tuple("ads:" + ("+".join(f"a{i}" for i in s) if s else "-") for s in subsets)
    return Instance(
        num_types=M,
        capacities=(1,) * M,
        initial_items=(1,) * M,
        horizon=T,
        activities=labels,
        schedule=schedule,
        reward=reward,
        arrivals=tuple(t for _, _, t in types),
        deadlines=tuple(t + 1 for _, _, t in types),
        metadata={
            "app": "adwords",
            "keyword_sequence": list(params.keyword_sequence),
            "slot_cap": params.slot_cap,
            "types": [[i, k, t] for i, k, t in types],
        },
    )


def adwords_params_from_dict(data: Mapping) -> AdwordsParams:
    budgets = tuple(math.inf if b is None else float(b) for b in data["budgets"])
    return AdwordsParams(
        num_advertisers=int(data["num_advertisers"]),
        num_keywords=int(data["num_keywords"]),
        budgets=budgets,
        valuations=tuple(tuple(row) for row in data["valuations"]),
        keyword_sequence=tuple(data["keyword_sequence"]),
        slot_cap=int(data["slot_cap"]),
        click_probs=data["click_probs"],
    )
