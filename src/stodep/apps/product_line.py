"""Dynamic product-line design: assortment selection against segmented demand.

One type per customer segment with capacity equal to the segment size; each
feasible assortment (non-empty product subset of size <= cap) is an activity.
A segment-i customer present at epoch t buys from assortment A with the
supplied probability P[t][A][i] and then leaves, paying the segment price, so
the reward is linear-decaying with constant weights p_i.

feasible_assortments is also the subset enumeration of adwords and broadcast:
it counts the subsets against the activity cap before it builds one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import ActivityCapExceeded, ConfigError
from ..model import DEFAULT_ACTIVITY_CAP, Instance
from ..rewards import LinearDecayingReward, require_integers


def assortment_key(products: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in sorted(products))


@dataclass
class ProductLineParams:
    """Assortment universe, segment sizes/prices, and purchase probabilities.

    purchase_probs maps assortment_key(A) -> matrix [t][i] of purchase
    probabilities; a table entry is required for every feasible assortment.
    """

    num_products: int
    assortment_cap: int
    segment_sizes: tuple[int, ...]
    prices: tuple[float, ...]
    horizon: int
    purchase_probs: dict

    def __post_init__(self):
        self.segment_sizes = tuple(int(v) for v in self.segment_sizes)
        self.prices = tuple(float(v) for v in self.prices)
        if len(self.prices) != len(self.segment_sizes):
            raise ConfigError("one price per segment required")
        if any(p < 0 for p in self.prices):
            raise ConfigError("prices must be non-negative")
        if any(s < 1 for s in self.segment_sizes):
            raise ConfigError("segment sizes must be >= 1")
        if not 1 <= self.assortment_cap <= self.num_products:
            raise ConfigError("need 1 <= assortment_cap <= num_products")


def feasible_assortments(
    num_products: int,
    cap: int,
    *,
    smallest: int = 1,
    activity_cap: int = DEFAULT_ACTIVITY_CAP,
    noun: str = "assortments",
    copies: int = 1,
) -> list[tuple[int, ...]]:
    """The subsets of range(num_products) of sizes smallest..cap, by size, then
    lexicographically.

    Their number, times copies, is counted with math.comb before any subset
    is built: past activity_cap it raises ActivityCapExceeded naming that
    count and noun.
    """
    sizes = range(smallest, cap + 1)
    count = copies * sum(math.comb(num_products, k) for k in sizes)
    if count > activity_cap:
        raise ActivityCapExceeded(f"{count} {noun} exceed cap {activity_cap}")
    return [combo for k in sizes for combo in itertools.combinations(range(num_products), k)]


def build_product_line_instance(
    params: ProductLineParams, *, activity_cap: int = DEFAULT_ACTIVITY_CAP
) -> Instance:
    assortments = feasible_assortments(
        params.num_products, params.assortment_cap, activity_cap=activity_cap
    )
    I = len(params.segment_sizes)
    T = params.horizon
    schedule = np.zeros((T, len(assortments), I))
    for a, assortment in enumerate(assortments):
        key = assortment_key(assortment)
        probs = params.purchase_probs.get(key)
        if probs is None:
            raise ConfigError(f"purchase_probs missing assortment {key!r}")
        if len(probs) != T or any(len(row) != I for row in probs):
            raise ConfigError(f"purchase_probs[{key!r}] must be horizon x segments")
        for t in range(T):
            for i in range(I):
                schedule[t, a, i] = float(probs[t][i])
    weights = tuple((params.prices[i],) * T for i in range(I))
    return Instance(
        num_types=I,
        capacities=params.segment_sizes,
        initial_items=params.segment_sizes,
        horizon=T,
        activities=tuple("{" + assortment_key(a) + "}" for a in assortments),
        schedule=schedule,
        reward=LinearDecayingReward(weights),
        metadata={"app": "productline", "assortment_cap": params.assortment_cap},
    )


def product_line_params_from_dict(data: Mapping) -> ProductLineParams:
    require_integers(data, "num_products", "assortment_cap", "segment_sizes", "horizon")
    return ProductLineParams(
        num_products=int(data["num_products"]),
        assortment_cap=int(data["assortment_cap"]),
        segment_sizes=tuple(data["segment_sizes"]),
        prices=tuple(data["prices"]),
        horizon=int(data["horizon"]),
        purchase_probs=dict(data["purchase_probs"]),
    )


def bargain_hunter_params(epsilon: float) -> ProductLineParams:
    """The two-segment seasonality example: delaying the new product wins.

    Products: 0 = outdated, 1 = new.  Bargain hunters buy only the outdated
    product, only in epoch 0; early adopters buy only the new product, in
    either epoch, at price 1 + epsilon.  A myopic seller leads with the new
    product and forfeits the bargain-hunter revenue.
    """
    probs = {
        "0": [[1.0, 0.0], [0.0, 0.0]],
        "1": [[0.0, 1.0], [0.0, 1.0]],
    }
    return ProductLineParams(
        num_products=2,
        assortment_cap=1,
        segment_sizes=(1, 1),
        prices=(1.0, 1.0 + epsilon),
        horizon=2,
        purchase_probs=probs,
    )
