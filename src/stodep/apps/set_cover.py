"""Set-cover decision problems as depletion instances.

One unit-capacity type per universe element; each cover set becomes an
activity that depletes all of its elements with probability 1 in any epoch;
unit rewards and horizon k.  The optimal value reaches |universe| exactly when
a cover of size <= k exists, and in general equals the best k-set coverage.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ActivityCapExceeded, ConfigError
from ..model import DEFAULT_ACTIVITY_CAP, Instance
from ..rewards import LinearReward, is_integer, require_entries


def build_set_cover_instance(
    ground_set: Sequence,
    cover_sets: Sequence[Iterable],
    k: int,
    *,
    activity_cap: int = DEFAULT_ACTIVITY_CAP,
) -> Instance:
    require_entries(k, "k", is_integer, "an integer")
    elements = list(ground_set)
    if not elements:
        raise ConfigError("ground set must be non-empty")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if len(cover_sets) > activity_cap:
        raise ActivityCapExceeded(f"{len(cover_sets)} cover sets exceed cap {activity_cap}")
    index = {e: m for m, e in enumerate(elements)}
    n = len(elements)
    covers = []
    for j, raw in enumerate(cover_sets):
        cover = set(raw)
        unknown = cover - set(elements)
        if unknown:
            raise ConfigError(f"cover set {j} contains elements outside the ground set: {unknown}")
        covers.append(sorted(index[e] for e in cover))
    schedule = np.zeros((k, len(covers), n))
    for j, cover in enumerate(covers):
        for m in cover:
            schedule[:, j, m] = 1.0
    return Instance(
        num_types=n,
        capacities=(1,) * n,
        initial_items=(1,) * n,
        horizon=k,
        activities=tuple(f"cover{j}" for j in range(len(covers))),
        schedule=schedule,
        reward=LinearReward((1.0,) * n),
        metadata={
            "app": "setcover",
            "ground_set": [str(e) for e in elements],
            "cover_sets": [[str(e) for e in sorted(set(c), key=str)] for c in cover_sets],
            "k": k,
        },
    )
