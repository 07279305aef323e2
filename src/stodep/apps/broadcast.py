"""Stochastic broadcast scheduling: page transmissions over unreliable channels.

One unit-capacity type per request (user, page, arrival, deadline).  An
activity transmits one page to a subset of at most k users; a live request is
satisfied with the channel probability of its user whenever its page is
transmitted to that user.  Rewards are per-request constants, so the reward is
plain linear; urgency enters only through the deadline masking of the
schedule.  The num_pages * (subsets of sizes 1..cap) activities are counted
against the activity cap before they are built
(product_line.feasible_assortments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError
from ..model import DEFAULT_ACTIVITY_CAP, Instance
from ..rewards import LinearReward
from .product_line import feasible_assortments


@dataclass
class BroadcastParams:
    """Requests, rewards, channels, and the simultaneous-user cap.

    requests: (user, page, arrival, deadline) tuples with
    0 <= arrival < deadline <= horizon (a request is servable at epochs
    arrival .. deadline - 1).  rewards[page][user] >= 0.  channels: either a
    per-user constant list C_u or a horizon x users matrix P[t][u].  If
    requests is None they are sampled at build time: each slot draws up to
    max_requests_per_slot fresh (user, page) pairs, each with a random deadline.
    """

    num_users: int
    num_pages: int
    horizon: int
    cap: int
    rewards: tuple[tuple[float, ...], ...]
    channels: Sequence
    requests: tuple[tuple[int, int, int, int], ...] | None = None
    max_requests_per_slot: int = 2

    def __post_init__(self):
        self.rewards = tuple(tuple(float(v) for v in row) for row in self.rewards)
        if len(self.rewards) != self.num_pages:
            raise ConfigError("rewards needs one row per page")
        if any(len(row) != self.num_users for row in self.rewards):
            raise ConfigError("rewards rows need one entry per user")
        if any(v < 0 for row in self.rewards for v in row):
            raise ConfigError("rewards must be non-negative")
        if self.cap < 1:
            raise ConfigError("the simultaneous-user cap must be >= 1")
        if self.requests is not None:
            self.requests = tuple(
                (int(u), int(i), int(tau), int(d)) for u, i, tau, d in self.requests
            )
            for u, i, tau, d in self.requests:
                if not (0 <= u < self.num_users and 0 <= i < self.num_pages):
                    raise ConfigError(f"request ({u},{i},{tau},{d}) references unknown user/page")
                if not 0 <= tau < d <= self.horizon:
                    raise ConfigError(
                        f"request ({u},{i},{tau},{d}) needs 0 <= arrival < deadline <= horizon"
                    )

    def channel_probability(self, t: int, u: int) -> float:
        first = self.channels[0]
        if isinstance(first, (int, float)):
            return float(self.channels[u])
        return float(self.channels[t][u])


def _sample_requests(params: BroadcastParams, seed: int) -> tuple[tuple[int, int, int, int], ...]:
    rng = np.random.default_rng(seed)
    taken: set[tuple[int, int]] = set()
    requests = []
    pairs = [(u, i) for u in range(params.num_users) for i in range(params.num_pages)]
    for t in range(params.horizon):
        count = int(rng.integers(0, params.max_requests_per_slot + 1))
        fresh = [p for p in pairs if p not in taken]
        rng.shuffle(fresh)
        for u, i in fresh[:count]:
            d = int(rng.integers(t + 1, params.horizon + 1))
            requests.append((u, i, t, d))
            taken.add((u, i))
    if not requests:
        # degenerate draw: force one request so the instance is non-trivial
        u, i = pairs[int(rng.integers(0, len(pairs)))]
        requests.append((u, i, 0, params.horizon))
    return tuple(requests)


def build_broadcast_instance(
    params: BroadcastParams,
    seed: int | None = None,
    *,
    activity_cap: int = DEFAULT_ACTIVITY_CAP,
) -> Instance:
    requests = params.requests
    if requests is None:
        if seed is None:
            raise ConfigError("a seed is required to sample a request stream")
        requests = _sample_requests(params, seed)
    if not requests:
        raise ConfigError("at least one request is required")
    T = params.horizon

    subsets = feasible_assortments(
        params.num_users, params.cap, activity_cap=activity_cap,
        noun="(page, users) activities", copies=params.num_pages,
    )
    activities = [(page, subset) for page in range(params.num_pages) for subset in subsets]

    M = len(requests)
    schedule = np.zeros((T, len(activities), M))
    for a, (page, subset) in enumerate(activities):
        targeted = set(subset)
        for m, (u, i, tau, d) in enumerate(requests):
            if i != page or u not in targeted:
                continue
            for t in range(tau, d):
                schedule[t, a, m] = params.channel_probability(t, u)

    labels = tuple(
        f"p{page}->" + "+".join(f"u{u}" for u in subset) for page, subset in activities
    )
    return Instance(
        num_types=M,
        capacities=(1,) * M,
        initial_items=(1,) * M,
        horizon=T,
        activities=labels,
        schedule=schedule,
        reward=LinearReward(tuple(params.rewards[i][u] for u, i, _, _ in requests)),
        arrivals=tuple(tau for _, _, tau, _ in requests),
        deadlines=tuple(d for _, _, _, d in requests),
        metadata={
            "app": "broadcast",
            "requests": [list(r) for r in requests],
            "cap": params.cap,
            "seed": seed,
        },
    )


def broadcast_params_from_dict(data: Mapping) -> BroadcastParams:
    return BroadcastParams(
        num_users=int(data["num_users"]),
        num_pages=int(data["num_pages"]),
        horizon=int(data["horizon"]),
        cap=int(data["cap"]),
        rewards=tuple(tuple(row) for row in data["rewards"]),
        channels=data["channels"],
        requests=tuple(tuple(r) for r in data["requests"]) if data.get("requests") is not None else None,
        max_requests_per_slot=int(data.get("max_requests_per_slot", 2)),
    )
