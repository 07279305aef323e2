"""Multi-server queue scheduling with geometric service and delay-decaying rewards.

One unit-capacity type per (buffer, arrival-slot) pair; a job arriving to
buffer i at slot tau can be served from slot tau on, completing in one slot
with probability 1/mu[i][j] under the server j matched to it.  Activities are
all server-to-job matchings (each server on at most one job and vice versa),
so pre-emption is inherent.  Completing buffer i's job after waiting d slots
pays r[i][d], non-increasing in d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ActivityCapExceeded, ConfigError
from ..model import DEFAULT_ACTIVITY_CAP, Instance
from ..rewards import LinearDecayingReward, require_integers


@dataclass
class QueueingParams:
    """Arrival, service, and reward data for the queueing reduction.

    Either arrival_rates (Bernoulli per buffer per slot, sampled at build time
    with the seed) or an explicit arrival_trace[i][t] of 0/1 flags.
    service_means[i][j] >= 1 (math.inf allowed: server j cannot serve buffer i).
    rewards[i][d] is the payoff for completing buffer i's job at delay d; the
    last entry extends to larger delays.
    """

    num_buffers: int
    num_servers: int
    horizon: int
    service_means: tuple[tuple[float, ...], ...]
    rewards: tuple[tuple[float, ...], ...]
    arrival_rates: tuple[float, ...] | None = None
    arrival_trace: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if (self.arrival_rates is None) == (self.arrival_trace is None):
            raise ConfigError("exactly one of arrival_rates or arrival_trace must be set")
        self.service_means = tuple(tuple(float(v) for v in row) for row in self.service_means)
        self.rewards = tuple(tuple(float(v) for v in row) for row in self.rewards)
        if len(self.service_means) != self.num_buffers:
            raise ConfigError("service_means needs one row per buffer")
        if any(len(row) != self.num_servers for row in self.service_means):
            raise ConfigError("service_means rows need one entry per server")
        if any(v < 1.0 for row in self.service_means for v in row):
            raise ConfigError("service means must be >= 1 (success probability 1/mu in [0,1])")
        if len(self.rewards) != self.num_buffers:
            raise ConfigError("rewards needs one row per buffer")
        if any(not row for row in self.rewards):
            raise ConfigError("each reward row needs at least one entry")
        for i, row in enumerate(self.rewards):
            if any(row[d + 1] > row[d] for d in range(len(row) - 1)) or any(v < 0 for v in row):
                raise ConfigError(f"rewards[{i}] must be non-negative and non-increasing in delay")


def _enumerate_matchings(num_servers: int, num_types: int, cap: int) -> list[tuple[int, ...]]:
    """All injective partial maps server -> type; entry -1 leaves a server idle."""
    matchings: list[tuple[int, ...]] = []

    def extend(assignment: list[int], used: set[int]) -> None:
        if len(matchings) > cap:
            raise ActivityCapExceeded(f"matching enumeration exceeds cap {cap}")
        j = len(assignment)
        if j == num_servers:
            matchings.append(tuple(assignment))
            return
        extend(assignment + [-1], used)
        for m in range(num_types):
            if m not in used:
                extend(assignment + [m], used | {m})

    extend([], set())
    if len(matchings) > cap:
        raise ActivityCapExceeded(f"{len(matchings)} matchings exceed cap {cap}")
    return matchings


def _matching_label(assignment: tuple[int, ...]) -> str:
    parts = [f"s{j}:{'-' if m < 0 else 'm' + str(m)}" for j, m in enumerate(assignment)]
    return "|".join(parts)


def build_queueing_instance(
    params: QueueingParams,
    seed: int | None = None,
    *,
    activity_cap: int = DEFAULT_ACTIVITY_CAP,
) -> Instance:
    I, J, T = params.num_buffers, params.num_servers, params.horizon
    if params.arrival_trace is not None:
        trace = [list(row) for row in params.arrival_trace]
        if len(trace) != I or any(len(row) != T for row in trace):
            raise ConfigError("arrival_trace must be num_buffers x horizon")
    else:
        if seed is None:
            raise ConfigError("a seed is required to sample Bernoulli arrivals")
        rng = np.random.default_rng(seed)
        rates = params.arrival_rates
        if len(rates) != I:
            raise ConfigError("arrival_rates needs one entry per buffer")
        trace = [[int(rng.random() < rates[i]) for _ in range(T)] for i in range(I)]

    # Type m = i * T + tau: buffer i's potential arrival at slot tau.
    M = I * T
    buffers = [m // T for m in range(M)]
    slots = [m % T for m in range(M)]
    arrived = [bool(trace[buffers[m]][slots[m]]) for m in range(M)]

    matchings = _enumerate_matchings(J, M, activity_cap)
    schedule = np.zeros((T, len(matchings), M))
    for a, assignment in enumerate(matchings):
        for j, m in enumerate(assignment):
            if m < 0 or not arrived[m]:
                continue
            mu = params.service_means[buffers[m]][j]
            p = 0.0 if math.isinf(mu) else 1.0 / mu
            for t in range(slots[m], T):
                schedule[t, a, m] = p

    weights = []
    for m in range(M):
        row = params.rewards[buffers[m]]
        weights.append(
            tuple(row[min(max(t - slots[m], 0), len(row) - 1)] for t in range(T))
        )
    return Instance(
        num_types=M,
        capacities=(1,) * M,
        initial_items=(1,) * M,
        horizon=T,
        activities=tuple(_matching_label(a) for a in matchings),
        schedule=schedule,
        reward=LinearDecayingReward(tuple(weights)),
        arrivals=tuple(slots),
        metadata={
            "app": "queueing",
            "num_buffers": I,
            "num_servers": J,
            "arrival_trace": [list(map(int, row)) for row in trace],
            "seed": seed,
        },
    )


def queueing_params_from_dict(data: Mapping) -> QueueingParams:
    require_integers(data, "num_buffers", "num_servers", "horizon", "arrival_trace")
    return QueueingParams(
        num_buffers=int(data["num_buffers"]),
        num_servers=int(data["num_servers"]),
        horizon=int(data["horizon"]),
        service_means=tuple(
            tuple(math.inf if v is None else float(v) for v in row)
            for row in data["service_means"]
        ),
        rewards=tuple(tuple(row) for row in data["rewards"]),
        arrival_rates=tuple(data["arrival_rates"]) if data.get("arrival_rates") is not None else None,
        arrival_trace=tuple(tuple(row) for row in data["arrival_trace"])
        if data.get("arrival_trace") is not None
        else None,
    )
