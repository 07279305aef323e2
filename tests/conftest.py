import math
import os

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import stodep
from stodep import (
    BudgetedLinearFunction,
    CoverageFunction,
    GeneralTabulatedReward,
    Instance,
    LinearDecayingReward,
    LinearReward,
    SubmodularReward,
)
from stodep.apps import build_worst_case_instance

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and a failing one
# printed as a blob that @reproduce_failure replays on another machine.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_instance(
    capacities,
    horizon,
    schedule,
    reward,
    initial_items=None,
    activities=None,
    **kwargs,
):
    """Small-instance helper: derives counts from the shapes supplied."""
    schedule = np.asarray(schedule, dtype=float)
    num_types = len(capacities)
    num_activities = schedule.shape[1]
    return Instance(
        num_types=num_types,
        capacities=tuple(capacities),
        initial_items=tuple(initial_items if initial_items is not None else capacities),
        horizon=horizon,
        activities=tuple(activities if activities is not None else (f"a{j}" for j in range(num_activities))),
        schedule=schedule,
        reward=reward,
        **kwargs,
    )


@pytest.fixture
def worst_case_tenth():
    """The sharp two-type example with epsilon = 0.1."""
    return build_worst_case_instance(0.1)


@pytest.fixture
def single_type_instance():
    """One type, capacity 2, one activity with p = 0.5, unit reward, T = 2."""
    return make_instance(
        capacities=(2,),
        horizon=2,
        schedule=[[[0.5]], [[0.5]]],
        reward=LinearReward((1.0,)),
    )


@st.composite
def small_instances(draw):
    """Random instances on every reward route, with 0/1 probabilities, windows,
    and schedule rows repeated within an epoch."""
    M = draw(st.integers(1, 3))
    caps = tuple(draw(st.integers(1, 2)) for _ in range(M))
    T = draw(st.integers(1, 3))
    A = draw(st.integers(1, 3))
    prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    schedule = np.array([draw(prob) for _ in range(T * A * M)]).reshape(T, A, M)
    for _ in range(draw(st.integers(0, 2))):  # a copy ties with its row's lowest activity
        t, i, j = (draw(st.integers(0, n - 1)) for n in (T, A, A))
        schedule[t, j] = schedule[t, i]
    windows = {}
    if draw(st.booleans()):
        arrivals = tuple(draw(st.integers(0, T)) for _ in range(M))
        deadlines = tuple(draw(st.integers(a, T)) for a in arrivals)
        for m in range(M):
            schedule[: arrivals[m], :, m] = 0.0
            schedule[deadlines[m]:, :, m] = 0.0
        windows = {"arrivals": arrivals, "deadlines": deadlines}
    weight = st.floats(0.0, 2.0)

    def coverage():
        n = M + 1
        covers = tuple(frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n))) for _ in range(M))
        return CoverageFunction(n, covers, tuple(draw(weight) for _ in range(n)))

    route = draw(st.sampled_from(["linear", "linear_decaying", "coverage", "budgeted", "tabulated"]))
    if route == "linear":
        rew = LinearReward(tuple(draw(weight) for _ in range(M)))
    elif route == "linear_decaying":
        rew = LinearDecayingReward(
            tuple(tuple(sorted((draw(weight) for _ in range(T)), reverse=True)) for _ in range(M))
        )
    elif route == "coverage":
        rew = SubmodularReward(coverage())
    elif route == "budgeted":
        budget = st.one_of(st.just(math.inf), st.floats(0.5, 3.0))
        rew = SubmodularReward(
            BudgetedLinearFunction(
                budgets=(draw(budget), draw(budget)),
                values=tuple(draw(weight) for _ in range(M)),
                groups=tuple(draw(st.integers(0, 1)) for _ in range(M)),
            )
        )
    else:
        rew = GeneralTabulatedReward.from_potential(coverage(), caps, T)
    inst = make_instance(capacities=caps, horizon=T, schedule=schedule, reward=rew, **windows)
    assert stodep.validate_instance(inst).passed
    return inst


# Reward data of the wrong shape for the worst-case example (two types, two
# epochs): one case per shape rule of the Instance constructor, with both a
# short and a long row or cover list where either used to slip through.
SHAPE_FAULTS = {
    "linear-weights-long": {"kind": "linear", "weights": [1.0, 0.9, 0.5]},
    "decaying-one-row": {"kind": "linear_decaying", "weights": [[1.0, 0.5]]},
    "decaying-row-short": {"kind": "linear_decaying", "weights": [[1.0], [0.9]]},
    "decaying-row-long": {"kind": "linear_decaying", "weights": [[1.0, 0.5, 0.2], [0.9, 0.4, 0.1]]},
    "coverage-covers-long": {
        "kind": "submodular_coverage", "num_elements": 2,
        "covers": [[0], [1], [0, 1]], "element_weights": [1.0, 1.0],
    },
    "coverage-covers-short": {
        "kind": "submodular_coverage", "num_elements": 2,
        "covers": [[0]], "element_weights": [1.0, 1.0],
    },
    "budgeted-values-long": {
        "kind": "submodular_budgeted", "budgets": [1.0],
        "values": [1.0, 1.0, 1.0], "groups": [0, 0, 0],
    },
    "unknown-kind": {"kind": "mystery"},
}
