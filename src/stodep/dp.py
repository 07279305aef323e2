"""Exact clairvoyant finite-horizon dynamic programming over the reduced state space.

The dense value table covers every (x, t) with 0 <= x <= capacities
componentwise and 0 <= t <= horizon, because the property checkers quantify
over all states, not just those reachable from the initial items.

State indexing is mixed-radix with type 0 least significant:

    index(x) = sum_m x_m * prod_{m' < m} (cap_{m'} + 1)

so external tools can address exported tables directly.

Every sweep (solve, policy evaluation, audit and the myopic decision tables)
applies one Bellman operator.  The depletion law is a product of independent
per-type binomials, so the expectation E[V(x - X)] factorizes over types: for
each type m a batch of (c_m + 1) x (c_m + 1) binomial transition matrices
B_m(p[t, a, m]), one per activity, is contracted with the value tensor along
that type's axis.  An epoch costs S * A * sum_m (c_m + 1) for S states and A
activities, where enumerating outcomes costs S * A * prod_m (x_m + 1).

The operator takes a stack of P value vectors, one per policy, and returns Q
for every (policy, activity) pair, so evaluate_policies_exact evaluates P
policies in one backward sweep (stacked at the epochs where the union of
their activities fits one chunk) and one_step_decisions serves every
one-step rule from one sweep with V = 0.  Activities go through the
operator in chunks of at most _CHUNK_ENTRIES Q entries (P * k * S for k
activities; k * S * S on the tabulated route), so a small table takes every
pair in one call.  No Q depends on which activities share
its call (see BellmanOperator._linear_reward), so stacked and single
evaluations agree bit for bit.  An Epoch computes each chunk's Q once
and keeps it for later passes over the epoch while the kept chunks fit a
fixed byte budget (_Q_BUDGET); chunks past it are recomputed on each pass, so
memory stays bounded whatever A and P are.

Each instance gets one operator (bellman_operator), built on first use and
kept on the instance, so a solve, the policy evaluations and the certifiers
of one instance share its state decoding and reward data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, FingerprintMismatch, StateSpaceCapExceeded
from .model import (
    DEFAULT_STATE_CAP,
    Instance,
    State,
    binomial_coefficient,
    state_space_size,
)
from .rewards import GeneralTabulatedReward, LinearDecayingReward, LinearReward, SubmodularReward
from .serialize import instance_fingerprint

# Activities within TIE_TOL * max(1, |best|) of the best Q are tied; the
# lowest tied index wins.  Summation order moves Q by a few ulps, so exact
# comparison would let rounding pick among mathematically equal activities.
TIE_TOL = 1e-12

# Entries of the largest arrays of one operator application: Q's
# (policies x activities x states), and for a tabulated reward the
# (activities x states x states) transition and reward products.  Bounds the
# working set at a few such arrays whatever the number of activities; a
# 7**7-state table takes 8 activities of one policy per chunk.  A chunk holds
# at least one activity (BellmanOperator.chunk_width).
_CHUNK_ENTRIES = 6_600_000

# Activities per block of the linear reward's matrix product (see
# BellmanOperator._linear_reward).
_REWARD_BLOCK = 8

# Bytes of Q an Epoch keeps for its later passes: chunk k is kept while
# (k + 1) chunks of doubles fit.  The first chunk is always kept, since it is
# in memory while it is computed anyway.
_Q_BUDGET = 2**27

# Table rows per block written by ValueTable.save_json.
_DUMP_ROWS = 1024


def tie_slack(value):
    """How far below value a Q may fall and still count as tied with it."""
    return TIE_TOL * np.maximum(1.0, np.abs(value))


def mixed_radix_radices(capacities: Sequence[int]) -> tuple[int, ...]:
    radices = [1]
    for cap in capacities[:-1]:
        radices.append(radices[-1] * (cap + 1))
    return tuple(radices)


def state_index(items: Sequence[int], radices: Sequence[int]) -> int:
    return sum(v * r for v, r in zip(items, radices))


def decode_state(index: int, capacities: Sequence[int]) -> tuple[int, ...]:
    items = []
    for cap in capacities:
        index, v = divmod(index, cap + 1)
        items.append(v)
    return tuple(items)


@dataclass(eq=False)
class ValueTable:
    """Dense J(x, t) plus the maximizing activity per (x, t < horizon).

    For tables produced by evaluate_policies_exact, best_activity holds the
    policy's chosen activity and policy_name records which policy.
    """

    capacities: tuple[int, ...]
    horizon: int
    num_activities: int
    fingerprint: str
    values: np.ndarray  # (num_states, horizon + 1)
    best_activity: np.ndarray  # (num_states, horizon), int32
    policy_name: str | None = None

    def __post_init__(self):
        self.radices = mixed_radix_radices(self.capacities)

    @property
    def num_states(self) -> int:
        return self.values.shape[0]

    def state_index(self, items: Sequence[int]) -> int:
        return state_index(items, self.radices)

    def matches(self, instance: Instance) -> bool:
        return self.fingerprint == instance_fingerprint(instance)

    def require_match(self, instance: Instance) -> None:
        if not self.matches(instance):
            raise FingerprintMismatch(
                "value table fingerprint does not match the supplied instance"
            )

    def _header(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "capacities": list(self.capacities),
            "horizon": self.horizon,
            "num_activities": self.num_activities,
            "policy_name": self.policy_name,
        }

    def to_dict(self) -> dict:
        return {
            **self._header(),
            "values": self.values.tolist(),
            "best_activity": self.best_activity.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValueTable":
        return cls(
            capacities=tuple(data["capacities"]),
            horizon=data["horizon"],
            num_activities=data["num_activities"],
            fingerprint=data["fingerprint"],
            values=np.asarray(data["values"], dtype=np.float64),
            best_activity=np.asarray(data["best_activity"], dtype=np.int32),
            policy_name=data.get("policy_name"),
        )

    def save_json(self, path) -> None:
        """Write to_dict() exactly as json.dump would, a block of rows at a time.

        json.dumps of a whole block runs in the C encoder, where json.dump
        to a file runs the pure-Python one; blocks bound the extra memory.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._header())[:-1])
            for name, array in (("values", self.values), ("best_activity", self.best_activity)):
                fh.write(f', "{name}": [')
                for lo in range(0, len(array), _DUMP_ROWS):
                    fh.write(", " if lo else "")
                    fh.write(json.dumps(array[lo:lo + _DUMP_ROWS].tolist())[1:-1])
                fh.write("]")
            fh.write("}")


def _check_state(table: ValueTable, state: State) -> int:
    if len(state.items) != len(table.capacities):
        raise DomainError("state dimensionality does not match the table")
    if any(v < 0 or v > c for v, c in zip(state.items, table.capacities)):
        raise DomainError(f"items {state.items} outside capacities {table.capacities}")
    if not 0 <= state.epoch <= table.horizon:
        raise DomainError(f"epoch {state.epoch} outside [0, {table.horizon}]")
    return table.state_index(state.items)


def optimal_value(table: ValueTable, state: State, instance: Instance | None = None) -> float:
    """Constant-time J(x, t) lookup; verifies the fingerprint if an instance is given."""
    if instance is not None:
        table.require_match(instance)
    idx = _check_state(table, state)
    return float(table.values[idx, state.epoch])


def best_activity(table: ValueTable, state: State) -> int:
    idx = _check_state(table, state)
    if state.epoch >= table.horizon:
        raise DomainError("no activity is chosen at the terminal epoch")
    return int(table.best_activity[idx, state.epoch])


def bellman_operator(instance: Instance, state_cap: int = DEFAULT_STATE_CAP) -> "BellmanOperator":
    """The instance's operator: built on the first call, then kept on the instance.

    It is stored in the instance's __dict__, as functools.cached_property
    stores a value, so it lives exactly as long as the instance; it holds no
    reference back to it.  The state cap is checked on every call.
    """
    n_entries = state_space_size(instance)
    if n_entries > state_cap:
        raise StateSpaceCapExceeded(f"state space {n_entries} exceeds cap {state_cap}")
    cache = vars(instance)
    op = cache.get("_bellman_operator")
    if op is None:
        op = cache["_bellman_operator"] = BellmanOperator(instance)
    return op


class BellmanOperator:
    """Q_t(x, a) = E[g(x, x - X, t) + V(x - X)] for every state x at once.

    The expected reward takes one of three routes: the closed form
    sum_m w_m[t] p_m x_m for linear and linear-decaying rewards; the
    telescoping potential Phi(x) = w(cap - x) for submodular rewards, where
    g = Phi(x') - Phi(x); and a dense g[t, x, x'] array scattered once from
    the key and value arrays of a tabulated reward.
    """

    def __init__(self, instance: Instance):
        self.schedule = instance.schedule
        self.horizon, self.num_activities = instance.horizon, instance.num_activities
        self.dims = tuple(c + 1 for c in instance.capacities)
        self.num_states = state_space_size(instance) // (instance.horizon + 1)
        radices = mixed_radix_radices(instance.capacities)
        self.items = np.arange(self.num_states)[:, None] // np.array(radices) % np.array(self.dims)
        # Per distinct type size n: the binomial grids and the types of that size.
        self._layouts = [
            (*_binomial_layout(n), [m for m, d in enumerate(self.dims) if d == n])
            for n in sorted(set(self.dims))
        ]
        self.weights = self.potential = self.tabulated = None
        rew = instance.reward
        if isinstance(rew, LinearReward):
            self.weights = np.tile(np.asarray(rew.weights, dtype=np.float64), (instance.horizon, 1))
        elif isinstance(rew, LinearDecayingReward):
            self.weights = np.asarray(rew.weights, dtype=np.float64).T
        elif isinstance(rew, SubmodularReward):
            caps = np.array(instance.capacities)
            self.potential = np.array(
                [rew.w(y) for y in map(tuple, (caps - self.items).tolist())], dtype=np.float64
            )
        else:  # GeneralTabulatedReward; Instance admits no other kind
            self.tabulated = self._dense_rewards(rew, instance.capacities, radices)
        if self.weights is not None:  # (horizon, M) weights times (M, S) item counts
            self._counts = self.items.T.astype(np.float64)

    def _dense_rewards(self, rew: GeneralTabulatedReward, caps, radices) -> np.ndarray:
        """g[t, index(x), index(x')] for t < horizon; every x' <= x needs an entry.

        The Instance constructor has checked that every key lies in the domain.
        """
        T, S = self.horizon, self.num_states
        M = len(self.dims)
        keep = rew.keys[:, 2 * M] < T
        keys = rew.keys[keep]
        at = (keys[:, 2 * M], keys[:, :M] @ radices, keys[:, M:2 * M] @ radices)
        g = np.zeros((T, S, S))
        g[at] = rew.values[keep]
        present = np.zeros((T, S, S), dtype=bool)
        present[at] = True
        below = (self.items[None, :, :] <= self.items[:, None, :]).all(axis=2)
        missing = np.argwhere(below & ~present)
        if len(missing):
            t, i, j = (int(v) for v in missing[0])
            key = (decode_state(i, caps), decode_state(j, caps), t)
            raise DomainError(f"tabulated reward has no entry for {key}")
        return g

    def rewards(self, x: np.ndarray, x_next: np.ndarray) -> np.ndarray:
        """g(x, x', t) at pairs of state indices for every t < horizon, shape (horizon, n)."""
        if self.weights is not None:
            depleted = self.items[x] - self.items[x_next]
            g = 0.0  # summed type by type, as the scalar reward is
            for m in range(depleted.shape[1]):
                g = g + self.weights[:, m, None] * depleted[:, m]
            return g
        if self.potential is not None:
            g = self.potential[x_next] - self.potential[x]
            return np.broadcast_to(g, (self.horizon, len(g)))
        return self.tabulated[:, x, x_next]

    def q(self, t: int, v_next: np.ndarray | None, acts: np.ndarray) -> np.ndarray:
        """Q_t(., a) for each a in acts and each value vector of v_next.

        acts holds distinct activities in ascending order.  v_next is one
        vector (S,) or a stack of P vectors (P, S), one per policy; Q is then
        (len(acts), S) or (P, len(acts), S), with the reward term shared by
        the stack.  v_next=None means V = 0.
        """
        p = self.schedule[t, acts]
        mats = self._matrices(p)
        if self.potential is not None:
            return self._expect(mats, v_next, self.potential)
        if self.weights is not None:
            reward = self._linear_reward(t, acts)
        else:
            reward = (_kron(mats) * self.tabulated[t]).sum(axis=2)
        return reward if v_next is None else reward + self._expect(mats, v_next)

    def _linear_reward(self, t: int, acts: np.ndarray) -> np.ndarray:
        """sum_m w_m[t] p[t, a, m] x_m for each a in acts, shape (len(acts), S).

        A BLAS matrix product can round a row differently depending on how
        many rows it computes (seen from 4 types up), so each row comes from
        the product of its fixed block of _REWARD_BLOCK activities.
        A Q's bits then do not depend on which activities share its call: a
        chunk, a policy's own choices, or the union of several policies'.
        """
        B = _REWARD_BLOCK
        lo = int(acts[0]) // B * B
        # One block, as on every table of up to 8 activities, skips the loop's
        # search and gather: 5% of the exact-ladder largest rung's certify time.
        if int(acts[-1]) < lo + B:
            block = (self.schedule[t, lo:lo + B] * self.weights[t]) @ self._counts
            return block if len(block) == len(acts) else block[acts - lo]
        out = np.empty((len(acts), self.num_states))
        i = 0
        while i < len(acts):  # acts ascend, so each block's activities are a run
            lo = int(acts[i]) // B * B
            j = int(np.searchsorted(acts, lo + B))
            block = (self.schedule[t, lo:lo + B] * self.weights[t]) @ self._counts
            np.take(block, acts[i:j] - lo, axis=0, out=out[i:j])
            i = j
        return out

    def _matrices(self, p: np.ndarray) -> list[np.ndarray]:
        """Per type m, B_m[a, x, y] = P(y of x left) = C(x, x - y) p^(x - y) (1 - p)^y.

        p is (activities, types).  The matrices of all types of one size come
        from one numpy evaluation, laid out (type, activity, x, y) so that
        each type's batch is contiguous.
        """
        mats = [None] * len(self.dims)
        for coef, depleted, remaining, types in self._layouts:
            pn = p[:, types].T[:, :, None, None]
            for m, mat in zip(types, coef * pn**depleted * (1.0 - pn) ** remaining):
                mats[m] = mat
        return mats

    def _expect(self, mats: list[np.ndarray], v, phi=None) -> np.ndarray:
        """(K_a v)(x) = E[v(x - X)] for every activity of the batch and vector of v.

        v is (S,) or (P, S); the result is (k, S) or (P, k, S).

        K = K_{M-1} ... K_0, where K_m takes the expectation over type m's
        depletion.  Each step contracts the last axis of the C-order tensor
        (type m) and moves it to the front, so the next type's axis comes
        last and the axes are back in their original order after M steps.

        With a potential phi the result also holds E[phi(x - X)] - phi(x),
        telescoped one type at a time: step m adds
        D_m phi(x) = sum_y B_m[x_m, y] (phi(x with x_m = y) - phi(x)), so
        the total is sum_m K_{M-1} ... K_{m+1} D_m phi.  Built from
        differences, the expected reward is exactly zero wherever phi is flat
        below x, where K(v + phi) - phi would leave a rounding residue.
        """
        S = self.num_states
        lead = () if v is None else v.shape[:-1]  # (P,) for a stack
        w = v
        for mat, n in zip(mats, self.dims):
            if w is not None:  # the activity axis, -1, is 1 before the first step
                w = np.matmul(w.reshape(lead + (-1, S // n, n)), mat.transpose(0, 2, 1))
            if phi is not None:
                f = phi.reshape(S // n, n)
                gain = np.einsum("kxy,ixy->kix", mat, f[:, None, :] - f[:, :, None])
                w = gain if w is None else w + gain
                phi = f.T.reshape(S)
            w = w.swapaxes(-1, -2).reshape(lead + (-1, S))
        return w

    def chunk_width(self, q_entries: int) -> int:
        """Activities per q call, for q_entries Q entries per activity (P * S).

        The tabulated route also builds (S, S) arrays per activity.
        """
        if self.tabulated is not None:
            q_entries = max(q_entries, self.num_states**2)
        return max(1, _CHUNK_ENTRIES // q_entries)

    def epoch(self, t: int, v_next: np.ndarray | None, acts=None) -> "Epoch":
        if acts is None:
            acts = np.arange(self.num_activities)
        return Epoch(self, t, v_next, acts)

    def used(self, choice: np.ndarray) -> np.ndarray:
        """The distinct activities in choice (of any shape), ascending."""
        # np.unique would import numpy.ma, a few MB of resident memory.
        return np.flatnonzero(np.bincount(choice.ravel(), minlength=self.num_activities))


def _binomial_layout(n: int):
    """Coefficient, depleted-count and remaining-count grids of an n x n binomial matrix."""
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    coef = np.array(
        [[float(binomial_coefficient(i, i - j)) if j <= i else 0.0 for j in range(n)] for i in range(n)]
    )
    return coef, np.maximum(x - y, 0), y


def _kron(mats: list[np.ndarray]) -> np.ndarray:
    """Full transition matrices P[a, x, x'] = prod_m B_m[a, x_m, x'_m], type 0 least significant."""
    k = len(mats[0])
    out = np.ones((k, 1, 1))
    for mat in reversed(mats):
        n = mat.shape[1]
        out = (out[:, :, None, :, None] * mat[:, None, :, None, :]).reshape(
            k, out.shape[1] * n, out.shape[2] * n
        )
    return out


class Epoch:
    """Q at one epoch for a sorted array of activities, produced chunk by chunk.

    v_next is None (V = 0), one value vector (S,) or a stack (P, S); every
    per-state result has v_next's shape, (S,) for V = 0.  Iterating yields
    (activities, q) pairs.  A chunk holds as many activities as keep its
    working set within _CHUNK_ENTRIES entries (BellmanOperator.chunk_width),
    and at least one.  Each chunk's q is
    computed once and reused by every later pass while the kept chunks fit
    _Q_BUDGET; a chunk past the budget is recomputed on each pass.
    """

    def __init__(self, op: BellmanOperator, t: int, v_next, acts: np.ndarray):
        self.op, self.t, self.v_next = op, t, v_next
        self.shape = (op.num_states,) if v_next is None else v_next.shape  # per-state results
        # Q entries per activity; a stack of no policies still gets one chunk size.
        per_activity = op.num_states if v_next is None else max(1, v_next.size)
        width = op.chunk_width(per_activity)
        self.chunks = [acts[i:i + width] for i in range(0, len(acts), width)]
        self._keep = max(1, _Q_BUDGET // (width * per_activity * 8))
        self._kept: list[np.ndarray] = []

    def __iter__(self):
        kept = self._kept
        for k, acts in enumerate(self.chunks):
            if k < len(kept):
                q = kept[k]
            else:
                q = self.op.q(self.t, self.v_next, acts)
                if k < self._keep:
                    kept.append(q)
            yield acts, q

    def best(self, key: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Per-state maximum over activities of q, or of key(q)."""
        best = None
        for _, q in self:
            top = (q if key is None else key(q)).max(axis=-2)
            best = top if best is None else np.maximum(best, top)
        return best

    def lowest(self, cond: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Per-state lowest activity whose q satisfies cond; -1 where none does."""
        choice = np.full(self.shape, -1, dtype=np.int32)
        for acts, q in self:
            hit = cond(q)
            take = (choice < 0) & hit.any(axis=-2)
            choice[take] = acts[hit.argmax(axis=-2)[take]]
        return choice

    def at(self, choice: np.ndarray) -> np.ndarray:
        """Per-state q at the given activity; NaN where it is not in this epoch."""
        out = np.full(choice.shape, np.nan)
        for acts, q in self:
            pos = np.minimum(np.searchsorted(acts, choice), len(acts) - 1)
            inside = np.nonzero(acts[pos] == choice)
            out[inside] = q[inside[:-1] + (pos[inside],) + inside[-1:]]
        return out


def lowest_tied(epoch: Epoch) -> tuple[np.ndarray, np.ndarray]:
    """Per-state max Q and the lowest activity within tie_slack of it."""
    best = epoch.best()
    floor = best - tie_slack(best)
    return best, epoch.lowest(lambda q: q >= floor)


def _zero_values(op: BellmanOperator, count: int) -> np.ndarray:
    """Zero values (count, T + 1, S).

    Epoch-major, so the epoch rows a sweep reads and writes are contiguous;
    table i is values[i].T, a Fortran-ordered (S, T + 1) array.
    """
    return np.zeros((count, op.horizon + 1, op.num_states))


def _value_table(instance: Instance, values: np.ndarray, chosen: np.ndarray,
                 policy_name: str | None = None) -> ValueTable:
    """The table of epoch-major values (T + 1, S) and activities (T, S)."""
    return ValueTable(
        capacities=instance.capacities,
        horizon=instance.horizon,
        num_activities=instance.num_activities,
        fingerprint=instance_fingerprint(instance),
        values=values.T,
        best_activity=chosen.T,
        policy_name=policy_name,
    )


def solve_clairvoyant(
    instance: Instance,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ValueTable:
    """Exact J* by backward induction over the full reduced state space.

    best_activity is the lowest activity whose Q lies within
    TIE_TOL * max(1, |J*|) of the maximum J*(x, t), so rounding noise in the
    summation order never decides between activities that tie exactly.
    """
    op = bellman_operator(instance, state_cap)
    (values,) = _zero_values(op, 1)
    chosen = np.empty((instance.horizon, op.num_states), dtype=np.int32)
    for t in range(instance.horizon - 1, -1, -1):
        values[t], chosen[t] = lowest_tied(op.epoch(t, values[t + 1]))
    return _value_table(instance, values, chosen)


def evaluate_policies_exact(
    instance: Instance,
    policies: Sequence,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[ValueTable]:
    """Exact J^pi of every policy, all from one backward sweep.

    Where the union of the activities the policies choose at an epoch fits
    one chunk, the epoch applies the operator once to the stack of the
    policies' value vectors over that union, and reads each policy's Q at
    its own choice.  Otherwise each policy's vector goes through the
    operator alone over its own activities: the stack computes Q for every
    (policy, activity) pair of the union, which on a large table costs more
    than the calls it saves.  Both routes give the same bits.  The choices
    come from stodep.policies.decision_tables, one column per epoch.
    """
    from .policies import decision_tables  # policies builds on this module

    op = bellman_operator(instance, state_cap)
    P = len(policies)
    values = _zero_values(op, P)
    # Epoch-major views of the policies' own (S, T) tables, not copies (the
    # policies keep theirs anyway); read-only, as each is a table's best_activity.
    chosen = [d.T for d in decision_tables(instance, policies, state_cap)]
    for c in chosen:
        c.flags.writeable = False
    # One policy's vectors go unstacked: stacked, its epoch costs about 3 us
    # more (the (P, S) gather), an eighth of an epoch on a 64-state table.
    width = op.chunk_width(max(P, 1) * op.num_states)
    for t in range(instance.horizon - 1, -1, -1):
        if P > 1:
            choice = np.stack([c[t] for c in chosen])
            union = op.used(choice)
            if len(union) <= width:
                values[:, t] = op.epoch(t, values[:, t + 1], union).at(choice)
                continue
        for v, c in zip(values, chosen):
            v[t] = op.epoch(t, v[t + 1], op.used(c[t])).at(c[t])
    return [
        _value_table(instance, v, c, getattr(policy, "name", str(policy)))
        for policy, v, c in zip(policies, values, chosen)
    ]


def evaluate_policy_exact(
    instance: Instance,
    policy,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ValueTable:
    """Exact J^pi via the same recursion with the policy's activity fixed.

    The activities come from policy.decisions (stodep.policies.Policy), one
    column per epoch.
    """
    return evaluate_policies_exact(instance, [policy], state_cap=state_cap)[0]


def one_step_decisions(
    instance: Instance,
    rules: Sequence[Callable[[Epoch], np.ndarray]],
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[np.ndarray]:
    """One (num_states, horizon) activity table per rule, applied to Q with V = 0.

    Q is then the expected one-step reward, which is what the myopic
    policies rank.  Every rule reads the same Epoch, so each epoch's Q is
    computed once for all of them (within _Q_BUDGET).
    """
    op = bellman_operator(instance, state_cap)
    tables = np.empty((len(rules), instance.horizon, op.num_states), dtype=np.int32)
    for t in range(instance.horizon):
        epoch = op.epoch(t, None)
        for table, rule in zip(tables, rules):
            table[t] = rule(epoch)
    if (tables < 0).any():
        raise DomainError("the decision rule selects no activity at some state")
    return [table.T for table in tables]


@dataclass
class AuditReport:
    """Result of the one-sweep backward-consistency audit."""

    entries_checked: int
    max_residual: float
    failures: list[dict]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "entries_checked": self.entries_checked,
            "max_residual": self.max_residual,
            "passed": self.passed,
            "failures": self.failures,
        }


def audit_table(
    instance: Instance,
    table: ValueTable,
    *,
    tol: float = 1e-12,
    policy=None,
) -> AuditReport:
    """Recompute one backward step at every (x, t) and compare with the table.

    With policy=None the table is audited against the maximizing recursion,
    including that best_activity attains the maximum within
    max(tol, tie_slack(maximum)); otherwise against the policy's fixed choice.
    """
    table.require_match(instance)
    op = bellman_operator(instance, state_cap=2**62)  # the table already holds every state
    T = instance.horizon
    decisions = None if policy is None else policy.decisions(instance, state_cap=2**62)
    failures: list[dict] = []
    max_residual = 0.0
    for t in range(T - 1, -1, -1):
        v_next = table.values[:, t + 1]
        stored = table.values[:, t]
        stored_a = table.best_activity[:, t]
        if policy is None:
            epoch = op.epoch(t, v_next)
            target = epoch.best()
            attained = epoch.at(stored_a)
            wrong_activity = ~(target - attained <= np.maximum(tol, tie_slack(target)))
        else:
            choice = decisions[:, t]
            target = op.epoch(t, v_next, op.used(choice)).at(choice)
            wrong_activity = stored_a != choice
        residual = np.abs(stored - target)
        max_residual = max(max_residual, float(residual.max()))
        for si in np.flatnonzero(~(residual <= tol) | wrong_activity):
            failures.append(
                {
                    "items": op.items[si].tolist(),
                    "t": t,
                    "stored": float(stored[si]),
                    "recomputed": float(target[si]),
                    "residual": float(residual[si]),
                }
            )
    # Terminal boundary: J(x, horizon) must be exactly zero.
    for si in np.flatnonzero(table.values[:, T] != 0.0):
        stored = float(table.values[si, T])
        failures.append(
            {"items": op.items[si].tolist(), "t": T, "stored": stored, "recomputed": 0.0,
             "residual": abs(stored)}
        )
    return AuditReport(
        entries_checked=op.num_states * (T + 1), max_residual=max_residual, failures=failures
    )
