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
activities, where enumerating outcomes costs S * A * prod_m (x_m + 1).  One
kernel (BellmanOperator._expect) does every contraction.  At an epoch whose
schedule holds a 0 or 1 it takes each distinct schedule row u once and
contracts only its types with 0 < p < 1 (p = 0 is the identity, p = 1 a copy
of the x_m = 0 slice), so the epoch costs
S * sum_u sum_{m : 0 < p_um < 1} (c_m + 1), with the bits that contracting
every type gives.

The operator takes a stack of P value vectors and returns Q for every
(row, activity) pair, with the expected one-step reward (Q with V = 0) as an
extra row on request.  One backward loop (_sweep) serves solve_clairvoyant,
evaluate_policies_exact, one_step_decisions and solve_and_evaluate: each
epoch applies the operator once per chunk to the stack of J* and the
policies' values, and the solve, the one-step rules and each policy (at its
choice) read their rows of that one call.  Policies leave the stack at the
epochs where it does not fit one chunk, and go through alone over their own
activities.  Activities go through the operator in chunks of at most
_CHUNK_ENTRIES Q entries (rows * k * S for k activities; k * S * S on the
tabulated route), so a small table takes every pair in one call.  No Q
depends on which activities or vectors share its call (see
BellmanOperator._linear_reward), so stacked and single evaluations agree bit
for bit.  An Epoch computes each chunk's Q once and keeps it for later
passes over the epoch while the kept chunks fit a fixed byte budget
(_Q_BUDGET); chunks past it are recomputed on each pass, so memory stays
bounded whatever A and P are.

Each instance gets one operator (bellman_operator), built on first use and
kept on the instance, so a solve, the policy evaluations and the certifiers
of one instance share its state decoding and reward data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, FingerprintMismatch, StateSpaceCapExceeded
from .model import DEFAULT_STATE_CAP, Instance, State, require_tolerance, state_space_size
from .rewards import (GeneralTabulatedReward, LinearDecayingReward, LinearReward, SubmodularReward,
                      potential_on_box)
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

# Bytes of binomial matrices an operator keeps for its epochs with a 0 or 1
# probability (BellmanOperator._rows), one epoch's distinct rows at a time:
# an epoch is kept while it fits with those kept before it, and past the
# budget its matrices are rebuilt on each call, as they are at every epoch
# with no 0 and no 1.
_MATRIX_BUDGET = 2**24

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
        """The table to_dict wrote; ConfigError unless its header is well formed,
        its arrays cover every (x, t) and every value is a finite number."""
        _check_header(data)
        try:
            values = np.asarray(data["values"], dtype=np.float64)
            best = np.asarray(data["best_activity"], dtype=np.int32)
        except (TypeError, ValueError) as exc:  # ragged rows, entries that are not numbers
            raise ConfigError(f"table arrays: {exc}") from None
        table = cls(
            capacities=tuple(data["capacities"]),
            horizon=data["horizon"],
            num_activities=data["num_activities"],
            fingerprint=data["fingerprint"],
            values=values,
            best_activity=best,
            policy_name=data.get("policy_name"),
        )
        S, T = math.prod(c + 1 for c in table.capacities), table.horizon
        if table.values.shape != (S, T + 1) or table.best_activity.shape != (S, T):
            raise ConfigError(
                f"table arrays of shapes {table.values.shape} and {table.best_activity.shape}; "
                f"capacities {table.capacities} and horizon {T} need ({S}, {T + 1}) and ({S}, {T})"
            )
        finite = np.isfinite(values)
        if not finite.all():  # JSON null loads as NaN, and NaN and Infinity load as themselves
            i, j = (int(k) for k in np.argwhere(~finite)[0])
            raise ConfigError(
                f"table value at (row {i}, column {j}) is {json.dumps(data['values'][i][j])}: "
                "every value must be a finite number"
            )
        return table

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


def _check_header(data) -> None:
    """ConfigError unless data has every field of a table, with the types and signs to_dict writes."""
    if not isinstance(data, dict):
        raise ConfigError(f"a value table is a JSON object, not {type(data).__name__}")
    missing = [k for k in ("fingerprint", "capacities", "horizon", "num_activities",
                           "values", "best_activity") if k not in data]
    if missing:
        raise ConfigError(f"value table lacks {', '.join(missing)}")

    def count(v, least):
        return isinstance(v, int) and not isinstance(v, bool) and v >= least

    caps = data["capacities"]
    if not (isinstance(caps, (list, tuple)) and caps and all(count(c, 0) for c in caps)):
        raise ConfigError(f"table capacities {caps!r}: a non-empty list of integers >= 0")
    for name in ("horizon", "num_activities"):
        if not count(data[name], 1):
            raise ConfigError(f"table {name} {data[name]!r}: an integer >= 1")
    if not isinstance(data["fingerprint"], str):
        raise ConfigError(f"table fingerprint {data['fingerprint']!r}: a string")
    if not isinstance(data.get("policy_name"), (str, type(None))):
        raise ConfigError(f"table policy_name {data['policy_name']!r}: a string or null")


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
    reference back to it.  The state cap is checked on every call, against
    the dense table and, for a tabulated reward, against the horizon * S**2
    entries of its dense reward array g[t, x, x'].
    """
    n_entries = state_space_size(instance)
    if n_entries > state_cap:
        raise StateSpaceCapExceeded(f"state space {n_entries} exceeds cap {state_cap}")
    if isinstance(instance.reward, GeneralTabulatedReward):
        n_rewards = instance.horizon * (n_entries // (instance.horizon + 1)) ** 2
        if n_rewards > state_cap:
            raise StateSpaceCapExceeded(
                f"dense tabulated reward of {n_rewards} entries exceeds cap {state_cap}"
            )
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
    the key and value arrays of a tabulated reward.  ConfigError names the
    first of those weights, potential values or tabulated values that is not
    finite.
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
        if isinstance(rew, (LinearReward, LinearDecayingReward)):
            weights = np.asarray(rew.weights, dtype=np.float64)  # (M,) or (M, horizon)
            _require_finite(weights, lambda i: f"reward.weights{list(i)}")
            self.weights = weights.T if weights.ndim == 2 else np.tile(weights, (self.horizon, 1))
        elif isinstance(rew, SubmodularReward):
            caps = np.array(instance.capacities)  # w(cap - x) at each state x, type 0 fastest
            self.potential = np.flip(potential_on_box(rew.evaluator, caps)).ravel(order="F")
            _require_finite(self.potential, lambda i: "reward potential "
                            f"w({tuple((caps - self.items[i[0]]).tolist())})")
        else:  # GeneralTabulatedReward; Instance admits no other kind
            self.tabulated = self._dense_rewards(rew, instance.capacities, radices)
        if self.weights is not None:  # (horizon, M) weights times (M, S) item counts
            self._counts = self.items.T.astype(np.float64)
        self._distinct = _distinct_rows(self.schedule)
        self._kept: dict[int, tuple] = {}  # epoch -> _row_data of all its distinct rows
        self._kept_bytes = 0

    def _dense_rewards(self, rew: GeneralTabulatedReward, caps, radices) -> np.ndarray:
        """g[t, index(x), index(x')] for t < horizon; every x' <= x needs an entry.

        The Instance constructor has checked that every key lies in the domain.
        """
        T, S = self.horizon, self.num_states
        M = len(self.dims)
        keep = rew.keys[:, 2 * M] < T
        keys, values = rew.keys[keep], rew.values[keep]

        def entry(i):
            k = keys[i[0]].tolist()
            return f"tabulated reward entry {(tuple(k[:M]), tuple(k[M:2 * M]), k[2 * M])}"

        _require_finite(values, entry)
        at = (keys[:, 2 * M], keys[:, :M] @ radices, keys[:, M:2 * M] @ radices)
        g = np.zeros((T, S, S))
        g[at] = values
        present = np.zeros((T, S, S), dtype=bool)
        present[at] = True
        below = (self.items[None, :, :] <= self.items[:, None, :]).all(axis=2)
        missing = np.argwhere(below & ~present)
        if len(missing):
            t, i, j = (int(v) for v in missing[0])
            key = (decode_state(i, caps), decode_state(j, caps), t)
            raise DomainError(f"tabulated reward has no entry for {key}")
        return g

    def rewards(self, x, x_next, t) -> np.ndarray:
        """g(x, x', t) at state indices x, x' and epochs t < horizon, broadcast together.

        The linear routes add type by type from 0.0: a sum of zeros is +0.0.
        """
        if self.weights is not None:
            depleted = self.items[x] - self.items[x_next]
            w = self.weights[t]
            g = 0.0
            for m in range(depleted.shape[-1]):
                g = g + w[..., m] * depleted[..., m]
            return g
        if self.potential is not None:
            g = self.potential[x_next] - self.potential[x]
            return np.broadcast_to(g, np.broadcast_shapes(np.shape(g), np.shape(t)))
        return self.tabulated[t, x, x_next]

    def q(self, t: int, v_next: np.ndarray | None, acts: np.ndarray, one_step: bool = False):
        """Q_t(., a) for each a in acts and each value vector of v_next.

        acts holds distinct activities in ascending order.  v_next is one
        vector (S,) or a stack of P vectors (P, S), one per policy; Q is then
        (len(acts), S) or (P, len(acts), S), with the reward term shared by
        the stack.  v_next=None means V = 0.  one_step=True (v_next a stack)
        appends the Q of V = 0, the expected one-step reward, as row P: the
        reward term itself, or on the potential route a zero row of the stack.
        """
        if self.potential is not None:
            if one_step:
                v_next = np.concatenate((v_next, np.zeros((1, self.num_states))))
            return self._rows(t, acts, v_next, self.potential)
        mats = None
        if self.weights is not None:
            reward = self._linear_reward(t, acts)
        else:
            mats = self._matrices(self.schedule[t, acts])
            reward = (_kron(mats) * self.tabulated[t]).sum(axis=2)
        if v_next is None:
            return reward
        if not one_step:
            return reward + self._rows(t, acts, v_next, mats=mats)
        q = np.empty((len(v_next) + 1,) + reward.shape)
        np.add(reward, self._rows(t, acts, v_next, mats=mats), out=q[:-1])
        q[-1] = reward
        return q

    def _linear_reward(self, t: int, acts: np.ndarray) -> np.ndarray:
        """sum_m w_m[t] p[t, a, m] x_m for each a in acts, shape (len(acts), S).

        A BLAS matrix product can round a row differently depending on how
        many rows it computes (seen from 4 types up), so each row comes from
        the product of its fixed block of _REWARD_BLOCK activities: one
        batched matmul over the full blocks that acts touch, and one product
        for a last, shorter block.  A Q's bits then do not depend on which
        activities share its call: a chunk, a policy's own choices, or the
        union of several policies'.
        """
        B = _REWARD_BLOCK
        lo = int(acts[0]) // B * B
        # One block, as on every table of up to 8 activities, skips the
        # search and gather: 5% of the exact-ladder largest rung's certify time.
        if int(acts[-1]) < lo + B:
            block = (self.schedule[t, lo:lo + B] * self.weights[t]) @ self._counts
            return block if len(block) == len(acts) else block[acts - lo]
        scaled = self.schedule[t] * self.weights[t]
        (A, M), S = scaled.shape, self.num_states
        end = A // B * B  # where a short last block starts
        blocks = np.flatnonzero(np.bincount(acts // B))  # the blocks acts touch, ascending
        full = blocks[:len(blocks) - (blocks[-1] * B == end)]
        out = np.empty((len(full) * B + (A - end if len(full) < len(blocks) else 0), S))
        if len(full):
            lhs = scaled[:end].reshape(-1, B, M)[full]
            np.matmul(lhs, self._counts, out=out[:len(full) * B].reshape(-1, B, S))
        if len(full) < len(blocks):
            np.matmul(scaled[end:], self._counts, out=out[len(full) * B:])
        if len(out) == len(acts):  # every activity of its blocks
            return out
        return out[np.searchsorted(blocks, acts // B) * B + acts % B]

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

    def _rows(self, t: int, acts: np.ndarray, v, phi=None, mats=None) -> np.ndarray:
        """_expect over the activities acts at epoch t: (len(acts), S) or (P, len(acts), S).

        At an epoch whose schedule holds no 0 and no 1 every type of every
        activity is contracted, with mats if the caller built them.  Elsewhere
        identical schedule rows give identical expectations, so each row that
        acts use is computed once and gathered back to its activities.  A call over every activity
        there uses the epoch's matrices kept on the operator (_row_data,
        built on the first such call and kept while they fit
        _MATRIX_BUDGET); other calls build those of their rows.
        """
        if t not in self._distinct:
            every = range(len(acts))
            if mats is None:
                mats = self._matrices(self.schedule[t, acts])
            return self._expect((len(acts), [(every, (), mat) for mat in mats]), v, phi)
        row, first = self._distinct[t]
        if len(acts) == len(row):  # every activity: each of the epoch's rows
            data = self._kept.get(t)
            if data is None:
                data = self._row_data(t, first)
                nbytes = sum(mat.nbytes for *_, mat in data[1])
                if self._kept_bytes + nbytes <= _MATRIX_BUDGET:
                    self._kept[t] = data
                    self._kept_bytes += nbytes
            w = self._expect(data, v, phi)
            return w if len(first) == len(row) else np.take(w, row, axis=-2)
        row = row[acts]
        used = np.flatnonzero(np.bincount(row))
        w = self._expect(self._row_data(t, first[used]), v, phi)
        return np.take(w, np.searchsorted(used, row), axis=-2)

    def _row_data(self, t: int, first: np.ndarray) -> tuple:
        """The schedule rows of activities first at epoch t: their number, and
        per type the rows with 0 < p < 1, the rows with p = 1 and the
        binomial matrices of the former."""
        p = self.schedule[t, first]
        cut = (p > 0) & (p < 1)
        return len(p), [(np.flatnonzero(c), np.flatnonzero(p1), mat[c])
                        for c, p1, mat in zip(cut.T, (p == 1).T, self._matrices(p))]

    def _expect(self, data: tuple, v, phi=None) -> np.ndarray:
        """(K_u v)(x) = E[v(x - X)] for every schedule row u of data and vector of v.

        data is (U, types): U rows and, per type, the rows with 0 < p < 1,
        the rows with p = 1 and the binomial matrices of the former
        (_row_data).  v is (S,) or (P, S), or None for V = 0; the result is
        (U, S) or (P, U, S), a new array.

        K = K_{M-1} ... K_0, where K_m takes the expectation over type m's
        depletion.  Each step contracts the last axis of the C-order tensor
        (type m) and moves it to the front, so the next type's axis comes
        last and the axes are back in their original order after M steps.
        Only the rows with 0 < p < 1 are contracted: B_m is exactly the
        identity where p = 0 (0**0 == 1) and exactly the gather of x_m = 0
        where p = 1, so for finite values skipping and copying give the bits
        the contraction gives, and a row has the same bits whichever rows
        share its call.  Every type still moves its axis.  Until a type
        touches some row, all rows are still v and share one copy.

        With a potential phi the result also holds E[phi(x - X)] - phi(x),
        telescoped one type at a time: step m adds
        D_m phi(x) = sum_y B_m[x_m, y] (phi(x with x_m = y) - phi(x)), so
        the total is sum_m K_{M-1} ... K_{m+1} D_m phi.  Built from
        differences, the expected reward is exactly zero wherever phi is flat
        below x, where K(v + phi) - phi would leave a rounding residue.
        """
        S = self.num_states
        if v is None:
            v = np.zeros(S)
        lead = v.shape[:-1]
        U, types = data
        w, shared = v[..., None, :], True
        for (c, o, mat), n in zip(types, self.dims):
            wr = w.reshape(lead + (-1, S // n, n))
            if phi is not None:
                f = phi.reshape(S // n, n)
                phi = f.T.reshape(S)
            if not len(c) + len(o):  # p = 0 in every row: B_m is the identity
                w = wr.swapaxes(-1, -2).reshape(lead + (-1, S))
                continue
            if len(c):
                r = np.matmul(wr if shared or len(c) == U else wr[..., c, :, :],
                              mat.transpose(0, 2, 1))
                if phi is not None:
                    r += np.einsum("kxy,ixy->kix", mat, f[:, None, :] - f[:, :, None])
            if len(c) == U:
                w = r.swapaxes(-1, -2).reshape(lead + (U, S))
            else:
                nxt = np.empty(lead + (U, n, S // n))
                nxt[...] = wr.swapaxes(-1, -2)
                if len(c):
                    nxt[..., c, :, :] = r.swapaxes(-1, -2)
                if len(o):
                    y = (wr if shared else wr[..., o, :, :])[..., :1]  # the x_m = 0 slice
                    nxt[..., o, :, :] = (y if phi is None else y + (f[:, :1] - f)).swapaxes(-1, -2)
                w = nxt.reshape(lead + (U, S))
            shared = False
        return np.repeat(w, U, axis=-2) if shared else w  # p = 0 throughout: U copies of v

    def chunk_width(self, q_entries: int) -> int:
        """Activities per q call, for q_entries Q entries per activity (P * S).

        The tabulated route also builds (S, S) arrays per activity.
        """
        if self.tabulated is not None:
            q_entries = max(q_entries, self.num_states**2)
        return max(1, _CHUNK_ENTRIES // q_entries)

    def epoch(self, t: int, v_next: np.ndarray | None, acts=None, one_step=False) -> "Epoch":
        if acts is None:
            acts = np.arange(self.num_activities)
        return Epoch(self, t, v_next, acts, one_step)

    def used(self, choice: np.ndarray) -> np.ndarray:
        """The distinct activities in choice (of any shape), ascending."""
        # np.unique would import numpy.ma, a few MB of resident memory.
        return np.flatnonzero(np.bincount(choice.ravel(), minlength=self.num_activities))


def _require_finite(values: np.ndarray, name: Callable[[tuple], str]) -> None:
    """ConfigError naming the first entry of values that is not finite, by name(index)."""
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i = tuple(int(k) for k in bad[0])
        raise ConfigError(f"{name(i)} is {float(values[i])!r}: the reward data must be finite")


def _binomial_layout(n: int):
    """Coefficient, depleted-count and remaining-count grids of an n x n binomial matrix."""
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    coef = np.array(
        [[float(math.comb(i, i - j)) if j <= i else 0.0 for j in range(n)] for i in range(n)]
    )
    return coef, np.maximum(x - y, 0), y


def _distinct_rows(schedule: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{t: (row, first)} for each epoch t whose schedule holds a 0 or a 1.

    row[a] numbers activity a's schedule row among the epoch's distinct
    rows, in order of first appearance, and first[u] is the lowest activity
    whose row is u.  Epochs with no 0 and no 1 are left out: no type can be
    skipped there, so _rows contracts every type of every activity, and a
    schedule without any costs two reductions.  Rows are told apart by their
    bytes in a dict: numpy's sorts would fault in several hundred KB of their
    code, which peak RSS counts.
    """
    if schedule.min() > 0 and schedule.max() < 1:
        return {}
    M = schedule.shape[2]
    out = {}
    for t in np.flatnonzero(((schedule == 0) | (schedule == 1)).any(axis=(1, 2))).tolist():
        keys = schedule[t].view(np.dtype((np.void, 8 * M)))[:, 0].tolist()
        number, first = {}, []
        for a, key in enumerate(keys):
            if key not in number:
                number[key] = len(first)
                first.append(a)
        out[t] = (np.array([number[key] for key in keys]), np.array(first))
    return out


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

    v_next is None (V = 0), one value vector (S,) or a stack (P, S), and
    one_step=True adds the Q of V = 0 as row P (BellmanOperator.q); every
    per-state result has the shape of Q's rows, (S,) or (P[+1], S), and
    rows() gives a view of some of them.  Iterating yields (activities, q)
    pairs.  A chunk holds as many activities as keep its working set within
    _CHUNK_ENTRIES entries (BellmanOperator.chunk_width), and at least one.
    Each chunk's q is computed once and reused by every later pass, and by
    every view, while the kept chunks fit _Q_BUDGET; a chunk past the
    budget is recomputed on each pass.
    """

    def __init__(self, op: BellmanOperator, t: int, v_next, acts: np.ndarray,
                 one_step: bool = False):
        self.op, self.t, self.v_next, self.one_step = op, t, v_next, one_step
        S = op.num_states
        self.shape = (S,) if v_next is None or v_next.ndim == 1 else (len(v_next) + one_step, S)
        per_activity = math.prod(self.shape)  # Q entries
        width = op.chunk_width(per_activity)
        self.chunks = [acts[i:i + width] for i in range(0, len(acts), width)]
        fit = _Q_BUDGET // (8 * per_activity)  # activities whose Q fits the budget
        self._keep = max(1, len(self.chunks) if len(acts) <= fit else fit // width)
        self._kept: list[np.ndarray] = []
        self._rows = None

    def rows(self, sel) -> "Epoch":
        """A view of Q's stack rows sel (an index or a slice) that shares this epoch's chunks."""
        view = Epoch.__new__(Epoch)
        shape = self.shape[1:]
        if isinstance(sel, slice):
            shape = (len(range(self.shape[0])[sel]),) + shape
        view.__dict__ = {**self.__dict__, "_rows": sel, "shape": shape}
        return view

    def __iter__(self):
        kept = self._kept
        for k, acts in enumerate(self.chunks):
            if k < len(kept):
                q = kept[k]
            else:
                q = self.op.q(self.t, self.v_next, acts, self.one_step)
                if k < self._keep:
                    kept.append(q)
            yield acts, q if self._rows is None else q[self._rows]

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
    floor = (best - tie_slack(best))[..., None, :]  # against Q's (activity, state) axes
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


def _sweep(op: BellmanOperator, solve: bool, sources: Sequence, rules: Sequence):
    """The one backward loop behind every solve, evaluation and one-step table.

    Returns (values, chosen, ruled).  values (R, T + 1, S) holds J* first if
    solve, then J^pi for each source; chosen the epoch-major (T, S)
    activities of each row; ruled (len(rules), T, S) the activity each rule
    picks from the expected one-step reward (an Epoch of Q with V = 0).  A
    policy's source is its (S, T) decision table, the index of a rule, or
    None for the solve's own choice.

    At each epoch the operator is applied once per chunk to the stack of
    the solve's and the policies' value vectors, with the V = 0 Q as an
    extra row when there are rules; the solve, the rules and then each
    policy, at its choice, read their rows of it.  Rules and the solve need
    every activity; policies that all read tables need only the union of
    their choices.  Where the whole stack does not fit one chunk, the
    policies leave it: each goes through alone over its own activities,
    since the stack would compute Q for every (policy, activity) pair.
    Both routes give the same bits.  One table policy alone goes
    unstacked too; stacked, its epoch costs about 3 us more (the (P, S)
    gather), an eighth of an epoch on a 64-state table.
    """
    T, S, A = op.horizon, op.num_states, op.num_activities
    lead, P = int(solve), len(sources)
    values = _zero_values(op, lead + P)
    solved = np.empty((T, S), dtype=np.int32)
    ruled = np.empty((len(rules), T, S), dtype=np.int32)
    chosen = [ruled[s] if isinstance(s, int) else solved if s is None else s.T for s in sources]
    every = np.arange(A)
    width = op.chunk_width(max(1, lead + P + bool(rules)) * S)
    for t in range(T - 1, -1, -1):
        acts = every
        if not (solve or rules) and P > 1:
            acts = op.used(np.stack([c[t] for c in chosen]))
        stacked = P > (0 if solve or rules else 1) and len(acts) <= width
        rows = lead + P if stacked else lead
        if rows:
            epoch = op.epoch(t, values[:rows, t + 1], acts, bool(rules))
        elif rules:
            epoch = op.epoch(t, None, acts)
        if solve:
            values[0, t], solved[t] = lowest_tied(epoch.rows(0))
        if rules:
            one_step = epoch.rows(-1) if rows else epoch
            for table, rule in zip(ruled, rules):
                table[t] = rule(one_step)
        if stacked:
            choice = np.stack([c[t] for c in chosen])
            values[lead:, t] = epoch.rows(slice(lead, rows)).at(choice)
        epoch = one_step = None  # frees the kept Q before the next operator call
        if not stacked:
            for v, c in zip(values[lead:], chosen):
                v[t] = op.epoch(t, v[t + 1], op.used(c[t])).at(c[t])
    if (ruled < 0).any():
        raise DomainError("the decision rule selects no activity at some state")
    return values, [solved] * solve + chosen, ruled


def _tables(instance: Instance, policies: Sequence, *, solve: bool,
            state_cap: int) -> list[ValueTable]:
    """J* (if solve) and then J^pi of each policy, from one _sweep.

    Policy.decisions gives each policy's choices; the one-step policies that
    have not seen the instance choose in the sweep instead, and keep their
    tables (stodep.policies.decision_sources).
    """
    from .policies import decision_sources  # policies builds on this module

    op = bellman_operator(instance, state_cap)
    sources, rules, keep = decision_sources(instance, policies, state_cap)
    if not solve and any(s is None for s in sources):
        raise ConfigError("the optimal policy requires a solved value table")
    values, chosen, ruled = _sweep(op, solve, sources, rules)
    keep([table.T for table in ruled])
    names = [None] * solve + [getattr(p, "name", str(p)) for p in policies]
    tables = []
    for i, (v, c, name) in enumerate(zip(values, chosen, names)):
        if i >= solve:  # a policy's choices are its own table (or the solve's): read-only
            c = c.view()
            c.flags.writeable = False
        tables.append(_value_table(instance, v, c, name))
    return tables


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
    return _tables(instance, [], solve=True, state_cap=state_cap)[0]


# In the policies given to solve_and_evaluate, the optimal policy of that
# solve: at each epoch it takes the solve's own choice.
OPTIMAL = "optimal"


def solve_and_evaluate(
    instance: Instance,
    policies: Sequence,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[ValueTable, list[ValueTable]]:
    """solve_clairvoyant and evaluate_policies_exact from one backward sweep.

    Each epoch applies the operator once per chunk to the stack of J* and
    the policies' values, where it fits one chunk (see _sweep).  The entry
    OPTIMAL stands for the solve's own policy.
    """
    table, *evaluated = _tables(instance, policies, solve=True, state_cap=state_cap)
    return table, evaluated


def evaluate_policies_exact(
    instance: Instance,
    policies: Sequence,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[ValueTable]:
    """Exact J^pi of every policy, all from one backward sweep.

    Where the activities the policies need at an epoch fit one chunk with
    the whole stack of their values, the epoch applies the operator once to
    that stack and reads each policy's Q at its own choice; otherwise each
    policy goes through alone over its own activities (see _sweep).  The
    choices come from Policy.decisions, one column per epoch.
    """
    return _tables(instance, policies, solve=False, state_cap=state_cap)


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
    _, _, ruled = _sweep(bellman_operator(instance, state_cap), False, [], rules)
    return [table.T for table in ruled]


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
    tol = require_tolerance(tol)
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
            # The floor the solve ties by (lowest_tied): best - q can round above
            # the slack where q >= best - slack holds, e.g. q = 1 against 1 + 1e-12.
            wrong_activity = ~(attained >= target - np.maximum(tol, tie_slack(target)))
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
