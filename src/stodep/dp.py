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
_CHUNK_ENTRIES Q entries (rows * k * S for k activities), so a small table
takes every pair in one call.  No Q depends on which activities or vectors
share its call (see BellmanOperator._linear_reward and _tabulated_reward),
so stacked and single evaluations agree bit for bit.  An Epoch computes
each chunk's Q once and keeps it for later
passes over the epoch while the kept chunks fit a fixed byte budget
(_Q_BUDGET); chunks past it are recomputed on each pass, so memory stays
bounded whatever A and P are.  A one-chunk epoch, as on every small table,
is read as one array: each maximum, lowest qualifying activity or value at
a choice is one numpy reduction or gather.

What q reads at an epoch besides V depends only on the schedule and the
reward: the binomial matrices of its distinct rows, the linear or
tabulated reward rows and, on the potential route, each type's D_m phi
term.  The operator keeps it for one block of consecutive epochs
(BellmanOperator._data).  The first
q over every activity at an epoch builds the epoch's block in one pass, one
numpy evaluation per type size, within _EPOCH_BUDGET bytes, and drops the
block kept before; a sweep then spends about 25 numpy calls per epoch.
Where one epoch alone exceeds the budget, and on calls over some of the
activities, each call builds only what it reads, and the potential terms
one type at a time; rewards, which Monte Carlo rollouts read, builds
nothing.  Every array kept is read-only, and every Q has the bits of
building it per call.

Each instance gets one operator (bellman_operator), built on first use and
kept on the instance, so a solve, the policy evaluations and the certifiers
of one instance share its state decoding and reward data.  A tabulated
reward is read as stored, by (x, x') pair (stodep.rewards.pair_index): its
expected reward costs O(A * E * M) per epoch for E pairs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, FingerprintMismatch, StateSpaceCapExceeded
from .model import (DEFAULT_STATE_CAP, Instance, State, _require_finite, require_tolerance,
                    state_space_size)
from .rewards import (GeneralTabulatedReward, LinearDecayingReward, LinearReward, SubmodularReward,
                      entry_types, is_integer, is_number, pair_count, pair_index, potential_on_box)
from .serialize import instance_fingerprint

# Activities within TIE_TOL * max(1, |best|) of the best Q are tied; the
# lowest tied index wins.  Summation order moves Q by a few ulps, so exact
# comparison would let rounding pick among mathematically equal activities.
TIE_TOL = 1e-12

# Entries of the largest arrays of one operator application: Q's
# (policies x activities x states) and a tabulated reward's (activities x
# pairs) terms.  Bounds the working set at a few such arrays whatever the
# number of activities; a 7**7-state table takes 8 activities of one policy
# per chunk.  A chunk (BellmanOperator.chunk_width), and a block of the
# tabulated reward's terms, holds at least one activity.
_CHUNK_ENTRIES = 6_600_000

# Activities per block of the linear reward's matrix product (see
# BellmanOperator._linear_reward).
_REWARD_BLOCK = 8

# Bytes of per-epoch operator data (BellmanOperator._data: binomial
# matrices, reward rows, potential terms) an operator keeps, for one block of
# consecutive epochs at a time.  Where one epoch's data alone exceeds it, each
# q call builds the data of its own activities.  Blocks of several hundred
# epochs at S = 16 already spread their build thin, and the queueing
# instance's four epochs (168 KB each) fit one; a larger budget only holds
# more memory for the life of the instance.
_EPOCH_BUDGET = 2**20

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
        its arrays cover every (x, t), every value is a finite number and every
        best_activity an integer in [0, num_activities).  A string or a
        boolean is not a number, even where numpy would read it as one;
        numpy numbers and arrays load as their values."""
        _check_header(data)
        try:
            values = np.asarray(data["values"], dtype=np.float64)
            best = np.asarray(data["best_activity"])  # int64 unless an entry is not an integer
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
        # JSON null loads as NaN, "0.25" as 0.25 and true as 1.0: find them
        # among the entries.  NaN and Infinity load as themselves.
        bad = ~np.isfinite(values)
        if not all(map(is_number, entry_types(data["values"]))):
            entries = np.asarray(data["values"], dtype=object)
            bad |= np.frompyfunc(lambda v: not is_number(type(v)), 1, 1)(entries).astype(bool)
        _refuse_first(bad, data["values"], "value", "every value must be a finite number")
        A = table.num_activities
        if best.dtype.kind in "iu" and all(map(is_integer, entry_types(data["best_activity"]))):
            bad = (best < 0) | (best >= A)
        else:  # a float, string, bool or huge entry: find it among the entries
            def stray(a):
                return not (is_integer(type(a)) and 0 <= a < A)

            bad = np.frompyfunc(stray, 1, 1)(np.asarray(data["best_activity"], dtype=object))
        _refuse_first(bad, data["best_activity"], "best_activity",
                      f"every entry must be an integer in [0, {A})")
        table.best_activity = best.astype(np.int32)
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


def _refuse_first(bad: np.ndarray, rows, name: str, rule: str) -> None:
    """ConfigError naming the first (row, column) of a table array where bad holds."""
    if bad.any():
        i, j = (int(k) for k in np.argwhere(bad)[0])
        raise ConfigError(
            f"table {name} at (row {i}, column {j}) is "
            f"{json.dumps(rows[i][j], default=lambda v: v.item())}: {rule}"
        )


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
    the dense table's entries.
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
    g = Phi(x') - Phi(x); and for a tabulated reward, the sum over its
    (x, x') pairs of P(x -> x') g(x, x', t), with g read from the table's
    values as they are stored (_pair_rewards).  The Instance constructor has
    refused every schedule entry outside [0, 1], every weight and tabulated
    value that is not finite, and reward data whose largest total over one
    episode, which bounds every Q and J, is not a finite double.  A
    potential is known only on the capacity box, so the operator refuses
    its values that are not finite, and a max Phi - min Phi that is not a
    finite double, with ConfigError.
    """

    def __init__(self, instance: Instance):
        rew = instance.reward
        self.tabulated = (_pair_rewards(rew, instance.capacities, instance.horizon)
                          if isinstance(rew, GeneralTabulatedReward) else None)
        self.schedule = s = instance.schedule
        self.horizon, self.num_activities = instance.horizon, instance.num_activities
        self.capacities = instance.capacities
        self.dims = tuple(c + 1 for c in instance.capacities)
        self.num_states = S = state_space_size(instance) // (instance.horizon + 1)
        radices = mixed_radix_radices(instance.capacities)
        self.items = np.arange(S)[:, None] // np.array(radices) % np.array(self.dims)
        # Per distinct type size n: the types of that size.
        self._sizes = [(n, [m for m, d in enumerate(self.dims) if d == n])
                       for n in sorted(set(self.dims))]
        self.weights = self.potential = None
        if isinstance(rew, (LinearReward, LinearDecayingReward)):
            weights = np.asarray(rew.weights, dtype=np.float64)  # (M,) or (M, horizon)
            self.weights = weights.T if weights.ndim == 2 else np.tile(weights, (self.horizon, 1))
            self._counts = self.items.T.astype(np.float64)  # (M, S), against (horizon, M) weights
        elif isinstance(rew, SubmodularReward):
            caps = np.array(instance.capacities)  # w(cap - x) at each state x, type 0 fastest
            self.potential = np.flip(potential_on_box(rew.evaluator, caps)).ravel(order="F")
            _require_finite(self.potential, lambda i: "reward potential "
                            f"w({tuple((caps - self.items[i[0]]).tolist())})")
            total = float(self.potential.max()) - float(self.potential.min())
            if not math.isfinite(total):
                raise ConfigError(f"the largest reward total over one episode is {total!r}: "
                                  "the reward data must be finite")
        # A schedule with no 0 and no 1 skips no type at any epoch.
        self._distinct = _distinct_rows(s) if s.min() == 0 or s.max() == 1 else {}
        # The most bytes one epoch keeps: every activity's matrices, and its
        # reward row or, on the potential route, its D_m phi of every type.
        per_row = S * (len(self.dims) if self.potential is not None else 1)
        self._epoch_bytes = 8 * self.num_activities * (sum(n * n for n in self.dims) + per_row)
        self._block: dict[int, tuple] = {}  # epoch -> _data of every activity, for one block

    def rewards(self, x, x_next, t) -> np.ndarray:
        """g(x, x', t) at state indices x, x' <= x and epochs t < horizon, broadcast together.

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
        return self.tabulated[0][pair_index(self.items[x], self.items[x_next], self.capacities), t]

    def q(self, t: int, v_next: np.ndarray | None, acts: np.ndarray, one_step: bool = False):
        """Q_t(., a) for each a in acts and each value vector of v_next.

        acts holds distinct activities in ascending order.  v_next is one
        vector (S,) or a stack of P vectors (P, S), one per policy; Q is then
        (len(acts), S) or (P, len(acts), S), with the reward term shared by
        the stack.  v_next=None means V = 0.  one_step=True (v_next a stack)
        appends the Q of V = 0, the expected one-step reward, as row P: the
        reward term itself, or on the potential route a zero row of the stack.
        """
        data = self._data(t, acts)
        reward = data[3]
        if reward is None:  # the potential route: the reward is part of the expectation
            if one_step:
                v_next = np.concatenate((v_next, np.zeros((1, self.num_states))))
            return self._rows(data, v_next)
        if v_next is None:
            return reward
        if not one_step:
            return reward + self._rows(data, v_next)
        q = np.empty((len(v_next) + 1,) + reward.shape)
        np.add(reward, self._rows(data, v_next), out=q[:-1])
        q[-1] = reward
        return q

    def _data(self, t: int, acts: np.ndarray) -> tuple:
        """What q reads at epoch t for the activities acts: (gather, U, types, reward).

        U schedule rows are contracted, and gather[i] is the row of acts[i]
        (None: row i is acts[i]).  types holds per type the rows with
        0 < p < 1, the rows with p = 1 and then _per_type's entries of the
        former.  reward is Q with V = 0 on the linear and tabulated routes,
        (len(acts), S), and None on the potential route.

        A call over every activity reads the data kept for its epoch.  The
        first such call at an epoch builds, in one pass, the data of its
        block of _EPOCH_BUDGET // _epoch_bytes consecutive epochs, in place
        of the block kept before.  Other calls, and every call once one
        epoch alone exceeds the budget, build data for themselves, whose
        potential terms are made one type at a time as _expect reaches them.
        """
        if len(acts) == self.num_activities:
            data = self._block.get(t)
            if data is not None:
                return data
            span = _EPOCH_BUDGET // self._epoch_bytes
            if span:
                lo = t // span * span
                self._block = {}  # frees the last block before the next is built
                self._block = dict(enumerate(self._build(lo, min(lo + span, self.horizon)), lo))
                return self._block[t]
        return self._build(t, t + 1, acts)[0]

    def _build(self, lo: int, hi: int, acts: np.ndarray | None = None) -> list[tuple]:
        """_data of every activity at each epoch lo..hi - 1, or of acts at epoch lo.

        At an epoch whose schedule holds a 0 or 1 (_distinct_rows) each
        distinct row that the activities use is contracted once, and within
        it only the types with 0 < p < 1; elsewhere every type of every
        activity is.  The binomial matrices of all rows come from one numpy
        evaluation per type size, the linear reward rows from one product
        per block of activities, and D_m phi from one einsum per type.
        Kept data (acts None) is read-only.
        """
        A = self.num_activities
        epochs = range(lo, hi)
        heads, ps = [], []  # per epoch (gather, rows, whether rows are distinct) and rows' p
        for t in epochs:
            distinct = self._distinct.get(t)
            if distinct is None:
                gather, pt = None, self.schedule[t] if acts is None else self.schedule[t, acts]
            else:
                row, first = distinct
                if acts is None:
                    gather = row if len(first) < A else None
                else:
                    row = row[acts]
                    used = np.flatnonzero(np.bincount(row))
                    first, gather = first[used], np.searchsorted(used, row)
                pt = self.schedule[t, first]
            heads.append((gather, len(pt), distinct is not None))
            ps.append(pt)
        p = ps[0] if len(ps) == 1 else np.concatenate(ps)
        sizes = [u for _, u, _ in heads]
        starts = list(itertools.accumulate(sizes, initial=0))
        sparse = np.repeat([d for *_, d in heads], sizes)[:, None]
        cut = ((p > 0) & (p < 1)) | ~sparse  # every type of a row that is not distinct
        one = (p == 1) & sparse
        mats = self._matrices(p)
        if self.weights is not None:
            every = np.arange(A) if acts is None else acts
            rewards, = _read_only(self._linear_reward(slice(lo, hi), every))
        elif self.tabulated is not None:
            rows = [np.arange(s, s + u) if g is None else s + g
                    for s, (g, u, _) in zip(starts, heads)]
            rewards = _read_only(*map(self._tabulated_reward, epochs, [mats] * len(rows), rows))
        else:
            rewards = [None] * len(heads)
        types = self._per_type(mats, cut, one)
        if acts is not None:
            (gather, U, distinct), = heads

            def entries(m, kept):  # through map, which holds no type's entries once passed on
                if not distinct:
                    return (range(U), (), *kept)
                return (cut[:, m].nonzero()[0], one[:, m].nonzero()[0], *kept)

            return [(gather, U, map(entries, itertools.count(), types), rewards[0])]
        spans = [(s, s + u, distinct) for s, u, (*_, distinct) in zip(starts, sizes, heads)]
        # Per type, where each epoch's contracted rows start among that type's matrices.
        ends = np.cumsum(np.concatenate((np.zeros((1, len(self.dims)), int), cut)), axis=0)
        kept = []  # per type, an iterator over the epochs' entries
        for m, (mat, dphi, lift) in enumerate(types):
            c, o = zip(*(_read_only(cut[a:b, m].nonzero()[0], one[a:b, m].nonzero()[0])
                         if distinct else (range(b - a), ()) for a, b, distinct in spans))
            cuts = list(itertools.pairwise(ends[starts, m].tolist()))
            mat = [mat[a:b] for a, b in cuts]
            dphi = itertools.repeat(None) if dphi is None else [dphi[a:b] for a, b in cuts]
            kept.append(zip(c, o, mat, dphi, itertools.repeat(lift)))
        return list(zip([g for g, _, _ in heads], sizes, zip(*kept), rewards))

    def _per_type(self, mats: list[np.ndarray], cut: np.ndarray, one: np.ndarray):
        """Per type m, for rows of binomial matrices mats with 0 < p < 1 where cut:
        (B_m of those rows transposed, their D_m phi, lift), made when reached.

        On the potential route phi is rotated as _expect rotates the values,
        D_m phi(x) = sum_y B_m[x_m, y] (phi(x with x_m = y) - phi(x)) and
        lift = phi(x with x_m = 0) - phi(x), for the rows with p = 1 (None
        if one has none); elsewhere both are None.  Arrays kept for the
        block are made read-only before any view of them is taken.
        """
        S, phi = self.num_states, self.potential
        for m, n in enumerate(self.dims):
            mat = mats[m] if cut[:, m].all() else mats[m][cut[:, m]]
            if phi is None:
                yield _read_only(mat)[0].transpose(0, 2, 1), None, None
                continue
            f = phi.reshape(S // n, n)
            phi = f.T.reshape(S)
            # Yielded without a name here: a suspended generator would keep
            # this type's D_m phi alive while the next type's is made.
            yield (*_read_only(mat.transpose(0, 2, 1),
                               np.einsum("kxy,ixy->kix", mat, f[:, None, :] - f[:, :, None])),
                   _read_only(f[:, :1] - f)[0] if one[:, m].any() else None)

    def _linear_reward(self, ts: slice, acts: np.ndarray) -> np.ndarray:
        """sum_m w_m[t] p[t, a, m] x_m for t in ts and a in acts, shape (epochs, len(acts), S).

        A BLAS matrix product can round a row differently depending on how
        many rows it computes (seen from 4 types up), so each row comes from
        the product of its fixed block of _REWARD_BLOCK activities (the last
        block may be shorter), batched over the epochs and written in place.
        A Q's bits then do not depend on which activities or epochs share
        its call: a chunk, a policy's own choices, the union of several
        policies', or a block of epochs.
        """
        B, A = _REWARD_BLOCK, self.num_activities
        scaled = self.schedule[ts] * self.weights[ts, None, :]  # (epochs, A, M)
        blocks = np.flatnonzero(np.bincount(acts // B))  # the blocks acts touch, ascending
        rows = [range(j * B, min(j * B + B, A)) for j in blocks.tolist()]
        out = np.empty((len(scaled), sum(map(len, rows)), self.num_states))
        for k, r in enumerate(rows):  # block k's rows start at k * B of out
            np.matmul(scaled[:, r.start:r.stop], self._counts, out=out[:, k * B:k * B + len(r)])
        if out.shape[1] == len(acts):  # every activity of its blocks
            return out
        return out[:, np.searchsorted(blocks, acts // B) * B + acts % B]

    def _tabulated_reward(self, t: int, mats: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
        """E[g(x, x - X, t)] for the rows rows of the per-type matrices mats, shape (len(rows), S):
        g(x, x', t) * prod_m B_m[x_m, x'_m] per pair (x, x'), summed into x by one
        bincount per block of at most _CHUNK_ENTRIES // E rows.  Each bin adds its
        terms in pair order, so no row's bits depend on the rows sharing its call."""
        g, x, x_next, start = self.tabulated
        S, width = self.num_states, max(1, _CHUNK_ENTRIES // len(g))
        out = np.empty((len(rows), S))
        for lo in range(0, len(rows), width):
            r = rows[lo:lo + width, None]
            terms = np.repeat(g[None, :, t], len(r), axis=0)
            for mat, y, y_next in zip(mats, x.T, x_next.T):
                terms *= mat[r, y, y_next]
            bins = start + S * np.arange(len(r))[:, None]
            out[lo:lo + len(r)] = np.bincount(bins.ravel(), terms.ravel(),
                                              minlength=len(r) * S).reshape(-1, S)
        return out

    def _matrices(self, p: np.ndarray) -> list[np.ndarray]:
        """Per type m, B_m[a, x, y] = P(y of x left) = C(x, x - y) p^(x - y) (1 - p)^y.

        p is (rows, types).  The matrices of all types of one size come from
        one numpy evaluation, laid out (type, row, x, y) so that each type's
        batch is contiguous.
        """
        mats = [None] * len(self.dims)
        for n, types in self._sizes:
            coef, depleted, remaining = _binomial_layout(n)
            pn = p[:, types].T[:, :, None, None]
            for m, mat in zip(types, coef * pn**depleted * (1.0 - pn) ** remaining):
                mats[m] = mat
        return mats

    def _rows(self, data: tuple, v) -> np.ndarray:
        """_expect over data's rows, gathered back to its activities."""
        gather, U, types, _ = data
        w = self._expect(U, types, v)
        return w if gather is None else np.take(w, gather, axis=-2)

    def _expect(self, U: int, types, v) -> np.ndarray:
        """(K_u v)(x) = E[v(x - X)] for each of U schedule rows u and each vector of v.

        types is _data's: per type the rows with 0 < p < 1, the rows with
        p = 1, and _per_type's entries of the former.  v is (S,) or (P, S),
        or None for V = 0; the result is (U, S) or (P, U, S), a new array.

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

        With a potential the result also holds E[phi(x - X)] - phi(x),
        telescoped one type at a time: step m adds D_m phi (p = 1 rows: the
        lift), so the total is sum_m K_{M-1} ... K_{m+1} D_m phi.  Built from
        differences, the expected reward is exactly zero wherever phi is flat
        below x, where K(v + phi) - phi would leave a rounding residue.
        """
        S = self.num_states
        if v is None:
            v = np.zeros(S)
        lead = v.shape[:-1]
        w, shared = v[..., None, :], True
        types = iter(types)
        for n in self.dims:
            wr = w.reshape(lead + (-1, S // n, n))
            # After wr drops the last type's input, and by next() rather than
            # zip, which would hold the last type's entries: _data may make
            # this type's as they are reached.
            c, o, mat, dphi, lift = next(types)
            if len(c) == U:  # 0 < p < 1 in every row
                r = np.matmul(wr, mat)
                if dphi is not None:
                    r += dphi
                    dphi = None
                w = r.swapaxes(-1, -2).reshape(lead + (U, S))
            elif not len(c) + len(o):  # p = 0 in every row: B_m is the identity
                w = wr.swapaxes(-1, -2).reshape(lead + (-1, S))
                continue
            else:
                nxt = np.empty(lead + (U, n, S // n))
                nxt[...] = wr.swapaxes(-1, -2)
                if len(c):
                    r = np.matmul(wr if shared else wr[..., c, :, :], mat)
                    if dphi is not None:
                        r += dphi
                        dphi = None
                    nxt[..., c, :, :] = r.swapaxes(-1, -2)
                if len(o):
                    y = (wr if shared else wr[..., o, :, :])[..., :1]  # the x_m = 0 slice
                    nxt[..., o, :, :] = (y if lift is None else y + lift).swapaxes(-1, -2)
                w = nxt.reshape(lead + (U, S))
            shared = False
            r = None  # frees this type's product before the next type's terms are made
        return np.repeat(w, U, axis=-2) if shared else w  # p = 0 throughout: U copies of v

    def chunk_width(self, q_entries: int) -> int:
        """Activities per q call, for q_entries Q entries per activity (P * S)."""
        return max(1, _CHUNK_ENTRIES // q_entries)

    def epoch(self, t: int, v_next: np.ndarray | None, acts=None, one_step=False) -> "Epoch":
        if acts is None:
            acts = np.arange(self.num_activities)
        return Epoch(self, t, v_next, acts, one_step)

    def used(self, choice: np.ndarray) -> np.ndarray:
        """The distinct activities in choice (of any shape), ascending."""
        # np.unique would import numpy.ma, a few MB of resident memory.
        return np.flatnonzero(np.bincount(choice.ravel(), minlength=self.num_activities))


def _pair_rewards(rew: GeneralTabulatedReward, caps: tuple[int, ...], T: int) -> tuple:
    """(g[pair, t] for t < T, x and x' of each pair, state index of each x).

    The constructor has found the rows with t < T complete, so they are the
    pair layout's T * E (pair, t) in order, and their values are g as
    stored.
    """
    M, E = len(caps), pair_count(caps)
    keep = np.flatnonzero(rew.keys[:, 2 * M] < T)  # rows, not a copy of the keys
    pairs = rew.keys[keep[::T]]
    x = pairs[:, :M]
    return rew.values[keep].reshape(E, T), x, pairs[:, M:2 * M], x @ mixed_radix_radices(caps)


@functools.cache
def _binomial_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient, depleted-count and remaining-count grids of an n x n binomial
    matrix, read-only since every operator shares them."""
    x = np.arange(n)[:, None]
    y = np.arange(n)[None, :]
    coef = np.array(
        [[float(math.comb(i, i - j)) if j <= i else 0.0 for j in range(n)] for i in range(n)]
    )
    grids = coef, np.maximum(x - y, 0), y
    for grid in grids:
        grid.flags.writeable = False
    return grids


def _distinct_rows(schedule: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{t: (row, first)} for each epoch t whose schedule holds a 0 or a 1.

    row[a] numbers activity a's schedule row among the epoch's distinct
    rows, in order of first appearance, and first[u] is the lowest activity
    whose row is u; both read-only.  Epochs with no 0 and no 1 are left out:
    no type can be skipped there, so every type of every activity is
    contracted (a schedule without any is not passed here: the operator's
    probability check has its minimum and maximum already).  Rows are
    told apart by their bytes in a dict: numpy's sorts would fault in
    several hundred KB of their code, which peak RSS counts.
    """
    M = schedule.shape[2]
    out = {}
    for t in np.flatnonzero(((schedule == 0) | (schedule == 1)).any(axis=(1, 2))).tolist():
        keys = schedule[t].view(np.dtype((np.void, 8 * M)))[:, 0].tolist()
        number, first = {}, []
        for a, key in enumerate(keys):
            if key not in number:
                number[key] = len(first)
                first.append(a)
        row, first = np.array([number[key] for key in keys]), np.array(first)
        row.flags.writeable = first.flags.writeable = False
        out[t] = (row, first)
    return out


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: they are kept and shared."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _pick(q: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """q[..., pos[..., s], s] for every state s: Q at the activity positions pos."""
    lead = (np.arange(len(pos))[:, None],) if pos.ndim == 2 else ()
    return q[lead + (pos, np.arange(pos.shape[-1]))]


class Epoch:
    """Q at one epoch for a sorted array of activities, produced chunk by chunk.

    v_next is None (V = 0), one value vector (S,) or a stack (P, S), and
    one_step=True adds the Q of V = 0 as row P (BellmanOperator.q); every
    per-state result has the shape of Q's rows, (S,) or (P[+1], S), and
    rows() gives a view of some of them.  Iterating yields (activities, q)
    pairs.  A chunk holds as many activities as keep its working set within
    _CHUNK_ENTRIES entries (BellmanOperator.chunk_width), and at least one;
    on a small table one chunk holds every activity, and each read is then
    one numpy reduction or gather over its q.  Each chunk's q is computed
    once and reused by every later pass, and by every view, while the kept
    chunks fit _Q_BUDGET; a chunk past the budget is recomputed on each pass.
    """

    def __init__(self, op: BellmanOperator, t: int, v_next, acts: np.ndarray,
                 one_step: bool = False):
        S = op.num_states
        self.shape = (S,) if v_next is None or v_next.ndim == 1 else (len(v_next) + one_step, S)
        per_activity = math.prod(self.shape)  # Q entries
        width = op.chunk_width(per_activity)
        chunks = [acts[i:i + width] for i in range(0, len(acts), width)]
        fit = _Q_BUDGET // (8 * per_activity)  # activities whose Q fits the budget
        keep = max(1, len(chunks) if len(acts) <= fit else fit // width)
        # Shared by every view: what q needs, the chunks, and the q kept so far.
        self._source = (op, t, v_next, one_step, chunks, keep, [])
        self._rows = self._best = None

    def rows(self, sel) -> "Epoch":
        """A view of Q's stack rows sel (an index or a slice) that shares this epoch's chunks."""
        view = Epoch.__new__(Epoch)
        shape = self.shape[1:]
        if isinstance(sel, slice):
            shape = (len(range(self.shape[0])[sel]),) + shape
        view.shape, view._source, view._rows, view._best = shape, self._source, sel, None
        return view

    def __iter__(self):
        op, t, v_next, one_step, chunks, keep, kept = self._source
        for k, acts in enumerate(chunks):
            if k < len(kept):
                q = kept[k]
            else:
                q = op.q(t, v_next, acts, one_step)
                if k < keep:
                    kept.append(q)
            yield acts, q if self._rows is None else q[self._rows]

    def best(self, key: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Per-state maximum over activities of q, or of key(q).

        The maximum of q itself is kept, read-only, so the one-step rules
        that read one view (myopic, approx) reduce its Q once.
        """
        if key is None and self._best is not None:
            return self._best
        best = None
        for _, q in self:
            top = np.maximum.reduce(q if key is None else key(q), axis=-2)
            best = top if best is None else np.maximum(best, top)
        if key is None:
            best.flags.writeable = False
            self._best = best
        return best

    def lowest(self, cond: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Per-state lowest activity whose q satisfies cond; -1 where none does."""
        choice = None
        for acts, q in self:
            hit = cond(q)
            found = np.where(np.logical_or.reduce(hit, axis=-2), acts[hit.argmax(axis=-2)], -1)
            choice = found if choice is None else np.where(choice < 0, found, choice)
        return choice.astype(np.int32, copy=False)

    def at(self, choice: np.ndarray) -> np.ndarray:
        """Per-state q at the given activity; NaN where it is not in this epoch."""
        out = np.nan
        for acts, q in self:
            pos = np.minimum(acts.searchsorted(choice), len(acts) - 1)
            out = np.where(acts[pos] == choice, _pick(q, pos), out)
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
