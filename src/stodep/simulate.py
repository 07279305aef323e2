"""Monte Carlo episode simulation and statistical policy evaluation.

An episode draws from np.random.default_rng(seed)'s stream: per epoch the
policy's choice, then one binomial draw per type with items left and a
nonzero probability, in type order.  That is the stream of one draw per type
with items left, because numpy's binomial draws nothing at p = 0.  The policy
is asked once per distinct (state, epoch) of a call and its choice reused, so
select must be a pure function of (state, instance), as the Policy contract
says.  The generator is default_rng(seed)'s, built without its
SeedSequence: PCG64 seeds itself from the four words SeedSequence(seed) would
generate, and _seed_words computes those for a block's seeds at once.

A rollout runs a block of episodes together, epoch by epoch, as arrays: a
call's episodes, _BLOCK at a time, or fewer where their arrays would pass
_BLOCK_CELLS (_block_size).  Each episode reads T * M raw words of its
PCG64 at once and turns each into a double as numpy's next_double does.
A draw is numpy's own inversion walk (random_binomial in numpy's
distributions.c) over those doubles, its steps tabulated once per (p, n)
pair in Python floats (_Inversion); an inversion draw reads exactly one
word.  A draw the walk
cannot finish, in numpy's BTPE regime (n * min(p, 1 - p) > 30) or where
it reaches numpy's bound, is made by Generator.binomial itself on the
episode's PCG64 advanced to that draw's word, as are the episode's later
draws in that epoch; its later words come from that generator.  So every
draw is the one default_rng(seed).binomial makes, bit for bit.  A block
reads its rewards with one Bellman operator call.

Reproducibility contract: replication k of a Monte Carlo run uses the seed
mix64(master_seed, k), where mix64 is a splitmix64-style avalanche of
master_seed + (k + 1) * 0x9E3779B97F4A7C15 (mod 2^64).  Per-replication totals
are stored by replication index and combined with math.fsum, so results do not
depend on evaluation order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from .dp import BellmanOperator, bellman_operator, mixed_radix_radices, state_index
from .errors import ConfigError, DomainError
from .model import Instance, State, _require_state

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Episodes per rollout (_block_size).  Per episode, blocks of 256 took 6-30%
# longer than blocks of 1024 on the benchmark's instances, and blocks of 4096
# or 20000 from 25% less to 40% more, holding 3-15 times the memory.
_BLOCK = 1024
# Float64 cells a block's arrays may hold, 8 MiB: fewer episodes where an
# instance's horizon or types would pass it.
_BLOCK_CELLS = 1 << 20

# _Inversion.row of a (p, n) pair not yet tabulated; -1 is a pair that draws nothing.
_UNBUILT = -2

# numpy's next_double: a raw word's top 53 bits times 2^-53.
_DOUBLE = 1.0 / 9007199254740992.0

# numpy/random/bit_generator.pyx: SeedSequence's hashmix and mix constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def mix64(seed: int, k: int) -> int:
    """Deterministic 64-bit avalanche mix of a seed and an index."""
    z = (seed + (k + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hash_consts(init: int, mult: int):
    """SeedSequence's hash constant after each step: init * mult^k mod 2^32, k = 1, 2, ..."""
    while True:
        init = init * mult & 0xFFFFFFFF
        yield np.uint32(init)


def _seed_words(seeds) -> np.ndarray:
    """(n, 4) C-contiguous uint64: row k is SeedSequence(seeds[k]).generate_state(4, np.uint64).

    numpy's SeedSequence algorithm in uint32 array arithmetic, one pass for
    all seeds, each an integer in [0, 2^64).  Its entropy words are [lo, hi]:
    a seed below 2^32 has just [lo], but the pool pads with hashmix(0), which
    is what a hi of 0 gives.
    """
    s = np.array(seeds, dtype=np.uint64)
    shift = np.uint32(16)
    hash_a = _hash_consts(_INIT_A, _MULT_A)
    factor = np.uint32(_INIT_A)

    def hashmix(value):
        nonlocal factor
        value = value ^ factor
        factor = next(hash_a)
        value *= factor
        return value ^ (value >> shift)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> shift)

    zero = np.zeros(len(s), dtype=np.uint32)
    pool = [hashmix(word) for word in
            (s.astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state: 8 uint32 words, read as 4 little-endian uint64s
    hash_b, factor = _hash_consts(_INIT_B, _MULT_B), np.uint32(_INIT_B)
    out = np.empty((len(s), 8), dtype="<u4")
    for i in range(8):
        word = pool[i % 4] ^ factor
        factor = next(hash_b)
        word *= factor
        out[:, i] = word ^ (word >> shift)
    return out.view("<u8").astype(np.uint64, copy=False)


def _require_seed(seed) -> int:
    """seed as an int, refused unless it is an integer in [0, 2^64)."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"an episode seed must be an integer in [0, 2**64), not {seed}")
    return seed


@functools.cache
def _generator_parts():
    """numpy.random's Generator and PCG64, and a seed sequence that hands
    PCG64 one row of _seed_words, so Generator(PCG64(SeedWords(row))) is
    default_rng(seed).  Made on first use: `import stodep` does not load
    numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words  # PCG64 reads its data pointer: 4 contiguous uint64

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("SeedWords holds 4 uint64 words for PCG64 only")
            return self.words

    return Generator, PCG64, SeedWords


@dataclass
class EpisodeStep:
    state: State
    activity: int
    outcome: tuple[int, ...]
    reward: float

    def to_dict(self) -> dict:
        return {
            "items": list(self.state.items),
            "t": self.state.epoch,
            "activity": self.activity,
            "outcome": list(self.outcome),
            "reward": self.reward,
        }


@dataclass
class EpisodeTrace:
    """One realized trajectory; per-step rewards sum exactly to total_reward."""

    steps: list[EpisodeStep]
    total_reward: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "total_reward": self.total_reward,
            "steps": [s.to_dict() for s in self.steps],
        }


@dataclass
class EvalSummary:
    mean: float
    stddev: float
    n_reps: int
    std_error: float
    master_seed: int
    policy_name: str

    def to_dict(self) -> dict:
        return asdict(self)


def _inversion_steps(n: int, p: float) -> list[float]:
    """px_0 .. px_last of numpy's inversion walk for n items at probability p.

    As random_binomial and random_binomial_inversion in numpy's
    distributions.c compute them, in the same floating-point operations: the
    walk runs at min(p, 1 - p), and [] where numpy uses BTPE instead,
    n * min(p, 1 - p) > 30.  numpy restarts a walk past its bound,
    min(n, mean + 10 sqrt(mean q + 1)) rounded down, whose last operations a
    C compiler may fuse into one rounding.  So the steps stop short of any
    X that rounding could move past the bound: at n where the expression is
    n + 1 or more, one below the bound otherwise.  A walk past the last
    step, a draw about 9 standard deviations above its mean or more, is
    left to numpy.
    """
    if p > 0.5:
        p = 1.0 - p  # numpy returns n - X for X ~ Binomial(n, 1 - p)
    if p * n > 30.0:
        return []
    q = 1.0 - p
    px = math.exp(n * math.log(q))
    mean = n * p
    last = min(n, int(mean + 10.0 * math.sqrt(mean * q + 1)) - 1)
    steps = [px]
    for x in range(1, last + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        steps.append(px)
    return steps


class _Inversion:
    """numpy's binomial draws for an instance, tabulated per (p, n) pair.

    pid[t, a, m] numbers schedule[t, a, m] among the schedule's distinct
    values.  row[pid, n] is the pair's row of table, -1 where nothing is
    drawn (n = 0 or p = 0), _UNBUILT until a rollout first meets the pair.
    A row holds _inversion_steps, then -inf, and flip[row] says p > 0.5.
    Kept on the instance (_inversion), so each pair is tabulated once.
    """

    def __init__(self, instance: Instance):
        values, pid = np.unique(instance.schedule, return_inverse=True)
        self.p = values.tolist()
        self.pid = pid.reshape(instance.schedule.shape)
        self.row = np.full((len(values), max(instance.initial_items) + 1), _UNBUILT)
        self.row[:, 0] = -1
        self.row[values == 0.0] = -1
        self.table = np.empty((0, 1))
        self.flip = np.empty(0, dtype=bool)

    def rows(self, pid: np.ndarray, n: np.ndarray) -> np.ndarray:
        """The rows of the (pid, n) pairs, tabulating those not met before."""
        rows = self.row[pid, n]
        missing = rows == _UNBUILT
        if missing.any():
            pairs = sorted(set(zip(pid[missing].tolist(), n[missing].tolist())))
            steps = [_inversion_steps(count, self.p[k]) for k, count in pairs]
            width = max(self.table.shape[1], *map(len, steps))
            table = np.full((len(self.table) + len(pairs), width), -np.inf)
            table[:len(self.table), :self.table.shape[1]] = self.table
            for r, ((k, count), s) in enumerate(zip(pairs, steps), start=len(self.table)):
                self.row[k, count] = r
                table[r, :len(s)] = s
            self.table = table
            self.flip = np.concatenate([self.flip, [self.p[k] > 0.5 for k, _ in pairs]])
            rows = self.row[pid, n]
        return rows


def _inversion(instance: Instance) -> _Inversion:
    """The instance's _Inversion, kept in its __dict__ as bellman_operator keeps the operator."""
    cache = vars(instance)
    inversion = cache.get("_inversion")
    if inversion is None:
        inversion = cache["_inversion"] = _Inversion(instance)
    return inversion


def _walk(u: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """numpy's inversion walk for each uniform in u along its row of steps.

    The walk stops at the first X where u, less px_0 .. px_(X-1) subtracted
    one at a time, is at most px_X; X is -1 where the steps run out first
    (at numpy's bound, or in its BTPE regime: a row of -inf).
    """
    left = np.subtract.accumulate(np.column_stack([u, steps[:, :-1]]), axis=1)
    stop = left <= steps
    return np.where(stop.any(axis=1), stop.argmax(axis=1), -1)


def _rollout(instance: Instance, policy, words: np.ndarray, op: BellmanOperator, choices):
    """Roll out one episode per row of seed words (_seed_words) from the
    initial items, all together, epoch by epoch; op is the instance's operator.

    choices holds one dict per epoch, state index -> activity, that the
    caller keeps across calls: the policy is asked once per distinct
    (state, epoch), and its choice range-checked then.  Returns the state
    indices, (episodes, T + 1), the activities and the rewards, each
    (episodes, T), and the totals.  Only the initial items are
    range-checked: from them a rollout reaches no state outside the
    capacities.
    """
    T, x0, E = instance.horizon, instance.initial_items, len(words)
    _require_state(instance, x0, 0)
    Generator, PCG64, SeedWords = _generator_parts()
    width = T * instance.num_types  # an inversion draw reads one word
    raw = np.empty((E, width), dtype=np.uint64)
    for e, row in enumerate(words):
        raw[e] = PCG64(SeedWords(row)).random_raw(width)
    raw >>= np.uint64(11)
    uniforms = raw * _DOUBLE  # numpy's next_double
    del raw
    inversion = _inversion(instance)
    radices = np.array(mixed_radix_radices(instance.capacities))
    items = np.tile(np.array(x0, dtype=np.intp), (E, 1))
    index = np.empty((E, T + 1), dtype=np.intp)
    index[:, 0] = state_index(x0, radices)
    activities = np.empty((E, T), dtype=np.intp)
    read = np.zeros(E, dtype=np.intp)  # words each episode's draws have read
    resume = {}  # episode -> (PCG64 state, word) where a fallback left its stream

    def bits_at(k: int, word: int):
        """Episode k's bit generator, at its stream's word."""
        bits = PCG64(SeedWords(words[k]))
        state, at = resume.get(k, (None, 0))
        if state is not None:
            bits.state = state
        return bits.advance(word - at)

    for t, memo in enumerate(choices):
        states, inverse = np.unique(index[:, t], return_inverse=True)
        chosen = []
        for i in states.tolist():
            activity = memo.get(i)
            if activity is None:
                activity = operator.index(policy.select(State(tuple(op.items[i].tolist()), t),
                                                        instance))
                if not 0 <= activity < instance.num_activities:
                    raise DomainError(f"activity index {activity} out of range")
                memo[i] = activity
            chosen.append(activity)
        activities[:, t] = np.array(chosen)[inverse]
        pid = inversion.pid[t][activities[:, t]]
        rows = inversion.rows(pid, items)
        drawn = rows >= 0
        e, m = np.nonzero(drawn)  # by episode, then in type order: each stream's order
        at = (read[:, None] + np.cumsum(drawn, axis=1) - 1)[e, m]
        r = rows[e, m]
        x = _walk(uniforms[e, at], inversion.table[r])
        n = items[e, m]
        redo = np.flatnonzero(x < 0)
        x = np.where(inversion.flip[r], n - x, x)
        # A draw the walk cannot finish, and the episode's later draws this
        # epoch, are numpy's own, on the episode's stream at that draw's word.
        for k in dict.fromkeys(e[redo].tolist()):
            first = redo[np.searchsorted(e[redo], k)]
            last = np.searchsorted(e, k, side="right")
            bits = bits_at(k, int(at[first]))
            binomial = Generator(bits).binomial
            for d in range(first, last):
                x[d] = binomial(n[d], inversion.p[pid[k, m[d]]])
            resume[k] = bits.state, int(at[last - 1]) + 1
            uniforms[k, at[last - 1] + 1:] = (bits.random_raw(width - at[last - 1] - 1)
                                              >> np.uint64(11)) * _DOUBLE
        read += drawn.sum(axis=1)
        depleted = np.zeros_like(items)
        depleted[e, m] = x
        items -= depleted
        index[:, t + 1] = index[:, t] - depleted @ radices
    g = op.rewards(index[:, :-1], index[:, 1:], np.arange(T))
    totals = np.zeros(E)
    for t in range(T):  # epoch by epoch from 0.0, as a running sum adds them
        totals += g[:, t]
    return index, activities, g, totals.tolist()


def _block_size(instance: Instance) -> int:
    """Episodes per rollout: _BLOCK, or as many as keep a block's arrays within _BLOCK_CELLS.

    An episode holds T * M uniforms, T + 1 states and T activities, then
    BellmanOperator.rewards' items before and after each step, their
    difference and T rewards: (4M + 3) T + 1 cells.  Each epoch's walk holds
    three rows of at most c + 1 steps per type, c the most items a type
    starts with.
    """
    T, M = instance.horizon, instance.num_types
    cells = (4 * M + 3) * T + 1 + 3 * M * (max(instance.initial_items) + 1)
    return max(1, min(_BLOCK, _BLOCK_CELLS // cells))


def _episodes(instance: Instance, policy, seeds: Iterable[int],
              op: BellmanOperator) -> Iterator[EpisodeTrace]:
    """The trace of each seed's episode, in seed order, _block_size at a time."""
    T, seeds, size = instance.horizon, map(_require_seed, seeds), _block_size(instance)
    choices = [{} for _ in range(T)]
    while block := list(itertools.islice(seeds, size)):
        index, chosen, g, totals = _rollout(instance, policy, _seed_words(block), op, choices)
        for k, seed in enumerate(block):  # as lists an episode at a time: a block is large
            path, acts, earned = op.items[index[k]].tolist(), chosen[k].tolist(), g[k].tolist()
            steps = [EpisodeStep(State(tuple(x), t), acts[t],
                                 tuple(u - v for u, v in zip(x, path[t + 1])), earned[t])
                     for t, x in enumerate(path[:-1])]
            yield EpisodeTrace(steps, totals[k], seed)


def simulate_episode(instance: Instance, policy, seed: int) -> EpisodeTrace:
    """Roll out one episode from the initial items under the given policy.

    Bit-reproducible per (instance, policy, seed) on a platform.  A block of
    one (_episodes).
    """
    return next(_episodes(instance, policy, [seed], bellman_operator(instance)))


def summarize_totals(totals, master_seed: int, policy_name: str) -> EvalSummary:
    """Mean/sample-stddev summary of per-replication totals in index order.

    ConfigError names the statistic whose sum overflows a double.
    """
    n = len(totals)
    if n < 1:
        raise ValueError("at least one replication is required")
    statistic, stddev = "mean", 0.0
    try:
        mean = math.fsum(totals) / n
        statistic = "variance"
        if n > 1:
            stddev = math.sqrt(math.fsum((v - mean) ** 2 for v in totals) / (n - 1))
    except OverflowError:
        raise ConfigError(f"the {statistic} of the episode totals overflows a double") from None
    return EvalSummary(
        mean=mean,
        stddev=stddev,
        n_reps=n,
        std_error=stddev / math.sqrt(n),
        master_seed=master_seed,
        policy_name=policy_name,
    )


def monte_carlo_value(
    instance: Instance, policy, n_reps: int, master_seed: int
) -> EvalSummary:
    """Sample mean of the episode total over n_reps seeded replications."""
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    op, totals, size = bellman_operator(instance), [], _block_size(instance)
    choices = [{} for _ in range(instance.horizon)]
    for start in range(0, n_reps, size):
        stop = min(start + size, n_reps)
        words = _seed_words(np.fromiter((mix64(master_seed, k) for k in range(start, stop)),
                                        dtype=np.uint64, count=stop - start))
        totals += _rollout(instance, policy, words, op, choices)[3]
    return summarize_totals(totals, master_seed, getattr(policy, "name", str(policy)))
