"""Monte Carlo episode simulation and statistical policy evaluation.

An episode draws from np.random.default_rng(seed)'s stream: per epoch the
policy's choice, then one binomial draw per type with items left and a
nonzero probability, in type order.  That is the stream of one draw per type
with items left, because numpy's binomial draws nothing at p = 0.  The policy
is asked once per distinct (state, epoch) of a call and its choice reused, so
select must be a pure function of (state, instance), as the Policy contract
says.  A block of _BLOCK episodes reads its rewards with one Bellman
operator call.  The generator is default_rng(seed)'s, built without its
SeedSequence: PCG64 seeds itself from the four words SeedSequence(seed) would
generate, and _seed_words computes those for a whole call's seeds at once
(monte_carlo_value) or a block's (simulate_episode, stodep simulate).

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

# Episodes per rollout block: one rewards read, and the paths held, per block.
_BLOCK = 64

# Replications whose seed words monte_carlo_value computes at once: memory per
# call stays bounded whatever n_reps is.
_WORDS_AT_ONCE = 1 << 14

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


def _rollout(instance: Instance, policy, words: np.ndarray, op: BellmanOperator, choices):
    """Roll out one episode per row of seed words (_seed_words) from the
    initial items; op is the instance's operator.

    choices holds one dict per epoch, state index -> (activity, draws), that
    the caller keeps across calls: the policy is asked once per distinct
    (state, epoch), and its choice range-checked then.  Returns the state
    indices, (episodes, T + 1), the activities in one list, the rewards,
    (episodes, T), and the totals.  Only the initial items are range-checked:
    from them a rollout reaches no state outside the capacities.
    """
    T, x0, draws = instance.horizon, instance.initial_items, instance._draws
    _require_state(instance, x0, 0)
    radices = mixed_radix_radices(instance.capacities)
    i0, visited, chosen = state_index(x0, radices), [], []
    Generator, PCG64, SeedWords = _generator_parts()
    for row in words:
        binomial = Generator(PCG64(SeedWords(row))).binomial
        items, i = list(x0), i0
        visited.append(i)
        for t, memo in enumerate(choices):
            step = memo.get(i)
            if step is None:
                activity = policy.select(State(tuple(items), t), instance)
                if not 0 <= activity < instance.num_activities:
                    raise DomainError(f"activity index {activity} out of range")
                step = memo[i] = (activity, draws[t][activity])
            for m, p in step[1]:  # as model.sample_depletion draws
                if v := items[m]:
                    d = int(binomial(v, p))
                    items[m] = v - d
                    i -= d * radices[m]
            visited.append(i)
            chosen.append(step[0])
    index = np.array(visited).reshape(len(words), T + 1)
    g = op.rewards(index[:, :-1], index[:, 1:], np.arange(T))
    totals = np.zeros(len(words))
    for t in range(T):  # epoch by epoch from 0.0, as a running sum adds them
        totals += g[:, t]
    return index, chosen, g, totals.tolist()


def _episodes(instance: Instance, policy, seeds: Iterable[int],
              op: BellmanOperator) -> Iterator[EpisodeTrace]:
    """The trace of each seed's episode, in seed order, rolled out _BLOCK at a time."""
    T, seeds = instance.horizon, map(_require_seed, seeds)
    choices = [{} for _ in range(T)]
    while block := list(itertools.islice(seeds, _BLOCK)):
        index, chosen, g, totals = _rollout(instance, policy, _seed_words(block), op, choices)
        for k, (path, earned) in enumerate(zip(op.items[index].tolist(), g.tolist())):
            steps = [EpisodeStep(State(tuple(x), t), chosen[k * T + t],
                                 tuple(u - v for u, v in zip(x, path[t + 1])), earned[t])
                     for t, x in enumerate(path[:-1])]
            yield EpisodeTrace(steps, totals[k], block[k])


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
    op, totals = bellman_operator(instance), []
    choices = [{} for _ in range(instance.horizon)]
    for start in range(0, n_reps, _WORDS_AT_ONCE):
        stop = min(start + _WORDS_AT_ONCE, n_reps)
        words = _seed_words(np.fromiter((mix64(master_seed, k) for k in range(start, stop)),
                                        dtype=np.uint64, count=stop - start))
        for lo in range(0, stop - start, _BLOCK):
            totals += _rollout(instance, policy, words[lo:lo + _BLOCK], op, choices)[3]
    return summarize_totals(totals, master_seed, getattr(policy, "name", str(policy)))
