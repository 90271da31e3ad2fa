"""default_rng(seed).normal for many seeds at once, bit for bit.

A sweep draws each repetition's pulse-angle noise from its own
numpy.random.default_rng([seed, index, rep]). Building one generator per
repetition costs more than the draws, so normal_draws runs SeedSequence's
hash (its entropy pool, mix_entropy and generate_state) on uint32 columns for
every seed at once, then sets one PCG64 to each seed's state in turn and
draws from it with Generator.normal.
"""

from __future__ import annotations

import numpy as np

#: the constants of numpy.random.SeedSequence's hash and of PCG64's 128-bit
#: multiplier; NumPy keeps both streams stable across versions
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def normal_draws(seeds, sigma: float, k: int) -> np.ndarray:
    """(R, k) draws whose row r is default_rng(seeds[r]).normal(0, sigma, k),
    for seeds that are ints >= 0 or lists of them. The rows with as many
    entropy words share one pass of _pcg64_states."""
    words = [_entropy_words(seed) for seed in seeds]
    out = np.empty((len(seeds), k))
    bitgen = np.random.PCG64(0)
    normal = np.random.Generator(bitgen).normal
    for length in set(map(len, words)):
        rows = [r for r, w in enumerate(words) if len(w) == length]
        for r, state in zip(rows, _pcg64_states(np.array([words[r] for r in rows], np.uint32))):
            bitgen.state = state
            out[r] = normal(0.0, sigma, k)
    return out


def _entropy_words(seed) -> list:
    """SeedSequence's uint32 entropy words of an int >= 0 or a list of them:
    each int's 32-bit words, least significant first (one word for 0)."""
    words = []
    for value in [seed] if isinstance(seed, int) else seed:
        words.append(value & _MASK32)
        while (value := value >> 32) > 0:
            words.append(value & _MASK32)
    return words


def _pcg64_states(entropy: np.ndarray):
    """Yield the PCG64(SeedSequence(words)).state of each row of words in the
    (R, L) uint32 array entropy: SeedSequence's mix_entropy into a pool of 4
    words and generate_state(4, uint64), on uint32 columns, then PCG64's
    seeding steps on Python ints, one row's state dict at a time."""
    const = _HASH_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    words = list(entropy.T)
    zero = np.zeros(len(entropy), np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # entropy past the pool's 4 words
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _HASH_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append((value ^ value >> 16).astype(np.uint64))
    for s0, s1, i0, i1 in zip(*[(state[j] | state[j + 1] << 32).tolist() for j in (0, 2, 4, 6)]):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        seeded = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": seeded, "inc": inc},
               "has_uint32": 0, "uinteger": 0}
