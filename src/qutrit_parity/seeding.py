"""default_rng(seed).normal for many seeds at once, bit for bit, without numpy.random.

A sweep draws each repetition's pulse-angle noise from its own
numpy.random.default_rng([seed, index, rep]). Building one generator per
repetition costs more than the draws, and importing numpy.random costs a cold
process more than both, so normal_draws computes the same bytes itself from one
(R, L) uint32 array of entropy words: SeedSequence's hash (its entropy pool,
mix_entropy and generate_state) on its uint32 columns, then PCG64 (XSL-RR output)
and NumPy's ziggurat normal (random_standard_normal) on (hi, lo) uint64 limb
columns, one draw of every row at a time. The ~1.5% of draws that miss the
ziggurat's fast path finish in Python ints and libm (math.log1p, math.exp), as
NumPy's C code does. entropy builds the array: run's seed, or, for each
permutation's part of a sweep block, [seed, index] on every row and its reps as
one more column, one word each; a sweep stacks a block's parts into one array.
"""

from __future__ import annotations

import math

import numpy as np

from . import _ziggurat as zig

#: the constants of numpy.random.SeedSequence's hash and of PCG64's 128-bit
#: multiplier; NumPy keeps both streams stable across versions
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK52, _MASK64, _MASK128 = 2**32 - 1, 2**52 - 1, 2**64 - 1, 2**128 - 1
_MULT_HI, _MULT_LO = _PCG_MULT >> 64, _PCG_MULT & _MASK64


def entropy(key, reps=None) -> np.ndarray:
    """(R, L) uint32 SeedSequence entropy: the 32-bit words of each int of key
    (an int >= 0 or a list of them), least significant first and one word for
    0, on every row; then, with reps, each row's rep as one last word. A rep
    below 2**32 is one word, as a sweep's rep < MAX_REPEAT is (and its index < 6
    one word of key = [seed, index]), so row r holds the words of [*key, reps[r]]."""
    words = np.array([value >> shift & _MASK32 for value in ([key] if isinstance(key, int) else key)
                      for shift in range(0, max(value.bit_length(), 1), 32)], np.uint32)
    if reps is None:
        return words[None]
    return np.column_stack((np.broadcast_to(words, (len(reps), len(words))),
                            np.asarray(reps, np.uint32)))


def normal_draws(entropy: np.ndarray, sigma: float, k: int) -> np.ndarray:
    """(R, k) draws whose row r is default_rng(SeedSequence(entropy[r])).normal(0,
    sigma, k), in one pass of _pcg64_states and _standard_normal."""
    out = _standard_normal(*_pcg64_states(entropy), k)
    out *= sigma
    out += 0.0  # Generator.normal's loc + scale * z, which turns -0.0 into 0.0
    return out


def _pcg64_states(entropy: np.ndarray) -> tuple:
    """The PCG64(SeedSequence(words)) state of each row of words in the (R, L)
    uint32 array entropy, as uint64 columns (state hi, state lo, inc hi, inc
    lo): SeedSequence's mix_entropy into a pool of 4 words and
    generate_state(4, uint64), on uint32 columns, then PCG64's seeding step
    (s + inc)·mult + inc."""
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
    s_hi, s_lo, i_hi, i_lo = (state[j] | state[j + 1] << 32 for j in (0, 2, 4, 6))
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = s_lo + inc_lo
    return (*_step(s_hi + inc_hi + (lo < s_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _step(hi, lo, inc_hi, inc_lo) -> tuple:
    """PCG64's step state·mult + inc mod 2^128 on (hi, lo) uint64 columns; the
    high word of lo·mult_lo is built from 32-bit halves (array products wrap)."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _MULT_LO & _MASK32, _MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    product = lo * _MULT_LO
    new_lo = product + inc_lo
    new_hi = carry + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < product)
    return new_hi, new_lo


def _standard_normal(hi, lo, inc_hi, inc_lo, k: int) -> np.ndarray:
    """(R, k) draws of NumPy's random_standard_normal, row r from the PCG64
    state and increment in row r of the uint64 columns. Each draw of every row
    takes one step and the XSL-RR output rotr64(hi ^ lo, hi >> 58), whose low
    byte picks the ziggurat layer, its next bit the sign and the 52 above it
    the magnitude; the rows that miss the layer's box finish in _finish."""
    out = np.empty((len(hi), k))
    for j in range(k):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        value, rot = hi ^ lo, hi >> 58
        bits = value >> rot | value << (64 - rot & 63)
        layer = (bits & 0xFF).astype(np.intp)
        rabs = bits >> 9 & _MASK52
        x = rabs * zig.WI[layer]
        # in place on a contiguous column: numpy 2.4 mis-writes a strided
        # out= that is its own input when where= is given
        np.negative(x, out=x, where=(bits & 0x100).astype(bool))
        missed = np.flatnonzero(rabs >= zig.KI[layer])
        for i, *row in zip(missed.tolist(), *(a[missed].tolist()
                                              for a in (hi, lo, inc_hi, inc_lo, bits))):
            x[i], state = _finish(*row)
            hi[i], lo[i] = state >> 64, state & _MASK64
        out[:, j] = x
    return out


def _finish(hi: int, lo: int, inc_hi: int, inc_lo: int, bits: int) -> tuple:
    """(z, state after it) of a draw whose uint64 bits missed the fast path,
    on Python ints: layer 0 samples the tail past zig.R with two uniforms, any
    other layer accepts x if a uniform under its wedge falls below the
    density; a rejected draw takes a new uint64."""
    state, inc = hi << 64 | lo, inc_hi << 64 | inc_lo

    def next64():
        nonlocal state
        state = (state * _PCG_MULT + inc) & _MASK128
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def next_double():
        return (next64() >> 11) * 2.0**-53

    while True:
        layer, rabs = bits & 0xFF, bits >> 9 & _MASK52
        x = -(rabs * zig.WI[layer]) if bits & 0x100 else rabs * zig.WI[layer]
        if rabs < zig.KI[layer]:
            return x, state
        if layer == 0:
            while True:
                xx = -zig.INV_R * math.log1p(-next_double())
                yy = -math.log1p(-next_double())
                if yy + yy > xx * xx:
                    return (-(zig.R + xx) if rabs >> 8 & 1 else zig.R + xx), state
        wedge = (zig.FI[layer - 1] - zig.FI[layer]) * next_double() + zig.FI[layer]
        if wedge < math.exp(-0.5 * x * x):
            return x, state
        bits = next64()
