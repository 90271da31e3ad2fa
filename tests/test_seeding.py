import tracemalloc

import numpy as np
import pytest

from qutrit_parity import seeding


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 10**30])
def test_one_pass_draws_equal_default_rng(seed):
    """normal_draws seeds every row in one pass, yet each row is the bytes of
    default_rng(its seed).normal: sweep seeds [seed, index, rep] at every
    index, with reps 0, 1 and 99 999 (seeds of 4 words or more take
    SeedSequence's loop past its pool), run's bare int seeds, and K = 1."""
    seeds = ([[seed, index, rep] for index in range(6) for rep in (0, 1, 99_999)]
             + [seed, seed + 1])
    for k, sigma in ((57, 5.0), (1, 20.0)):
        expected = [np.random.default_rng(s).normal(0.0, sigma, k) for s in seeds]
        assert seeding.normal_draws(seeds, sigma, k).tobytes() == np.array(expected).tobytes()


def test_rows_keep_their_order_across_entropy_lengths():
    """Seeds of different word counts take separate passes; each row stays in its place."""
    seeds = [2**64, [1, 2, 3], 0, [2**70, 5], 7, [0]]
    expected = [np.random.default_rng(s).normal(0.0, 3.0, 4) for s in seeds]
    assert seeding.normal_draws(seeds, 3.0, 4).tobytes() == np.array(expected).tobytes()


def test_draws_hold_no_state_dict_per_row():
    """The PCG64 states are four uint64 columns and the draws one float64 column
    at a time, so the traced peak of one permutation's draws in a
    5000-repetition sweep, K = 10, stays below 700 B per row (~510, most of it
    the entropy words as Python lists; a list of every row's state dict took ~970)."""
    seeds = [[1, 0, rep] for rep in range(5000)]
    seeding.normal_draws(seeds[:2], 5.0, 10)  # first-call allocations aside
    tracemalloc.start()
    try:
        seeding.normal_draws(seeds, 5.0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(seeds) < 700


def _paths(monkeypatch, seeds, k):
    """The rare paths that each seed's draws take in _finish: "tail" (layer 0),
    "wedge accept" (one uniform, then done) or "wedge reject" (a uniform, then
    a new uint64), told apart by the PCG64 steps each call takes."""
    finish, taken = seeding._finish, []

    def spy(hi, lo, inc_hi, inc_lo, bits):
        z, state = finish(hi, lo, inc_hi, inc_lo, bits)
        start, inc, steps = hi << 64 | lo, inc_hi << 64 | inc_lo, 0
        while start != state:
            start, steps = (start * seeding._PCG_MULT + inc) % 2**128, steps + 1
        taken.append("tail" if bits & 0xFF == 0 else
                     "wedge accept" if steps == 1 else "wedge reject")
        return z, state

    monkeypatch.setattr(seeding, "_finish", spy)
    found = []
    for seed in seeds:
        taken.clear()
        seeding.normal_draws([seed], 5.0, k)
        found.append(set(taken))
    return found


#: seeds whose draws (K = 8, f1's pulses and the detection pulse) take each rare
#: path of random_standard_normal, found by scanning run seeds 0..2999 and
#: sweep seeds [1, 0, rep] for rep in 0..2999
RARE_PATHS = {
    "tail": [755, 1437, [1, 0, 164], [1, 0, 687]],
    "wedge accept": [17, 24, [1, 0, 20], [1, 0, 53]],
    "wedge reject": [6, 15, [1, 0, 4], [1, 0, 21]],
}


@pytest.mark.parametrize("path", sorted(RARE_PATHS))
def test_rare_paths_equal_default_rng(path, monkeypatch):
    """Each pinned seed's draws take the path, and each row is the bytes of
    default_rng: the tail's log1p, the wedge's exp and a redrawn uint64 match
    NumPy's C code."""
    seeds = RARE_PATHS[path]
    assert all(path in taken for taken in _paths(monkeypatch, seeds, 8))
    expected = [np.random.default_rng(s).normal(0.0, 5.0, 8) for s in seeds]
    assert seeding.normal_draws(seeds, 5.0, 8).tobytes() == np.array(expected).tobytes()


def test_a_million_draws_equal_default_rng():
    """20 000 sweep seeds x K = 57: 1.14 M draws, ~320 of them down the tail
    and ~17 000 past the fast path, byte for byte."""
    seeds = [[2, index, rep] for index in range(5) for rep in range(4000)]
    expected = np.empty((len(seeds), 57))
    for row, seed in zip(expected, seeds):
        row[:] = np.random.default_rng(seed).normal(0.0, 5.0, 57)
    assert seeding.normal_draws(seeds, 5.0, 57).tobytes() == expected.tobytes()
