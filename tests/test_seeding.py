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
    """Each row's PCG64 state is built just before its draw, so the traced
    peak of one permutation's draws in a 5000-repetition sweep, K = 10, stays
    below 700 B per row (~520; a list of every row's state dict took ~970)."""
    seeds = [[1, 0, rep] for rep in range(5000)]
    seeding.normal_draws(seeds[:2], 5.0, 10)  # first-call allocations aside
    tracemalloc.start()
    try:
        seeding.normal_draws(seeds, 5.0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(seeds) < 700
