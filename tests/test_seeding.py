import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qutrit_parity import seeding


def _draws(seeds, sigma, k):
    """normal_draws of each seed (an int or a list of them) in a call of its own,
    stacked: what default_rng(seed).normal gives seed by seed."""
    return np.concatenate([seeding.normal_draws(seeding.entropy(s), sigma, k) for s in seeds])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 10**30])
def test_one_pass_draws_equal_default_rng(seed):
    """normal_draws seeds every row of a sweep block in one pass, yet each row
    is the bytes of default_rng(its seed).normal: sweep seeds [seed, index,
    rep] at every index, with reps 0, 1 and 99 999 (seeds of 4 words or more
    take SeedSequence's loop past its pool), run's bare int seeds, and K = 1."""
    reps = (0, 1, 99_999)
    for k, sigma in ((57, 5.0), (1, 20.0)):
        expected = [np.random.default_rng([seed, index, rep]).normal(0.0, sigma, k)
                    for index in range(6) for rep in reps]
        drawn = [seeding.normal_draws(seeding.entropy([seed, index], reps), sigma, k)
                 for index in range(6)]
        assert np.concatenate(drawn).tobytes() == np.array(expected).tobytes()
        expected = [np.random.default_rng(s).normal(0.0, sigma, k) for s in (seed, seed + 1)]
        assert _draws([seed, seed + 1], sigma, k).tobytes() == np.array(expected).tobytes()


def test_entropy_rows_are_the_words_of_key_and_rep():
    """A block's row r is the SeedSequence entropy of [*key, reps[r]]: each
    int's 32-bit words, least significant first, one word for 0."""
    assert seeding.entropy(0).tolist() == [[0]]
    assert seeding.entropy(2**64).tolist() == [[0, 0, 1]]
    assert seeding.entropy([2**32 + 5, 0], range(2, 4)).tolist() == [[5, 1, 0, 2], [5, 1, 0, 3]]
    assert seeding.entropy([1, 5], [99_999]).dtype == np.uint32


def test_each_entropy_length_equals_default_rng():
    """Seeds of 1 to 4 entropy words, ints and lists, each in a call of its own."""
    seeds = [2**64, [1, 2, 3], 0, [2**70, 5], 7, [0]]
    expected = [np.random.default_rng(s).normal(0.0, 3.0, 4) for s in seeds]
    assert _draws(seeds, 3.0, 4).tobytes() == np.array(expected).tobytes()


def test_draws_hold_no_state_dict_per_row():
    """The entropy is one (R, 3) uint32 array, the PCG64 states four uint64
    columns and the draws one float64 column at a time, so the traced peak of
    building one permutation's entropy and drawing from it in a
    5000-repetition sweep, K = 10, stays below 400 B per row (~290; built
    from one Python list per row, split into words, it was ~640, and a list
    of every row's state dict took ~970)."""
    def draw(reps):
        return seeding.normal_draws(seeding.entropy([1, 0], reps), 5.0, 10)

    draw(range(2))  # first-call allocations aside
    tracemalloc.start()
    try:
        draw(range(5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 5000 < 400


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
        seeding.normal_draws(seeding.entropy(seed), 5.0, k)
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
    assert _draws(seeds, 5.0, 8).tobytes() == np.array(expected).tobytes()


def test_a_million_draws_equal_default_rng():
    """20 000 sweep seeds x K = 57: 1.14 M draws, ~320 of them down the tail
    and ~17 000 past the fast path, byte for byte."""
    seeds = [[2, index, rep] for index in range(5) for rep in range(4000)]
    expected = np.empty((len(seeds), 57))
    for row, seed in zip(expected, seeds):
        row[:] = np.random.default_rng(seed).normal(0.0, 5.0, 57)
    drawn = [seeding.normal_draws(seeding.entropy([2, index], range(4000)), 5.0, 57)
             for index in range(5)]
    assert np.concatenate(drawn).tobytes() == expected.tobytes()


@pytest.mark.skipif(not (Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a").exists(),
                    reason="this NumPy installs no libnpyrandom.a to read its tables from")
def test_ziggurat_tables_match_the_installed_numpy():
    """tools/ziggurat_tables.py --check: _ziggurat.py holds the installed
    NumPy's own ki_double, wi_double and fi_double, bit for bit."""
    tool = Path(__file__).parent.parent / "tools" / "ziggurat_tables.py"
    proc = subprocess.run([sys.executable, str(tool), "--check"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
