"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import time

import numpy as np
import pytest

from qutrit_parity import compiler, spectro, spin
from qutrit_parity.cli import main
from qutrit_parity.core import QutritState, apply_unitary
from qutrit_parity.permutations import (
    NAMED_MAPS,
    Parity,
    compose,
    parity_by_counting,
    run_parity_algorithm,
)
from row_readout import classify_spectrum, pick_peaks

PARAMS = spin.HamiltonianParams(lambda_q=2 * np.pi * 156.0)
RELAX = spin.RelaxationParams(0.170, 0.050)


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_gate_level_parity():
    start = time.monotonic()
    for name, p in NAMED_MAPS.items():
        trace = run_parity_algorithm(p)
        assert trace.verdict is parity_by_counting(p), name
        ref = QutritState.ket(-1 if trace.verdict is Parity.EVEN else 0)
        overlap = abs(trace.final.overlap(ref)) ** 2
        assert abs(overlap - 1.0) <= 1e-12, name
    elapsed = time.monotonic() - start
    report(1, elapsed < 1.0,
           f"six verdicts match counting, overlaps 1 within 1e-12, {elapsed:.3f} s")


def test_criterion_2_odd_branch_phase_ledger():
    expected = {"f4": -2 * np.pi / 3, "f5": 0.0, "f6": 2 * np.pi / 3}
    worst = 0.0
    for name, phase in expected.items():
        trace = run_parity_algorithm(NAMED_MAPS[name])
        worst = max(worst, abs(trace.global_phase - phase))
    report(2, worst <= 1e-9,
           f"odd phases (-2pi/3, 0, +2pi/3), worst error {worst:.3e} rad")


def test_criterion_3_spectral_splitting():
    start = time.monotonic()
    from qutrit_parity.core import DensityMatrix

    deviation = DensityMatrix(np.diag([0.5, -1.0, 0.5]), "deviation")
    s = spectro.transform(
        spectro.synthesize_fid(spectro.detect(deviation, 30.0), PARAMS, RELAX))
    peaks = sorted(pick_peaks(s), key=lambda p: p.frequency)
    separation = peaks[-1].frequency - peaks[0].frequency
    elapsed = time.monotonic() - start
    ok = abs(separation - 936.0) <= s.bin_width and elapsed < 1.0
    report(3, ok, f"two-line separation {separation:.3f} Hz "
                  f"(bin {s.bin_width:.3f} Hz), {elapsed:.3f} s")


def test_criterion_4_readout_signatures():
    from qutrit_parity.core import DensityMatrix

    even = DensityMatrix(np.diag([0.5, 0.5, -1.0]), "deviation")
    odd = DensityMatrix(np.diag([0.5, -1.0, 0.5]), "deviation")

    def readout(dev):
        s = spectro.transform(
            spectro.synthesize_fid(spectro.detect(dev, 30.0), PARAMS, RELAX))
        return classify_spectrum(pick_peaks(s), PARAMS)

    r_even = readout(even)
    even_ratio = (abs(r_even.line12) / abs(r_even.line23))
    r_odd = readout(odd)
    odd_error = abs(r_odd.line12 / r_odd.line23 + 1.0)
    ok = (r_even.code == spectro.EVEN and even_ratio <= 0.01
          and r_odd.code == spectro.ODD and odd_error <= 0.02)
    report(4, ok, f"even |line12/line23| = {even_ratio:.3g}, "
                  f"odd |line12/line23 + 1| = {odd_error:.3g}")


def test_criterion_5_compiler_phase_exactness():
    start = time.monotonic()
    shipped = ("F", "Finv", "U1", "U2", "U3", "U4", "U5", "U6",
               "S12", "S23", "S13")
    worst = min(compiler.compile_gate(g).fidelity for g in shipped)
    bare = compiler.sequence_propagator(
        [spin.Pulse("transition12", 180.0, 0.0)]).entries
    bare_fid = compiler.fidelity(compiler.GATE_TARGETS["S12"], bare)

    # optimizer run included in the runtime budget
    template = compiler.SequenceTemplate(
        prototypes=(
            {"kind": "pulse", "target": "transition12", "flip_deg": 180.0,
             "phase_deg": "ph"},
            {"kind": "virtualz", "target": "level1", "flip_deg": "z1"},
            {"kind": "virtualz", "target": "level2", "flip_deg": "z2"},
        ),
    )
    optimized = compiler.optimize_sequence(template, compiler.GATE_TARGETS["S12"])
    elapsed = time.monotonic() - start
    ok = (worst >= 1 - 1e-9 and bare_fid < 0.99
          and optimized.fidelity >= 1 - 1e-9 and elapsed < 5.0)
    report(5, ok, f"worst shipped fidelity {worst:.12f}, bare-180 swap "
                  f"{bare_fid:.4f} < 0.99, optimizer {optimized.fidelity:.12f}, "
                  f"{elapsed:.3f} s")


def test_criterion_6_end_to_end_sweep(tmp_path):
    start = time.monotonic()
    out = tmp_path / "sweep"
    assert main(["sweep", "--output-dir", str(out)]) == 0
    rows = [line.split("\t") for line in
            (out / "sweep.tsv").read_text().splitlines()[1:7]]
    agreement = all(
        run_parity_algorithm(NAMED_MAPS[name]).verdict.value == verdict
        for name, _, verdict, *_ in rows)
    matches = all(row[-1] == "True" for row in rows)
    elapsed = time.monotonic() - start
    ok = agreement and matches and elapsed < 10.0
    report(6, ok, f"pulse sweep 6/6 correct, gate/pulse verdicts agree, "
                  f"{elapsed:.3f} s")


def test_criterion_7_property_suites(tmp_path):
    # unitarity / normalization, 1000 random cases
    rng = np.random.default_rng(31415)
    for _ in range(1000):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        s = apply_unitary(QutritState(a / np.linalg.norm(a)), u)
        assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) < 1e-12

    # pulse propagator unitarity / trace preservation, 1000 random cases
    for _ in range(1000):
        pl = spin.Pulse(
            ("transition12", "transition23", "nonselective")[rng.integers(0, 3)],
            float(rng.uniform(1, 360)), float(rng.uniform(0, 360)))
        u = spin.pulse_propagator(pl).entries
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-10

    # compose-parity XOR law on all 36 pairs
    for p, q in itertools.product(NAMED_MAPS.values(), repeat=2):
        assert parity_by_counting(compose(p, q)) is (
            parity_by_counting(p) ^ parity_by_counting(q))

    # seeded CLI determinism: identical config (relative output dir) twice
    import os

    a, b = tmp_path / "a", tmp_path / "b"
    cwd = os.getcwd()
    try:
        for base in (a, b):
            base.mkdir()
            os.chdir(base)
            assert main(["run", "--permutation", "f4", "--seed", "11",
                         "--noise-sigma-deg", "2", "--output-dir", "."]) == 0
    finally:
        os.chdir(cwd)
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("pulse_program.json", "fid.txt", "spectrum.txt",
                     "readout.json", "run_record.json"))
    report(7, identical, "1000-case unitarity suites, 36-pair XOR law, "
                         "byte-identical seeded CLI reruns")
