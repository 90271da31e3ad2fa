import json
import math

import numpy as np
import pytest

from qutrit_parity.cli import build_pulse_program
from qutrit_parity.core import DensityMatrix, NonUnitaryError
from qutrit_parity.permutations import NAMED_MAPS
from qutrit_parity.spectro import detection_events
from qutrit_parity.spin import (
    IX,
    IY,
    IZ,
    TARGETS,
    TRANSITIONS,
    GradientEvent,
    HamiltonianParams,
    Pulse,
    RelaxationParams,
    VirtualZ,
    event_propagator,
    program_to_records,
    pseudopure_prep_events,
    pulse_flips,
    pulse_propagator,
    records_to_program,
    run_pulse_batch,
    run_pulse_program,
    thermal_deviation,
    transition_frequencies,
    with_flips,
)

LAMBDA_156 = HamiltonianParams(lambda_q=2 * np.pi * 156.0)


def hamiltonian_rotating_frame(p: HamiltonianParams) -> np.ndarray:
    """Lambda * (3 Iz^2 - I^2) in rad/s, with I^2 = I(I+1) = 2 for spin 1."""
    return p.lambda_q * (3.0 * IZ @ IZ - 2.0 * np.eye(3))


class TestSpinOperators:
    def test_commutators_cyclic(self):
        assert np.max(np.abs(IX @ IY - IY @ IX - 1j * IZ)) < 1e-12
        assert np.max(np.abs(IY @ IZ - IZ @ IY - 1j * IX)) < 1e-12
        assert np.max(np.abs(IZ @ IX - IX @ IZ - 1j * IY)) < 1e-12

    def test_iz_exact(self):
        assert np.array_equal(IZ, np.diag([1.0, 0.0, -1.0]))


class TestHamiltonian:
    def test_zero_coupling_vanishes(self):
        h = hamiltonian_rotating_frame(HamiltonianParams(lambda_q=0.0))
        assert np.array_equal(h, np.zeros((3, 3)))

    def test_diagonal_pattern(self):
        lam = LAMBDA_156.lambda_q
        h = hamiltonian_rotating_frame(LAMBDA_156)
        assert np.allclose(h, lam * np.diag([1.0, -2.0, 1.0]))

    def test_eigenvalues(self):
        lam = LAMBDA_156.lambda_q
        evals = np.sort(np.linalg.eigvalsh(hamiltonian_rotating_frame(LAMBDA_156)))
        assert np.allclose(evals, np.sort([lam, -2 * lam, lam]))


class TestTransitionFrequencies:
    def test_936_hz_splitting(self):
        nu12, nu23 = transition_frequencies(LAMBDA_156)
        assert nu12 == pytest.approx(-468.0, abs=1e-9)
        assert nu23 == pytest.approx(+468.0, abs=1e-9)

    def test_degenerate_at_zero(self):
        assert transition_frequencies(HamiltonianParams(lambda_q=0.0)) == (0.0, 0.0)

    def test_linear_in_coupling(self):
        doubled = HamiltonianParams(lambda_q=2 * LAMBDA_156.lambda_q)
        a12, a23 = transition_frequencies(LAMBDA_156)
        b12, b23 = transition_frequencies(doubled)
        assert b23 - b12 == pytest.approx(2 * (a23 - a12), rel=1e-12)

    def test_separation_identity(self):
        nu12, nu23 = transition_frequencies(LAMBDA_156)
        assert nu23 - nu12 == pytest.approx(6 * LAMBDA_156.lambda_q / (2 * np.pi),
                                            rel=1e-12)


class TestPulsePropagator:
    def test_180_on_12_sub_block(self):
        u = pulse_propagator(Pulse("transition12", 180.0, 0.0)).entries
        expected = np.array([[0, -1j, 0], [-1j, 0, 0], [0, 0, 1]])
        assert np.allclose(u, expected, atol=1e-12)

    def test_360_selective_flips_sub_block_sign(self):
        u = pulse_propagator(Pulse("transition23", 360.0, 0.0)).entries
        assert np.allclose(u, np.diag([1, -1, -1]), atol=1e-12)

    def test_pseudopure_prep(self):
        rho = run_pulse_program(thermal_deviation(), pseudopure_prep_events())
        assert np.allclose(rho.entries, np.diag([0.5, 0.5, -1.0]), atol=1e-12)
        assert rho.kind == "deviation"

    def test_nonselective_90_creates_max_coherence(self):
        u = pulse_propagator(Pulse("nonselective", 90.0, 90.0)).entries
        rho = u @ IZ @ u.conj().T
        # Iz rotated by 90 about y becomes Ix (up to sign)
        assert np.max(np.abs(np.abs(rho) - np.abs(IX))) < 1e-12

    def test_invalid_pulse_fields(self):
        with pytest.raises(ValueError):
            Pulse("transition12", 0.0, 0.0)
        with pytest.raises(ValueError):
            Pulse("transition12", 90.0, 360.0)
        with pytest.raises(ValueError):
            Pulse("somewhere", 90.0, 0.0)


def crush(rho: DensityMatrix) -> DensityMatrix:
    return run_pulse_program(rho, [GradientEvent()])


class TestGradient:
    def test_diagonal_unchanged(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        assert np.array_equal(crush(rho).entries, rho.entries)

    def test_crushes_uniform_superposition(self):
        psi = np.ones(3) / np.sqrt(3)
        rho = DensityMatrix(np.outer(psi, psi))
        out = crush(rho)
        assert np.allclose(out.entries, np.eye(3) / 3)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = m @ m.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        once = crush(rho)
        twice = crush(once)
        assert np.array_equal(once.entries, twice.entries)
        assert np.trace(once.entries) == pytest.approx(1.0)


class TestThermalDeviation:
    def test_trace_zero_and_ordering(self):
        rho = thermal_deviation()
        pops = rho.populations()
        assert np.trace(rho.entries) == 0
        assert pops[0] > pops[1] > pops[2]

    def test_commutes_with_hamiltonian(self):
        h = hamiltonian_rotating_frame(LAMBDA_156)
        rho = thermal_deviation().entries
        assert np.max(np.abs(h @ rho - rho @ h)) == 0


class TestRunPulseProgram:
    def test_empty_program(self):
        rho = thermal_deviation()
        out = run_pulse_program(rho, [])
        assert np.array_equal(out.entries, rho.entries)

    def test_trace_and_hermiticity_preserved_randomly(self):
        rng = np.random.default_rng(77)
        events = []
        for _ in range(1000):
            kind = rng.integers(0, 3)
            if kind == 0:
                events = [Pulse(("transition12", "transition23", "nonselective")[rng.integers(0, 3)],
                                float(rng.uniform(1, 360)), float(rng.uniform(0, 360)))]
            elif kind == 1:
                events = [VirtualZ(int(rng.integers(1, 4)), float(rng.uniform(0, 360)))]
            else:
                events = [GradientEvent()]
            rho = run_pulse_program(thermal_deviation(), events)
            assert abs(np.trace(rho.entries)) < 1e-10
            assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-10

    def test_propagators_unitary_randomly(self):
        rng = np.random.default_rng(88)
        for _ in range(1000):
            pl = Pulse(("transition12", "transition23", "nonselective")[rng.integers(0, 3)],
                       float(rng.uniform(1, 360)), float(rng.uniform(0, 360)))
            u = pulse_propagator(pl).entries
            assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-10


class TestSerialization:
    PROGRAM = [
        Pulse("transition12", 90.0, 0.0, duration_s=4e-3),
        GradientEvent("g1"),
        Pulse("transition23", 270.0, 180.0, duration_s=4e-3),
        VirtualZ(2, 180.0),
        Pulse("nonselective", 30.0, 90.0, duration_s=0.5e-3),
        GradientEvent("g2"),
    ]

    def test_bit_exact_roundtrip(self):
        records = program_to_records(self.PROGRAM)
        assert records_to_program(records) == self.PROGRAM

    def test_bit_exact_through_json(self):
        text = json.dumps(program_to_records(self.PROGRAM))
        assert records_to_program(json.loads(text)) == self.PROGRAM

    @pytest.mark.parametrize("name", list(NAMED_MAPS))
    def test_every_built_program_roundtrips(self, name):
        events = build_pulse_program(NAMED_MAPS[name]) + detection_events(30.0)
        assert records_to_program(program_to_records(events)) == events

    def test_delay_record_refused(self):
        record = {"kind": "delay", "duration_s": 1e-3}
        with pytest.raises(ValueError, match="unknown event kind 'delay'"):
            records_to_program([record])

    def test_magic_angle_survives_json(self):
        flip = math.degrees(math.acos(-1 / 3))
        events = [Pulse("transition12", flip, 270.0)]
        back = records_to_program(json.loads(json.dumps(program_to_records(events))))
        assert back[0].flip_deg == flip


class TestRelaxationParams:
    def test_bounds(self):
        RelaxationParams(0.170, 0.050)
        with pytest.raises(ValueError):
            RelaxationParams(0.170, 0.0)
        with pytest.raises(ValueError):
            RelaxationParams(0.050, 0.170)  # T2 > 2 T1


class TestEventPropagator:
    def test_gradient_has_no_propagator(self):
        with pytest.raises(ValueError):
            event_propagator(GradientEvent())

    def test_virtualz_diagonal(self):
        u = event_propagator(VirtualZ(2, 90.0)).entries
        assert np.allclose(u, np.diag([1, 1j, 1]), atol=1e-14)


def reference_run(rho0, events):
    """run_pulse_program as a loop that validates every step: a DensityMatrix
    and an Operator3 per event."""
    rho = rho0
    for event in events:
        if isinstance(event, GradientEvent):
            rho = DensityMatrix(np.diag(np.diag(rho.entries)), rho.kind)
        else:
            u = event_propagator(event).entries
            rho = DensityMatrix(u @ rho.entries @ u.conj().T, rho.kind)
    return rho


def random_event(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Pulse(("transition12", "transition23", "nonselective")[rng.integers(0, 3)],
                     float(rng.uniform(1, 360)), float(rng.uniform(0, 360)))
    if kind == 1:
        return VirtualZ(int(rng.integers(1, 4)), float(rng.uniform(0, 360)))
    return GradientEvent()


class TestRunPulseProgramContract:
    def test_bit_identical_to_validating_loop(self):
        rng = np.random.default_rng(2014)
        for _ in range(200):
            events = [random_event(rng) for _ in range(rng.integers(1, 25))]
            got = run_pulse_program(thermal_deviation(), events)
            want = reference_run(thermal_deviation(), events)
            assert got.kind == want.kind == "deviation"
            assert got.entries.tobytes() == want.entries.tobytes(), events


class TestRunPulseBatch:
    def test_every_row_bit_identical_to_validating_loop(self):
        """50 rows of seeded flips per random program: each row equals the
        reference loop run on the program with that row's flip angles."""
        rng = np.random.default_rng(2015)
        for _ in range(20):
            events = [random_event(rng) for _ in range(rng.integers(1, 25))]
            flips = rng.uniform(1e-6, 360.0, (50, len(pulse_flips(events))))
            got = run_pulse_batch(thermal_deviation(), events, flips)
            assert got.shape == (50, 3, 3)
            for row, row_flips in zip(got, flips):
                want = reference_run(thermal_deviation(), with_flips(events, row_flips))
                assert row.tobytes() == want.entries.tobytes(), events

    def test_non_unitary_row_rejected(self):
        flips = np.full((8, 1), 90.0)
        flips[5, 0] = np.nan
        with pytest.raises(NonUnitaryError):
            run_pulse_batch(thermal_deviation(), [Pulse("transition12", 90.0)], flips)

    def test_flip_columns_must_match_pulses(self):
        events = [Pulse("transition12", 90.0), VirtualZ(2, 90.0), Pulse("transition23", 90.0)]
        with pytest.raises(ValueError, match=r"need \(R, K\) flips .* \(1, 1\)"):
            run_pulse_batch(thermal_deviation(), events, [[90.0]])

    def test_with_flips_keeps_all_but_the_flip(self):
        events = [Pulse("transition23", 270.0, 180.0, duration_s=4e-3), VirtualZ(2, 90.0)]
        assert with_flips(events, [12.5]) == [
            Pulse("transition23", 12.5, 180.0, duration_s=4e-3), VirtualZ(2, 90.0)]


def generator(pl: Pulse) -> np.ndarray:
    """H with pulse = exp(-i H): flip (cos phi Ix + sin phi Iy) for a
    non-selective pulse, flip/2 (cos phi X + sin phi Y) on one sub-block."""
    theta, phi = math.radians(pl.flip_deg), math.radians(pl.phase_deg)
    if pl.target == "nonselective":
        return theta * (math.cos(phi) * IX + math.sin(phi) * IY)
    p, q = TRANSITIONS[pl.target]
    h = np.zeros((3, 3), dtype=complex)
    h[p, q] = (theta / 2.0) * np.exp(-1j * phi)
    h[q, p] = (theta / 2.0) * np.exp(1j * phi)
    return h


def test_closed_forms_match_the_matrix_exponential():
    """3003 seeded pulses per target, the edge flips 360, 180 and 1e-6
    degrees among them, against scipy's expm of the generator; each one also
    passes pulse_propagator's Operator3 unitarity check."""
    from scipy.linalg import expm

    rng = np.random.default_rng(1406)
    flips = [360.0, 180.0, 1e-6] + rng.uniform(0.0, 360.0, 3000).tolist()
    worst = 0.0
    for target in TARGETS:
        for flip in flips:
            pl = Pulse(target, flip or 360.0, float(rng.uniform(0.0, 360.0)))
            u = pulse_propagator(pl).entries
            worst = max(worst, float(np.max(np.abs(u - expm(-1j * generator(pl))))))
    assert worst <= 1e-14
