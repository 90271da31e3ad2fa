import json
import math

import numpy as np
import pytest

from qutrit_parity.core import DensityMatrix, Tolerance
from qutrit_parity.spin import (
    IX,
    IY,
    IZ,
    ISQ,
    Delay,
    GradientEvent,
    HamiltonianParams,
    Pulse,
    RelaxationParams,
    VirtualZ,
    apply_gradient,
    delay_propagator,
    event_propagator,
    hamiltonian_rotating_frame,
    program_to_records,
    pseudopure_prep_events,
    pulse_propagator,
    records_to_program,
    run_pulse_program,
    thermal_deviation,
    transition_frequencies,
    virtualz_propagator,
)

LAMBDA_156 = HamiltonianParams(lambda_q=2 * np.pi * 156.0)


class TestSpinOperators:
    def test_commutators_cyclic(self):
        assert np.max(np.abs(IX @ IY - IY @ IX - 1j * IZ)) < 1e-12
        assert np.max(np.abs(IY @ IZ - IZ @ IY - 1j * IX)) < 1e-12
        assert np.max(np.abs(IZ @ IX - IX @ IZ - 1j * IY)) < 1e-12

    def test_iz_exact(self):
        assert np.array_equal(IZ, np.diag([1.0, 0.0, -1.0]))

    def test_isq_is_twice_identity(self):
        assert np.array_equal(ISQ, 2 * np.eye(3))


class TestHamiltonian:
    def test_zero_coupling_vanishes(self):
        h = hamiltonian_rotating_frame(HamiltonianParams(lambda_q=0.0))
        assert np.array_equal(h.entries, np.zeros((3, 3)))

    def test_diagonal_pattern(self):
        lam = LAMBDA_156.lambda_q
        h = hamiltonian_rotating_frame(LAMBDA_156)
        assert np.allclose(h.entries, lam * np.diag([1.0, -2.0, 1.0]))

    def test_eigenvalues(self):
        lam = LAMBDA_156.lambda_q
        evals = np.sort(np.linalg.eigvalsh(hamiltonian_rotating_frame(LAMBDA_156).entries))
        assert np.allclose(evals, np.sort([lam, -2 * lam, lam]))

    def test_provenance_consistency_enforced(self):
        HamiltonianParams(lambda_q=100.0, order_param=0.01, eqq=40000.0)
        with pytest.raises(ValueError):
            HamiltonianParams(lambda_q=101.0, order_param=0.01, eqq=40000.0)
        with pytest.raises(ValueError):
            HamiltonianParams(lambda_q=1.0, order_param=0.5)


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


class TestDelayPropagator:
    def test_zero_time_identity(self):
        u = delay_propagator(LAMBDA_156, 0.0).entries
        assert np.array_equal(u, np.eye(3))

    def test_diagonal_phases(self):
        lam, t = LAMBDA_156.lambda_q, 1e-3
        u = delay_propagator(LAMBDA_156, t).entries
        expected = np.diag(np.exp(-1j * lam * np.array([1, -2, 1]) * t))
        assert np.allclose(u, expected, atol=1e-14)

    def test_composition(self):
        u1 = delay_propagator(LAMBDA_156, 1.3e-3).entries
        u2 = delay_propagator(LAMBDA_156, 0.9e-3).entries
        u12 = delay_propagator(LAMBDA_156, 2.2e-3).entries
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12

    def test_full_cycle_on_coherences(self):
        lam = LAMBDA_156.lambda_q
        t = 2 * np.pi / (3 * lam)
        u = delay_propagator(LAMBDA_156, t).entries
        # both single-quantum coherence phases complete a full cycle
        assert abs(u[0, 0] * u[1, 1].conjugate() - 1) < 1e-12
        assert abs(u[1, 1] * u[2, 2].conjugate() - 1) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            delay_propagator(LAMBDA_156, -1e-6)

    def test_diagonal_rho_unchanged(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, -1.0]), "deviation")
        out = run_pulse_program(rho, [Delay(3.7e-3)], LAMBDA_156)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12


class TestGradient:
    def test_diagonal_unchanged(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        assert np.array_equal(apply_gradient(rho).entries, rho.entries)

    def test_crushes_uniform_superposition(self):
        psi = np.ones(3) / np.sqrt(3)
        rho = DensityMatrix(np.outer(psi, psi))
        out = apply_gradient(rho)
        assert np.allclose(out.entries, np.eye(3) / 3)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = m @ m.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        once = apply_gradient(rho)
        twice = apply_gradient(once)
        assert np.array_equal(once.entries, twice.entries)
        assert np.trace(once.entries) == pytest.approx(1.0)


class TestThermalDeviation:
    def test_trace_zero_and_ordering(self):
        rho = thermal_deviation()
        pops = rho.populations()
        assert np.trace(rho.entries) == 0
        assert pops[0] > pops[1] > pops[2]

    def test_commutes_with_hamiltonian(self):
        h = hamiltonian_rotating_frame(LAMBDA_156).entries
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
                events = [Delay(float(rng.uniform(0, 5e-3)))]
            else:
                events = [GradientEvent()]
            rho = run_pulse_program(thermal_deviation(), events, LAMBDA_156)
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
        Delay(1.25e-3),
        Pulse("nonselective", 30.0, 90.0, duration_s=0.5e-3),
        GradientEvent("g2"),
    ]

    def test_bit_exact_roundtrip(self):
        records = program_to_records(self.PROGRAM)
        assert records_to_program(records) == self.PROGRAM

    def test_bit_exact_through_json(self):
        text = json.dumps(program_to_records(self.PROGRAM))
        assert records_to_program(json.loads(text)) == self.PROGRAM

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

    def test_delay_requires_params(self):
        with pytest.raises(ValueError):
            event_propagator(Delay(1e-3))

    def test_virtualz_diagonal(self):
        u = event_propagator(VirtualZ(2, 90.0)).entries
        assert np.allclose(u, np.diag([1, 1j, 1]), atol=1e-14)


def reference_run(rho0, events, params=None):
    """run_pulse_program as a loop that validates every step: a DensityMatrix
    and an Operator3 per event."""
    rho = rho0
    for event in events:
        if isinstance(event, GradientEvent):
            rho = apply_gradient(rho, event)
        else:
            u = event_propagator(event, params).entries
            rho = DensityMatrix(u @ rho.entries @ u.conj().T, rho.kind)
    return rho


def random_event(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return Pulse(("transition12", "transition23", "nonselective")[rng.integers(0, 3)],
                     float(rng.uniform(1, 360)), float(rng.uniform(0, 360)))
    if kind == 1:
        return Delay(float(rng.uniform(0, 5e-3)))
    if kind == 2:
        return VirtualZ(int(rng.integers(1, 4)), float(rng.uniform(0, 360)))
    return GradientEvent()


class TestRunPulseProgramContract:
    def test_bit_identical_to_validating_loop(self):
        rng = np.random.default_rng(2014)
        for _ in range(200):
            events = [random_event(rng) for _ in range(rng.integers(1, 25))]
            got = run_pulse_program(thermal_deviation(), events, LAMBDA_156)
            want = reference_run(thermal_deviation(), events, LAMBDA_156)
            assert got.kind == want.kind == "deviation"
            assert got.entries.tobytes() == want.entries.tobytes(), events

    def test_result_validated_with_callers_tol(self):
        skew = np.diag([1.0, 0.0, -1.0]).astype(complex)
        skew[0, 1] = 1e-3  # not Hermitian at the default tolerance
        loose = Tolerance(entrywise_abs=1e-2)
        rho0 = DensityMatrix(skew, "deviation", tol=loose)
        program = [Pulse("transition23", 90.0, 0.0)]
        with pytest.raises(ValueError, match="not Hermitian"):
            run_pulse_program(rho0, program)
        assert run_pulse_program(rho0, program, tol=loose).kind == "deviation"

    def test_virtualz_propagator_memoized(self):
        vz = VirtualZ(3, 45.0)
        assert virtualz_propagator(vz) is virtualz_propagator(VirtualZ(3, 45.0))
