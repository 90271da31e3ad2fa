import json
import math
from pathlib import Path

import numpy as np
import pytest

from qutrit_parity.compiler import (
    GATE_NAMES,
    GATE_TARGETS,
    MAGIC_FLIP_DEG,
    FreeParameter,
    SequenceTemplate,
    UnknownGateError,
    compile_gate,
    fidelity,
    invert_events,
    optimize_sequence,
    sequence_propagator,
    verify,
)
from qutrit_parity.core import DensityMatrix, QutritState
from qutrit_parity.permutations import NAMED_MAPS, Parity, run_parity_algorithm
from qutrit_parity.spin import (
    GradientEvent,
    Pulse,
    pseudopure_prep_events,
    run_pulse_program,
    thermal_deviation,
)

BARE_180_FIDELITY = math.sqrt(5) / 3  # |tr(U4^dag exp(-i pi X12/2))| / 3


class TestCompile:
    def test_identity_is_empty(self):
        seq = compile_gate("I")
        assert seq.events == ()
        assert seq.fidelity == pytest.approx(1.0)

    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_every_gate_phase_exact(self, name):
        seq = compile_gate(name)
        assert seq.fidelity >= 1 - 1e-9, name
        assert seq.phase_exact

    def test_fourier_action_on_minus1(self):
        seq = compile_gate("F")
        u = sequence_propagator(seq.events).entries
        achieved = QutritState(u @ QutritState.ket(-1).amplitudes)
        w = np.exp(2j * np.pi / 3)
        expected = QutritState(np.array([1, w.conjugate(), w]) / np.sqrt(3))
        assert abs(expected.overlap(achieved)) == pytest.approx(1, abs=1e-12)

    def test_fourier_uses_literal_pulse_skeleton(self):
        pulses = [e for e in compile_gate("F").events if isinstance(e, Pulse)]
        assert [(p.target, p.flip_deg, p.phase_deg) for p in pulses] == [
            ("transition23", 270.0, 180.0),
            ("transition12", MAGIC_FLIP_DEG, 270.0),
            ("transition23", 90.0, 270.0),
        ]

    def test_bare_180_swap_fails_phase_exactness(self):
        bare = sequence_propagator([Pulse("transition12", 180.0, 0.0)]).entries
        fid = fidelity(GATE_TARGETS["S12"], bare)
        assert fid == pytest.approx(BARE_180_FIDELITY, abs=1e-12)
        assert fid < 0.99

    def test_corrected_swap_is_exact(self):
        seq = compile_gate("S12")
        u = sequence_propagator(seq.events).entries
        assert np.max(np.abs(u - GATE_TARGETS["S12"])) < 1e-12

    def test_finv_inverts_f(self):
        f = sequence_propagator(compile_gate("F").events).entries
        finv = sequence_propagator(compile_gate("Finv").events).entries
        assert np.max(np.abs(finv @ f - np.eye(3))) < 1e-10

    def test_unknown_gate(self):
        with pytest.raises(UnknownGateError):
            compile_gate("Q7")

    def test_record_export(self):
        rec = compile_gate("S23").to_record()
        assert rec["gate"] == "S23"
        assert rec["phase_exact"] is True
        assert all("kind" in e for e in rec["events"])


class TestSequencePropagator:
    def test_empty_is_identity(self):
        assert np.array_equal(sequence_propagator([]).entries, np.eye(3))

    def test_bare_180_closed_form(self):
        u = sequence_propagator([Pulse("transition12", 180.0, 0.0)]).entries
        expected = np.array([[0, -1j, 0], [-1j, 0, 0], [0, 0, 1]])
        assert np.allclose(u, expected, atol=1e-12)

    def test_concatenation_is_product(self):
        a = compile_gate("F").events
        b = compile_gate("S13").events
        whole = sequence_propagator(list(a) + list(b)).entries
        parts = sequence_propagator(b).entries @ sequence_propagator(a).entries
        assert np.max(np.abs(whole - parts)) < 1e-12

    def test_gradient_rejected(self):
        with pytest.raises(ValueError):
            sequence_propagator([GradientEvent()])


class TestVerify:
    def test_identity(self):
        rep = verify(compile_gate("I"))
        assert rep.fidelity == pytest.approx(1.0)
        assert rep.worst_entry < 1e-12

    def test_compiled_s13_report(self):
        rep = verify(compile_gate("S13"))
        assert rep.fidelity >= 1 - 1e-9
        assert rep.phase_exact

    def test_deterministic(self):
        a = verify(compile_gate("U2"))
        b = verify(compile_gate("U2"))
        assert a == b


class TestInvertEvents:
    def test_double_inversion_identity(self):
        events = list(compile_gate("F").events)
        assert invert_events(invert_events(events)) == events

    def test_gradient_not_invertible(self):
        with pytest.raises(ValueError):
            invert_events([GradientEvent()])


def swap_template():
    return SequenceTemplate(
        prototypes=(
            {"kind": "pulse", "target": "transition12", "flip_deg": 180.0,
             "phase_deg": "ph"},
            {"kind": "virtualz", "target": "level1", "flip_deg": "z1"},
            {"kind": "virtualz", "target": "level2", "flip_deg": "z2"},
        ),
        params=(FreeParameter("ph"), FreeParameter("z1"), FreeParameter("z2")),
    )


def fourier_template():
    protos = (
        {"kind": "virtualz", "target": "level2", "flip_deg": "b1"},
        {"kind": "virtualz", "target": "level3", "flip_deg": "b2"},
        {"kind": "pulse", "target": "transition23", "flip_deg": 270.0,
         "phase_deg": "p1"},
        {"kind": "pulse", "target": "transition12", "flip_deg": MAGIC_FLIP_DEG,
         "phase_deg": "p2"},
        {"kind": "pulse", "target": "transition23", "flip_deg": 90.0,
         "phase_deg": "p3"},
        {"kind": "virtualz", "target": "level2", "flip_deg": "a1"},
        {"kind": "virtualz", "target": "level3", "flip_deg": "a2"},
    )
    names = ("b1", "b2", "p1", "p2", "p3", "a1", "a2")
    return SequenceTemplate(protos, tuple(FreeParameter(n) for n in names))


class TestOptimizeSequence:
    def test_finds_exact_swap(self):
        seq = optimize_sequence(swap_template(), GATE_TARGETS["S12"])
        assert seq.fidelity >= 1 - 1e-9

    def test_finds_exact_fourier(self):
        seq = optimize_sequence(fourier_template(), GATE_TARGETS["F"])
        assert seq.fidelity >= 1 - 1e-9

    def test_identity_target_trivial(self):
        template = SequenceTemplate(
            prototypes=({"kind": "virtualz", "target": "level2",
                         "flip_deg": "z"},),
            params=(FreeParameter("z"),),
        )
        seq = optimize_sequence(template, GATE_TARGETS["I"])
        assert seq.fidelity >= 1 - 1e-9

    def test_deterministic(self):
        a = optimize_sequence(swap_template(), GATE_TARGETS["S12"])
        b = optimize_sequence(swap_template(), GATE_TARGETS["S12"])
        assert a.fidelity == b.fidelity
        assert list(a.events) == list(b.events)

    def test_no_free_parameters_rejected(self):
        template = SequenceTemplate(prototypes=(), params=())
        with pytest.raises(ValueError):
            optimize_sequence(template, GATE_TARGETS["I"])

    def test_best_effort_flag_when_unreachable(self):
        # a single virtual-z cannot realize a swap
        template = SequenceTemplate(
            prototypes=({"kind": "virtualz", "target": "level2",
                         "flip_deg": "z"},),
            params=(FreeParameter("z"),),
        )
        seq = optimize_sequence(template, GATE_TARGETS["S12"], budget=300)
        assert not seq.phase_exact
        assert seq.fidelity < 1 - 1e-6


class TestEndToEndTheorem:
    def test_pulse_level_matches_gate_level(self):
        for name, p in NAMED_MAPS.items():
            trace = run_parity_algorithm(p)
            events = list(pseudopure_prep_events())
            for gate in ("F", f"U{name[1]}", "Finv"):
                events.extend(compile_gate(gate).events)
            rho = run_pulse_program(thermal_deviation(), events)
            # deviation = I/2 - (3/2)|psi><psi| => |psi_j|^2 = (1/2 - pop_j)/(3/2)
            probs = (0.5 - rho.populations()) / 1.5
            assert np.max(np.abs(probs - trace.final.probabilities())) < 1e-8, name


def test_compiled_gates_match_recorded_fixture():
    """Every gate compiles to exactly its pinned records (pulses, virtual-z
    corrections, fidelity), so the gate table cannot drift."""
    path = Path(__file__).parent / "data" / "compiled_gates.json"
    expected = json.loads(path.read_text())
    assert sorted(expected) == sorted(GATE_NAMES)
    for name in GATE_NAMES:
        assert compile_gate(name).to_record() == expected[name], name


@pytest.mark.parametrize("name", GATE_NAMES)
def test_compile_gate_memoized_and_read_only(name):
    seq = compile_gate(name)
    assert compile_gate(name) is seq
    with pytest.raises(ValueError):
        seq.target[0, 0] = 0.0
