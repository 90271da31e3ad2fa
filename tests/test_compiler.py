import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qutrit_parity import compiler, spin
from qutrit_parity.compiler import (
    GATE_NAMES,
    GATE_TARGETS,
    MAGIC_FLIP_DEG,
    SequenceTemplate,
    UnknownGateError,
    compile_gate,
    fidelity,
    invert_events,
    optimize_sequence,
    sequence_propagator,
)
from qutrit_parity.core import DensityMatrix, QutritState
from qutrit_parity.permutations import (
    FOURIER3,
    FOURIER3_INV,
    NAMED_MAPS,
    Parity,
    run_parity_algorithm,
)
from qutrit_parity.spin import (
    GradientEvent,
    Pulse,
    event_to_record,
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
        assert GATE_TARGETS["F"] is FOURIER3.entries
        assert GATE_TARGETS["Finv"] is FOURIER3_INV.entries

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

    def test_compiling_f_runs_the_engine_once_per_propagator(self, monkeypatch):
        """F's frame corrections and its measurement are one engine run each,
        not one per pulse."""
        calls, carry = [], spin._carry
        monkeypatch.setattr(spin, "_carry", lambda *args: calls.append(1) or carry(*args))
        compiler.gate_events.cache_clear()
        compiler.compile_gate.cache_clear()
        compile_gate("F")
        assert len(calls) == 2


def separate_measurement(seq):
    """Fidelity, phase exactness and worst entry of a compiled sequence, from
    a second propagator built apart from the one compile_gate measured."""
    achieved = sequence_propagator(seq.events).entries
    target = seq.target
    fid = fidelity(target, achieved)
    tr = np.trace(np.asarray(target).conj().T @ achieved)
    aligned = achieved * np.exp(-1j * np.angle(tr)) if abs(tr) > 0 else achieved
    worst = float(np.max(np.abs(aligned - target)))
    return fid, fid >= 1.0 - 1e-9, worst


def measurement(seq):
    return seq.fidelity, seq.phase_exact, seq.worst_entry


class TestVerify:
    def test_identity(self):
        seq = compile_gate("I")
        assert seq.fidelity == pytest.approx(1.0)
        assert seq.worst_entry < 1e-12

    def test_compiled_s13_report(self):
        seq = compile_gate("S13")
        assert seq.fidelity >= 1 - 1e-9
        assert seq.phase_exact
        assert seq.worst_entry < 1e-12

    def test_deterministic(self):
        # __wrapped__ compiles afresh, past the cache
        assert measurement(compile_gate.__wrapped__("U2")) == measurement(compile_gate("U2"))

    @pytest.mark.parametrize("name", GATE_NAMES)
    def test_equals_the_separate_measurement(self, name):
        seq = compile_gate(name)
        assert measurement(seq) == separate_measurement(seq)

    def test_optimizer_best_effort_equals_the_separate_measurement(self):
        template = SequenceTemplate(
            prototypes=({"kind": "virtualz", "target": "level2", "flip_deg": "z"},),
        )
        seq = optimize_sequence(template, GATE_TARGETS["S12"], budget=300)
        assert not seq.phase_exact
        assert measurement(seq) == separate_measurement(seq)


    def test_without_scipy_the_error_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # import fails
        template = SequenceTemplate(
            prototypes=({"kind": "virtualz", "target": "level2", "flip_deg": "z"},),
        )
        with pytest.raises(ImportError, match=r"qutrit-parity\[optimize\]"):
            optimize_sequence(template, GATE_TARGETS["S12"], budget=300)


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
    return SequenceTemplate(protos)


def virtualz_template(k):
    """k free virtual-z angles, alternating on levels 1 and 2."""
    return SequenceTemplate(
        prototypes=tuple({"kind": "virtualz", "target": f"level{1 + i % 2}",
                          "flip_deg": f"z{i}"} for i in range(k)),
    )


def freed_template(name):
    """The compiled gate's events with every pulse phase and virtual-z angle freed."""
    protos = []
    for i, event in enumerate(compile_gate(name).events):
        rec = event_to_record(event)
        rec["phase_deg" if isinstance(event, Pulse) else "flip_deg"] = f"x{i}"
        protos.append(rec)
    return SequenceTemplate(tuple(protos))


class TestBind:
    def test_params_are_the_names_in_order_of_first_appearance(self):
        assert swap_template().params == ("ph", "z1", "z2")
        assert fourier_template().params == ("b1", "b2", "p1", "p2", "p3", "a1", "a2")

    def test_a_name_in_two_fields_is_one_parameter(self):
        template = SequenceTemplate(
            prototypes=({"kind": "pulse", "target": "transition12", "flip_deg": "z",
                         "phase_deg": "z"},),
        )
        assert template.params == ("z",)
        [pulse] = template.bind([90.0])
        assert (pulse.flip_deg, pulse.phase_deg) == (90.0, 90.0)

    @pytest.mark.parametrize(("proto", "field"), [
        ({"kind": "virtualz", "target": "level2", "flip_deg": 90.0, "phase_deg": "z"},
         "phase_deg"),
        ({"kind": "pulse", "target": "transition12", "flip_deg": 90.0, "duration_s": "z"},
         "duration_s"),
        ({"kind": "gradient", "label": "g1", "flip_deg": "z"}, "flip_deg"),
    ])
    def test_a_name_in_a_field_bind_does_not_resolve_is_rejected(self, proto, field,
                                                                 monkeypatch):
        """Such a name would be a search axis that changes no event."""
        calls = []
        monkeypatch.setattr(compiler, "sequence_propagator", calls.append)
        template = SequenceTemplate((proto,))
        with pytest.raises(ValueError, match=f"'z' in '{field}', which bind") as exc:
            optimize_sequence(template, GATE_TARGETS["S12"])
        assert repr(proto) in str(exc.value)
        assert calls == []  # raised before any fidelity evaluation

    def test_angles_just_below_zero_bind_to_zero(self):
        """v % 360 is exactly 360.0 for v in about (-2.8e-14, 0)."""
        pulse, vz1, vz2 = swap_template().bind([-1e-15, -1e-15, -1e-20])
        assert (pulse.phase_deg, vz1.angle_deg, vz2.angle_deg) == (0.0, 0.0, 0.0)

    def test_flip_of_zero_or_just_below_binds_to_a_full_turn(self):
        template = SequenceTemplate(
            prototypes=({"kind": "pulse", "target": "transition12", "flip_deg": "f",
                         "phase_deg": 0.0},),
        )
        assert [template.bind([v])[0].flip_deg for v in (0.0, -1e-15, 720.0)] == [360.0] * 3

    def test_angles_wrap_into_one_turn(self):
        pulse, vz1, vz2 = swap_template().bind([-90.0, 450.0, 360.0])
        assert (pulse.phase_deg, vz1.angle_deg, vz2.angle_deg) == (270.0, 90.0, 0.0)


class TestOptimizeSequence:
    @pytest.mark.parametrize("name", ["U2", "U3", "U4", "U5", "U6"])
    def test_recovers_each_oracle_with_every_angle_freed(self, name):
        seq = optimize_sequence(freed_template(name), GATE_TARGETS[name], budget=2000)
        assert seq.phase_exact, (name, seq.fidelity)

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
        )
        seq = optimize_sequence(template, GATE_TARGETS["I"])
        assert seq.fidelity >= 1 - 1e-9

    def test_deterministic(self):
        a = optimize_sequence(swap_template(), GATE_TARGETS["S12"])
        b = optimize_sequence(swap_template(), GATE_TARGETS["S12"])
        assert a.fidelity == b.fidelity
        assert list(a.events) == list(b.events)

    def test_no_free_parameters_rejected(self):
        template = SequenceTemplate(prototypes=())
        with pytest.raises(ValueError):
            optimize_sequence(template, GATE_TARGETS["I"])

    @pytest.mark.parametrize("budget", [2000, 2048])
    def test_budget_below_the_coarsest_grid_rejected(self, budget):
        """11 free angles: the 2-point grid alone is 2^11 = 2048 evaluations."""
        with pytest.raises(ValueError, match=f"^11 free .* budget of {budget}$"):
            optimize_sequence(virtualz_template(11), GATE_TARGETS["S12"], budget=budget)

    def test_budget_caps_the_evaluations(self, monkeypatch):
        calls = []
        propagator = compiler.sequence_propagator
        monkeypatch.setattr(compiler, "sequence_propagator",
                            lambda events: calls.append(1) or propagator(events))
        optimize_sequence(virtualz_template(11), GATE_TARGETS["S12"], budget=2049)
        assert len(calls) == 2049 + 1  # and one measurement of the result

    def test_best_effort_flag_when_unreachable(self):
        # a single virtual-z cannot realize a swap
        template = SequenceTemplate(
            prototypes=({"kind": "virtualz", "target": "level2",
                         "flip_deg": "z"},),
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
