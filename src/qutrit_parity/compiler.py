"""Compile named gates to pulse sequences: gate_events builds a gate's events,
and compile_gate measures them against the gate, up to global phase.

Bare 180-degree selective pulses realize swaps only up to a sub-block phase
(-i on the driven block), so every compiled sequence carries virtual-z
corrections that make the propagator phase-exact. The Fourier gate uses the
three-pulse sequence (270)@23, (109.47)@12, (90)@23 whose diagonal frame
corrections are read off in closed form at compile time. A sequence's
propagator is spin.sequence_propagator, the pulse engine's U after its events
(spin._carry): F's frame corrections and compile_gate's achieved propagator
are one engine run each.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DIM, PHASE_TOL
from .permutations import FOURIER3, FOURIER3_INV, NAMED_MAPS, unitary_of
from .spin import (
    BLANK_RECORD,
    Pulse,
    VirtualZ,
    program_to_records,
    record_to_event,
    sequence_propagator,
)

#: 109.47 degrees, stored exactly as the arccos rather than the decimal
MAGIC_FLIP_DEG = math.degrees(math.acos(-1.0 / 3.0))


class UnknownGateError(ValueError):
    pass


class CompiledSequence(NamedTuple):
    name: str
    target: np.ndarray
    events: tuple
    fidelity: float
    phase_exact: bool
    #: largest entry deviation from the target once the global phase is removed
    worst_entry: float

    def to_record(self) -> dict:
        return {
            "gate": self.name,
            "events": program_to_records(self.events),
            "fidelity": self.fidelity,
            "phase_exact": self.phase_exact,
        }


def fidelity(target: np.ndarray, achieved: np.ndarray) -> float:
    """Global-phase-invariant gate fidelity |tr(U^dagger V)| / 3."""
    return float(abs(np.trace(np.asarray(target).conj().T @ np.asarray(achieved))) / DIM)


def _measured(name: str, target: np.ndarray, events: tuple) -> CompiledSequence:
    """The sequence with its fidelity, phase exactness and worst entry, all
    read off one achieved propagator."""
    achieved = sequence_propagator(events).entries
    tr = np.trace(target.conj().T @ achieved)
    fid = float(abs(tr) / DIM)  # fidelity(target, achieved), from the one trace
    aligned = achieved * np.exp(-1j * np.angle(tr)) if abs(tr) > 0 else achieved
    return CompiledSequence(name, target, events, fid, fid >= 1.0 - PHASE_TOL,
                            float(np.max(np.abs(aligned - target))))


def _phases_to_virtualz(phases: np.ndarray) -> list:
    events = []
    for level, phi in enumerate(phases, start=1):
        deg = math.degrees(phi) % 360.0
        if deg > 1e-12 and abs(deg - 360.0) > 1e-12:
            events.append(VirtualZ(level, deg))
    return events


def _swap_events(transition: str) -> list:
    """180-degree selective pulse on transition "12" or "23" plus the +90/+90
    sub-block phase fix."""
    lo = int(transition[0])
    return [
        Pulse(f"transition{transition}", 180.0, 0.0, duration_s=4e-3),
        VirtualZ(lo, 90.0),
        VirtualZ(lo + 1, 90.0),
    ]


def _fourier_events() -> list:
    pulses = [
        Pulse("transition23", 270.0, 180.0, duration_s=4e-3),  # -x
        Pulse("transition12", MAGIC_FLIP_DEG, 270.0, duration_s=4e-3),  # -y
        Pulse("transition23", 90.0, 270.0, duration_s=4e-3),  # -y
    ]
    # every entry of the skeleton's propagator has F's magnitude, so
    # F = diag(e^{ia}) @ U @ diag(e^{ib}) with the phases read off row and column 0
    ang = np.angle(FOURIER3.entries / sequence_propagator(pulses).entries)
    return (_phases_to_virtualz(ang[0, :]) + pulses
            + _phases_to_virtualz(ang[:, 0] - ang[0, 0]))


def invert_events(events) -> list:
    """Time-reversed sequence of inverted pulses and virtual-z events."""
    out = []
    for event in reversed(list(events)):
        if isinstance(event, Pulse):
            out.append(Pulse(event.target, event.flip_deg,
                             (event.phase_deg + 180.0) % 360.0, event.duration_s))
        elif isinstance(event, VirtualZ):
            out.append(VirtualZ(event.level, (-event.angle_deg) % 360.0))
        else:
            raise ValueError(f"cannot invert event {event!r}")
    return out


def _oracle(k: int, *swaps: str):
    """U_k, the printed matrix of f_k, as corrected swaps in time order."""
    return (unitary_of(NAMED_MAPS[f"f{k}"]).entries,
            lambda: [e for t in swaps for e in _swap_events(t)])


#: The gate table: name -> (read-only target unitary, builder of its pulse
#: events). Aliases, added below, share the entry of the oracle they name.
_GATES = {
    "F": (FOURIER3.entries, _fourier_events),
    "Finv": (FOURIER3_INV.entries, lambda: invert_events(gate_events("F"))),
    "U1": _oracle(1),
    "U2": _oracle(2, "12", "23"),
    "U3": _oracle(3, "23", "12"),
    "U4": _oracle(4, "12"),
    "U5": _oracle(5, "23"),
    "U6": _oracle(6, "12", "23", "12"),
}
_GATES.update(I=_GATES["U1"], S12=_GATES["U4"], S23=_GATES["U5"], S13=_GATES["U6"])

GATE_TARGETS = {name: target for name, (target, _) in _GATES.items()}
GATE_NAMES = tuple(_GATES)


@functools.cache
def gate_events(name: str) -> tuple:
    """The gate's pulse events, built once per name and never measured: what a
    pulse program runs."""
    if name not in _GATES:
        raise UnknownGateError(f"unknown gate {name!r}; known: {', '.join(GATE_NAMES)}")
    return tuple(_GATES[name][1]())


@functools.cache
def compile_gate(name: str) -> CompiledSequence:
    """gate_events(name) measured against the gate's target, once per name:
    every later call returns the same CompiledSequence, whose target is read-only."""
    events = gate_events(name)  # first: it rejects an unknown name
    return _measured(name, _GATES[name][0], events)


# --- template optimization --------------------------------------------------

@dataclass(frozen=True)
class SequenceTemplate:
    """Pulse skeleton of pulse-program records whose angle fields may name free
    parameters: params lists the strings in them in order of first appearance,
    and bind takes one value per name, which every field that names it
    receives. A string in any other numeric field is a ValueError."""

    prototypes: tuple

    #: per event kind, the angle fields bind resolves, each with what a whole turn binds to
    _ANGLE_FIELDS = {"pulse": {"flip_deg": 360.0, "phase_deg": 0.0},
                     "virtualz": {"flip_deg": 0.0}}

    @functools.cached_property
    def params(self) -> tuple:
        named = [(p, f) for p in self.prototypes for f, blank in BLANK_RECORD.items()
                 if isinstance(blank, float) and isinstance(p.get(f), str)]
        for p, f in named:
            if f not in self._ANGLE_FIELDS.get(p.get("kind"), {}):
                raise ValueError(f"prototype {p!r} names parameter {p[f]!r} in {f!r}, "
                                 "which bind does not resolve")
        return tuple(dict.fromkeys(p[f] for p, f in named))

    def bind(self, values) -> list:
        lookup = dict(zip(self.params, values, strict=True))

        def resolve(v, turn: float) -> float:
            # a v just below 0 wraps to exactly 360.0
            v = float(lookup[v] if isinstance(v, str) else v) % 360.0
            return turn if v in (0.0, 360.0) else v

        events = []
        for proto in self.prototypes:
            rec = {**BLANK_RECORD, **proto}
            for field, turn in self._ANGLE_FIELDS.get(rec["kind"], {}).items():
                rec[field] = resolve(rec[field], turn)
            events.append(record_to_event(rec))
        return events


def optimize_sequence(template: SequenceTemplate, target: np.ndarray,
                      budget: int = 10_000) -> CompiledSequence:
    """Maximize gate fidelity over the template's free parameters.

    Deterministic: the best point of a fixed grid over one turn (8 points
    per parameter, fewer while the grid exceeds budget // 2, but at least 2),
    refined by one Nelder-Mead run on the rest of the budget of fidelity
    evaluations. ValueError when even the 2-point grid, 2^k evaluations for
    k free parameters, leaves none of the budget for the refinement.
    """
    k = len(template.params)
    if k < 1:
        raise ValueError("template has no free parameters")
    if 2 ** k >= budget:
        raise ValueError(f"{k} free parameters need a grid of 2^{k} = {2 ** k} "
                         f"fidelity evaluations, not under the budget of {budget}")
    # imported here: scipy.optimize costs every CLI process ~0.15 s, and
    # nothing else in the package needs it, so it is an optional dependency
    try:
        from scipy.optimize import minimize
    except ImportError as exc:
        raise ImportError("optimize_sequence needs scipy, the 'optimize' extra: "
                          "pip install 'qutrit-parity[optimize]'") from exc

    def infidelity(x) -> float:
        achieved = sequence_propagator(template.bind(x)).entries
        return 1.0 - fidelity(target, achieved)

    npts = 8
    while npts > 2 and npts ** k > budget // 2:
        npts -= 1
    axis = np.linspace(0.0, 360.0, npts, endpoint=False)
    x0 = min(itertools.product(axis, repeat=k), key=infidelity)
    res = minimize(infidelity, x0, method="Nelder-Mead",
                   options={"maxfev": budget - npts ** k,
                            "xatol": 1e-10, "fatol": 1e-14})
    return _measured("optimized", np.asarray(target, dtype=complex),
                     tuple(template.bind(res.x)))
