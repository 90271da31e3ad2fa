"""Compile named gates to pulse sequences, each measured up to global phase.

Bare 180-degree selective pulses realize swaps only up to a sub-block phase
(-i on the driven block), so every compiled sequence carries virtual-z
corrections that make the propagator phase-exact. The Fourier gate uses the
three-pulse sequence (270)@23, (109.47)@12, (90)@23 whose diagonal frame
corrections are read off in closed form at compile time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DIM, PHASE_TOL, Operator3, _frozen
from .permutations import FOURIER3, NAMED_MAPS, unitary_of
from .spin import (
    BLANK_RECORD,
    Pulse,
    VirtualZ,
    event_propagator,
    program_to_records,
    record_to_event,
)

#: 109.47 degrees, stored exactly as the arccos rather than the decimal
MAGIC_FLIP_DEG = math.degrees(math.acos(-1.0 / 3.0))

_F3 = FOURIER3.entries


class UnknownGateError(ValueError):
    pass


@dataclass(frozen=True)
class CompiledSequence:
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


def sequence_propagator(events) -> Operator3:
    """Ordered product of event propagators, rightmost factor earliest."""
    u = np.eye(DIM, dtype=complex)
    for event in events:
        u = event_propagator(event).entries @ u
    return Operator3(u)


def _measured(name: str, target: np.ndarray, events: tuple) -> CompiledSequence:
    """The sequence with its fidelity, phase exactness and worst entry, all
    read off one achieved propagator."""
    achieved = sequence_propagator(events).entries
    fid = fidelity(target, achieved)
    tr = np.trace(target.conj().T @ achieved)
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
    ang = np.angle(_F3 / sequence_propagator(pulses).entries)
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
    "F": (_F3, _fourier_events),
    "Finv": (_frozen(_F3.conj().T), lambda: invert_events(_fourier_events())),
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
def compile_gate(name: str) -> CompiledSequence:
    """The gate's pulse sequence, built once per name: every later call
    returns the same CompiledSequence, whose target is read-only."""
    if name not in _GATES:
        raise UnknownGateError(f"unknown gate {name!r}; known: {', '.join(GATE_NAMES)}")
    target, build = _GATES[name]
    return _measured(name, target, tuple(build()))


# --- template optimization --------------------------------------------------

@dataclass(frozen=True)
class FreeParameter:
    name: str


@dataclass(frozen=True)
class SequenceTemplate:
    """Pulse skeleton whose angle fields may name a FreeParameter.

    Prototype events are dicts in the pulse-program record format; a string
    in an angle field refers to a parameter by name.
    """

    prototypes: tuple
    params: tuple

    def bind(self, values) -> list:
        lookup = dict(zip((p.name for p in self.params), values, strict=True))

        def resolve(v, *, flip=False):
            if isinstance(v, str):
                v = lookup[v]
            # a v just below 0 wraps to exactly 360.0, a flip but not an angle
            v = float(v) % 360.0
            if flip:
                return 360.0 if v == 0.0 else v
            return 0.0 if v == 360.0 else v

        events = []
        for proto in self.prototypes:
            rec = {**BLANK_RECORD, **proto}
            if rec["kind"] == "pulse":
                rec["flip_deg"] = resolve(rec["flip_deg"], flip=True)
                rec["phase_deg"] = resolve(rec["phase_deg"])
            elif rec["kind"] == "virtualz":
                rec["flip_deg"] = resolve(rec["flip_deg"])
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
    # nothing else in the package needs it
    from scipy.optimize import minimize

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
