"""Compile named gates to pulse sequences and verify them up to global phase.

Bare 180-degree selective pulses realize swaps only up to a sub-block phase
(-i on the driven block), so every compiled sequence carries virtual-z
corrections that make the propagator phase-exact. The Fourier gate uses the
three-pulse sequence (270)@23, (109.47)@12, (90)@23 whose diagonal frame
corrections are solved in closed form at compile time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, DIM, Operator3, Tolerance, _frozen
from .permutations import NAMED_MAPS, fourier, unitary_of
from .spin import (
    GradientEvent,
    HamiltonianParams,
    Pulse,
    VirtualZ,
    event_propagator,
    program_to_records,
    record_to_event,
)

#: 109.47 degrees, stored exactly as the arccos rather than the decimal
MAGIC_FLIP_DEG = math.degrees(math.acos(-1.0 / 3.0))

_F3 = _frozen(fourier(3))


class UnknownGateError(ValueError):
    pass


@dataclass(frozen=True)
class CompiledSequence:
    name: str
    target: np.ndarray
    events: tuple
    fidelity: float
    phase_exact: bool

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


def sequence_propagator(events, params: HamiltonianParams | None = None) -> Operator3:
    """Ordered product of event propagators, rightmost factor earliest."""
    u = np.eye(DIM, dtype=complex)
    for event in events:
        if isinstance(event, GradientEvent):
            raise ValueError("gradients are non-unitary; not allowed in a "
                             "sequence propagator")
        u = event_propagator(event, params).entries @ u
    return Operator3(u, unitary=True)


def _diagonal_frame_correction(achieved: np.ndarray, target: np.ndarray,
                               tol: float = 1e-9):
    """Solve target = diag(e^{ia}) @ achieved @ diag(e^{ib}), if possible.

    Requires every entry magnitude to match; returns (a, b) phase vectors or
    None. Only handles matrices with all entries nonzero (the Fourier case).
    """
    if np.min(np.abs(achieved)) < tol or np.min(np.abs(target)) < tol:
        return None
    if np.max(np.abs(np.abs(achieved) - np.abs(target))) > tol:
        return None
    ang = np.angle(target / achieved)
    residual = ang - ang[:, [0]] - ang[[0], :] + ang[0, 0]
    residual = (residual + np.pi) % (2 * np.pi) - np.pi
    if np.max(np.abs(residual)) > tol:
        return None
    a = ang[:, 0] - ang[0, 0]
    b = ang[0, :]
    return a, b


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
    u_lit = sequence_propagator(pulses).entries
    corr = _diagonal_frame_correction(u_lit, _F3)
    if corr is None:  # cannot happen for the shipped skeleton
        raise RuntimeError("Fourier pulse skeleton lost its frame-correctable form")
    a, b = corr
    return _phases_to_virtualz(b) + pulses + _phases_to_virtualz(a)


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
    events = tuple(build())
    fid = fidelity(target, sequence_propagator(events).entries)
    return CompiledSequence(name, target, events, fid, phase_exact=fid >= 1.0 - 1e-9)


@dataclass(frozen=True)
class VerificationReport:
    fidelity: float
    phase_exact: bool
    worst_entry: float


def verify(seq: CompiledSequence, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Recompute the achieved propagator and its distance to the target."""
    achieved = sequence_propagator(seq.events).entries
    target = seq.target
    fid = fidelity(target, achieved)
    tr = np.trace(np.asarray(target).conj().T @ achieved)
    aligned = achieved * np.exp(-1j * np.angle(tr)) if abs(tr) > 0 else achieved
    worst = float(np.max(np.abs(aligned - target)))
    return VerificationReport(fid, fid >= 1.0 - tol.phase_equivalence, worst)


# --- template optimization --------------------------------------------------

@dataclass(frozen=True)
class FreeParameter:
    name: str
    lo: float = 0.0
    hi: float = 360.0

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"bounds ({self.lo}, {self.hi}) are not well-ordered")


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
            if flip:
                v = float(v) % 360.0
                return 360.0 if v == 0.0 else v
            return float(v) % 360.0

        events = []
        for proto in self.prototypes:
            rec = dict(proto)
            rec.setdefault("phase_deg", 0.0)
            rec.setdefault("duration_s", 0.0)
            rec.setdefault("label", "")
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

    Deterministic: a fixed seed grid (up to 8 points per parameter) followed
    by Nelder-Mead refinement from the best grid points, with simplex
    restarts at the incumbent until the budget runs out or the objective
    reaches 1e-12 of optimal.
    """
    # imported here: scipy.optimize costs every CLI process ~0.15 s, and
    # nothing else in the package needs it
    from scipy.optimize import minimize

    k = len(template.params)
    if k < 1:
        raise ValueError("template has no free parameters")

    evals = 0

    def infidelity(x) -> float:
        nonlocal evals
        evals += 1
        achieved = sequence_propagator(template.bind(x)).entries
        return 1.0 - fidelity(target, achieved)

    npts = 8
    while npts > 2 and npts ** k > budget // 2:
        npts -= 1
    axes = [np.linspace(p.lo, p.hi, npts, endpoint=False) for p in template.params]
    grid = [(infidelity(x), x) for x in itertools.product(*axes)]
    grid.sort(key=lambda t: t[0])

    best_val, best_x = grid[0][0], np.array(grid[0][1], dtype=float)
    for _, x0 in grid[:4]:
        x0 = np.array(x0, dtype=float)
        while evals < budget and best_val > 1e-12:
            res = minimize(infidelity, x0, method="Nelder-Mead",
                           options={"maxfev": max(1, budget - evals),
                                    "xatol": 1e-10, "fatol": 1e-14})
            if res.fun < best_val:
                best_val, best_x = float(res.fun), np.asarray(res.x, dtype=float)
            if np.allclose(res.x, x0, atol=1e-9):  # restart made no progress
                break
            x0 = np.asarray(res.x, dtype=float)
        if best_val <= 1e-12 or evals >= budget:
            break

    events = tuple(template.bind(best_x))
    fid = 1.0 - best_val
    return CompiledSequence("optimized", np.asarray(target, dtype=complex),
                            events, fid, phase_exact=fid >= 1.0 - 1e-9)
