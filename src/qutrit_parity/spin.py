"""Spin-1 NMR model: operators, quadrupolar Hamiltonian, pulses, gradients.

The rotating frame is fixed at the carrier, and nothing evolves between
events; Lambda places the lines. Pulses are ideal and instantaneous;
their nominal durations are carried as metadata only. T1/T2 never act during
a pulse program -- T2 enters only when the FID is synthesized (spectro).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DensityMatrix, NonUnitaryError, Operator3, check_density, rotate

_SQRT2 = math.sqrt(2.0)

IX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
IY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
IZ = np.diag([1.0, 0.0, -1.0]).astype(complex)

TRANSITIONS = {"transition12": (0, 1), "transition23": (1, 2)}
TARGETS = (*TRANSITIONS, "nonselective")


@dataclass(frozen=True)
class HamiltonianParams:
    """The rotating-frame Hamiltonian H = Lambda (3 Iz^2 - I^2), given by
    lambda_q alone: the effective quadrupolar coupling Lambda in rad/s."""

    lambda_q: float

    def __post_init__(self):
        if not math.isfinite(self.lambda_q):
            raise ValueError(f"lambda_q must be finite, got {self.lambda_q}")


@dataclass(frozen=True)
class RelaxationParams:
    t1: float
    t2: float

    def __post_init__(self):
        if not (0.0 < self.t2 <= 2.0 * self.t1):
            raise ValueError(f"need 0 < T2 <= 2*T1, got T1={self.t1}, T2={self.t2}")


@dataclass(frozen=True)
class Pulse:
    """Ideal rotation. phase_deg measures the axis from +x toward +y, so
    -x is 180 and -y is 270."""

    target: str
    flip_deg: float
    phase_deg: float = 0.0
    duration_s: float = 0.0  # metadata only

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown pulse target {self.target!r}")
        if not (0.0 < self.flip_deg <= 360.0):
            raise ValueError(f"flip angle must be in (0, 360], got {self.flip_deg}")
        if not (0.0 <= self.phase_deg < 360.0):
            raise ValueError(f"phase must be in [0, 360), got {self.phase_deg}")


@dataclass(frozen=True)
class VirtualZ:
    """Frame-bookkeeping phase e^{i angle} on one energy level (1, 2 or 3).

    Costs no pulse; used by the compiler to absorb sub-block phases.
    """

    level: int
    angle_deg: float

    def __post_init__(self):
        if self.level not in (1, 2, 3):
            raise ValueError(f"level must be 1, 2 or 3, got {self.level}")


@dataclass(frozen=True)
class GradientEvent:
    """Ideal z-gradient crusher: wipes every off-diagonal coherence."""

    label: str = "g"


Event = Pulse | VirtualZ | GradientEvent


def transition_frequencies(p: HamiltonianParams) -> tuple[float, float]:
    """Rotating-frame offsets (nu12, nu23) in Hz; separation is 6*Lambda/2pi.

    Sign convention: Line 2 (transition 2-3) sits at positive offset for
    positive Lambda.
    """
    nu = 3.0 * p.lambda_q / (2.0 * math.pi)
    return (-nu, nu)


def pulse_propagator(pl: Pulse) -> Operator3:
    """Selective: exp(-i flip/2 (cos phi X_pq + sin phi Y_pq)) on one
    sub-block; non-selective: exp(-i flip (cos phi Ix + sin phi Iy))."""
    return Operator3(_pulse_matrices(pl.target, [pl.flip_deg], pl.phase_deg)[0])


def _pulse_matrices(target: str, flips_deg, phase_deg: float) -> np.ndarray:
    """pulse_propagator's matrix for each flip angle, (R, 3, 3), unchecked, in
    closed form: the SU(2) rotation of one sub-block, or the j = 1 Wigner
    rotation 1 - i sin(flip) G + (cos(flip) - 1) G^2, as G^3 = G for spin 1."""
    theta, phi = np.radians(flips_deg), math.radians(phase_deg)
    cphi, sphi = math.cos(phi), math.sin(phi)
    u = np.zeros((len(theta), 3, 3), dtype=complex)
    re, im = u.real, u.imag  # entries set part by part, as complex(re, im)
    if target == "nonselective":
        ct, a = np.cos(theta), np.sin(theta) / _SQRT2
        re[:, 0, 0] = re[:, 2, 2] = (1.0 + ct) / 2.0
        re[:, 1, 1] = ct
        re[:, 0, 1] = re[:, 1, 2] = -a * sphi  # above the diagonal; below it:
        re[:, 1, 0] = re[:, 2, 1] = a * sphi
        im[:, 0, 1] = im[:, 1, 2] = im[:, 1, 0] = im[:, 2, 1] = -a * cphi
        twice = complex(cphi * cphi - sphi * sphi, -2.0 * cphi * sphi)  # e^{-2i phi}
        u[:, 0, 2] = (ct - 1.0) / 2.0 * twice
        u[:, 2, 0] = u[:, 0, 2].conj()
        return u
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    p, q = TRANSITIONS[target]
    re[:, p, p] = re[:, q, q] = c
    re[:, 3 - p - q, 3 - p - q] = 1.0  # the level the pulse leaves alone
    re[:, p, q], im[:, p, q] = -s * sphi, -s * cphi  # -i sin(flip/2) e^{-i phi}
    re[:, q, p], im[:, q, p] = s * sphi, -s * cphi  # and e^{+i phi} below the diagonal
    return u


def event_propagator(event: Event) -> Operator3:
    if isinstance(event, Pulse):
        return pulse_propagator(event)
    if isinstance(event, VirtualZ):
        phases = np.ones(3, dtype=complex)
        phases[event.level - 1] = np.exp(1j * math.radians(event.angle_deg))
        return Operator3(np.diag(phases))
    if isinstance(event, GradientEvent):
        raise ValueError("a gradient is not unitary and has no propagator")
    raise TypeError(f"unknown event {event!r}")


def crush(rho: np.ndarray) -> np.ndarray:
    """A GradientEvent on rho (..., 3, 3): the diagonal kept, +0 elsewhere."""
    return np.where(np.eye(3, dtype=bool), rho, 0.0)


def thermal_deviation() -> DensityMatrix:
    """High-temperature equilibrium deviation, proportional to Iz."""
    return DensityMatrix(IZ.copy(), "deviation")


def pulse_flips(events) -> np.ndarray:
    """The flip angles of the pulses among events, in time order."""
    return np.array([e.flip_deg for e in events if isinstance(e, Pulse)], dtype=float)


def with_flips(events, flips) -> list:
    """events with their pulses turned by flips instead, in time order."""
    it = iter(np.asarray(flips).tolist())
    return [replace(e, flip_deg=next(it)) if isinstance(e, Pulse) else e for e in events]


def run_pulse_batch(rho0: DensityMatrix, events, flips) -> np.ndarray:
    """Apply events in time order to R copies of rho0 at once by crush and rotate,
    row r turning the k-th pulse by flips[r, k] degrees. Flips are checked finite
    at entry (a finite flip's closed-form propagator is unitary), and the (R, 3,
    3) rows at exit as entries of rho0's kind."""
    events, flips = list(events), np.asarray(flips, dtype=float)
    if flips.ndim != 2 or flips.shape[1] != len(pulse_flips(events)):
        raise ValueError(f"need (R, K) flips for the K pulses, got {flips.shape}")
    if not np.isfinite(flips).all():
        r, k = np.argwhere(~np.isfinite(flips))[0]
        raise NonUnitaryError(f"row {r}'s pulse {k} turns by {flips[r, k]} degrees", math.nan)
    rho = np.tile(rho0.entries, (len(flips), 1, 1))
    pulses = iter(flips.T)
    for event in events:
        if isinstance(event, GradientEvent):
            rho = crush(rho)
            continue
        u = (_pulse_matrices(event.target, next(pulses), event.phase_deg)
             if isinstance(event, Pulse) else event_propagator(event).entries)
        rho = rotate(u, rho)
    check_density(rho, rho0.kind)
    return rho


def run_pulse_program(rho0: DensityMatrix, events) -> DensityMatrix:
    """run_pulse_batch on one row, with the events' own flip angles."""
    events = list(events)
    rho = run_pulse_batch(rho0, events, [pulse_flips(events)])
    return DensityMatrix(rho[0], rho0.kind)


def pseudopure_prep_events() -> list:
    """90 degrees on transition 1-2 then the g1 crusher: takes the thermal
    deviation diag(1, 0, -1) to the pseudopure deviation diag(1/2, 1/2, -1)."""
    return [Pulse("transition12", 90.0, 0.0, duration_s=4e-3), GradientEvent("g1")]


# --- serialization: flat event records, bit-exact round trip ----------------

#: every field of an event record, each at the value an event without it records
BLANK_RECORD = {"kind": "", "target": "", "flip_deg": 0.0, "phase_deg": 0.0,
                "duration_s": 0.0, "label": ""}


def event_to_record(event: Event) -> dict:
    if isinstance(event, Pulse):
        fields = {"kind": "pulse", "target": event.target, "flip_deg": event.flip_deg,
                  "phase_deg": event.phase_deg, "duration_s": event.duration_s}
    elif isinstance(event, VirtualZ):
        fields = {"kind": "virtualz", "target": f"level{event.level}",
                  "flip_deg": event.angle_deg}
    elif isinstance(event, GradientEvent):
        fields = {"kind": "gradient", "label": event.label}
    else:
        raise TypeError(f"unknown event {event!r}")
    return {**BLANK_RECORD, **fields}


def record_to_event(rec: dict) -> Event:
    kind = rec["kind"]
    if kind == "pulse":
        return Pulse(rec["target"], rec["flip_deg"], rec["phase_deg"],
                     rec.get("duration_s", 0.0))
    if kind == "virtualz":
        return VirtualZ(int(rec["target"].removeprefix("level")), rec["flip_deg"])
    if kind == "gradient":
        return GradientEvent(rec.get("label", "g"))
    raise ValueError(f"unknown event kind {kind!r}")


def program_to_records(events) -> list:
    return [event_to_record(e) for e in events]


def records_to_program(records) -> list:
    return [record_to_event(r) for r in records]
