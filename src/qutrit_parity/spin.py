"""Spin-1 NMR model: operators, quadrupolar Hamiltonian, pulses, gradients.

The rotating frame is fixed at the carrier, so only the quadrupolar term
Lambda*(3*Iz^2 - I^2) evolves states. Pulses are ideal and instantaneous;
their nominal durations are carried as metadata only. T1/T2 never act during
a pulse program -- T2 enters only when the FID is synthesized (spectro).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import DEFAULT_TOL, DensityMatrix, Operator3, Tolerance

_SQRT2 = math.sqrt(2.0)

IX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
IY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
IZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
ISQ = 2.0 * np.eye(3, dtype=complex)  # I(I+1) = 2 for spin 1

TRANSITIONS = {"transition12": (0, 1), "transition23": (1, 2)}
TARGETS = ("transition12", "transition23", "nonselective")

#: carrier frequency bookkeeping value, rad/s (deuterium at 91.108 MHz)
OMEGA0_DEFAULT = 2 * math.pi * 91.108e6


@dataclass(frozen=True)
class HamiltonianParams:
    """Rotating-frame spin Hamiltonian parameters.

    lambda_q is the effective quadrupolar coupling in rad/s. When the
    underlying pair (order_param S, eqq) is given, lambda_q must equal
    eqq * S / 4.
    """

    lambda_q: float
    omega0: float = OMEGA0_DEFAULT
    order_param: float | None = None
    eqq: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.lambda_q):
            raise ValueError("lambda_q must be finite")
        if (self.order_param is None) != (self.eqq is None):
            raise ValueError("order_param and eqq must be given together")
        if self.order_param is not None:
            expected = self.eqq * self.order_param / 4.0
            scale = max(abs(expected), abs(self.lambda_q), 1e-300)
            if abs(self.lambda_q - expected) > 1e-9 * scale:
                raise ValueError(
                    f"lambda_q {self.lambda_q} inconsistent with "
                    f"eqq*S/4 = {expected}"
                )


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
class Delay:
    duration_s: float

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError(f"delay must be non-negative, got {self.duration_s}")


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


Event = Pulse | Delay | VirtualZ | GradientEvent


def hamiltonian_rotating_frame(p: HamiltonianParams) -> Operator3:
    """Lambda * (3 Iz^2 - I^2) = Lambda * diag(1, -2, 1), rad/s."""
    return Operator3(p.lambda_q * (3.0 * IZ @ IZ - ISQ), hermitian=True)


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
    return Operator3(_pulse_matrix(pl), unitary=True)


def _pulse_matrix(pl: Pulse) -> np.ndarray:
    """The matrix of pulse_propagator, without its unitarity check."""
    theta = math.radians(pl.flip_deg)
    phi = math.radians(pl.phase_deg)
    if pl.target == "nonselective":
        gen = math.cos(phi) * IX + math.sin(phi) * IY
        u = expm(-1j * theta * gen)
    else:
        p, q = TRANSITIONS[pl.target]
        x = np.zeros((3, 3), dtype=complex)
        x[p, q] = x[q, p] = 1.0
        y = np.zeros((3, 3), dtype=complex)
        y[p, q] = -1j
        y[q, p] = 1j
        u = expm(-1j * (theta / 2.0) * (math.cos(phi) * x + math.sin(phi) * y))
    return u


def delay_propagator(p: HamiltonianParams, t: float) -> Operator3:
    """exp(-i H_rot t): diagonal phases (e^{-i L t}, e^{+2i L t}, e^{-i L t})."""
    if t < 0:
        raise ValueError(f"delay time must be non-negative, got {t}")
    phases = np.exp(-1j * p.lambda_q * np.array([1.0, -2.0, 1.0]) * t)
    return Operator3(np.diag(phases), unitary=True)


#: bounded, because a template optimization binds a fresh angle per step;
#: the compiled gates use a dozen distinct VirtualZ events
@functools.lru_cache(maxsize=64)
def virtualz_propagator(vz: VirtualZ) -> Operator3:
    phases = np.ones(3, dtype=complex)
    phases[vz.level - 1] = np.exp(1j * math.radians(vz.angle_deg))
    return Operator3(np.diag(phases), unitary=True)


def event_propagator(event: Event, params: HamiltonianParams | None = None) -> Operator3:
    if isinstance(event, Pulse):
        return pulse_propagator(event)
    if isinstance(event, Delay):
        if params is None:
            raise ValueError("delay events need HamiltonianParams")
        return delay_propagator(params, event.duration_s)
    if isinstance(event, VirtualZ):
        return virtualz_propagator(event)
    if isinstance(event, GradientEvent):
        raise ValueError("a gradient is not unitary and has no propagator")
    raise TypeError(f"unknown event {event!r}")


def apply_gradient(rho: DensityMatrix, g: GradientEvent | None = None) -> DensityMatrix:
    """Ideal crusher: off-diagonals to exactly zero, diagonal unchanged."""
    return DensityMatrix(np.diag(np.diag(rho.entries)), rho.kind)


def thermal_deviation() -> DensityMatrix:
    """High-temperature equilibrium deviation, proportional to Iz."""
    return DensityMatrix(IZ.copy(), "deviation")


def run_pulse_program(rho0: DensityMatrix, events,
                      params: HamiltonianParams | None = None,
                      tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Apply events left to right in time order.

    The events act on plain arrays; the result is checked once, as a
    DensityMatrix of rho0's kind within `tol`.
    """
    rho = rho0.entries
    for event in events:
        if isinstance(event, GradientEvent):
            rho = np.diag(np.diag(rho))
        else:
            u = (_pulse_matrix(event) if isinstance(event, Pulse)
                 else event_propagator(event, params).entries)
            rho = u @ rho @ u.conj().T
    return DensityMatrix(rho, rho0.kind, tol=tol)


def pseudopure_prep_events() -> list:
    """90 degrees on transition 1-2 then the g1 crusher: takes the thermal
    deviation diag(1, 0, -1) to the pseudopure deviation diag(1/2, 1/2, -1)."""
    return [Pulse("transition12", 90.0, 0.0, duration_s=4e-3), GradientEvent("g1")]


# --- serialization: flat event records, bit-exact round trip ----------------

def event_to_record(event: Event) -> dict:
    if isinstance(event, Pulse):
        return {"kind": "pulse", "target": event.target,
                "flip_deg": event.flip_deg, "phase_deg": event.phase_deg,
                "duration_s": event.duration_s, "label": ""}
    if isinstance(event, Delay):
        return {"kind": "delay", "target": "", "flip_deg": 0.0, "phase_deg": 0.0,
                "duration_s": event.duration_s, "label": ""}
    if isinstance(event, VirtualZ):
        return {"kind": "virtualz", "target": f"level{event.level}",
                "flip_deg": event.angle_deg, "phase_deg": 0.0,
                "duration_s": 0.0, "label": ""}
    if isinstance(event, GradientEvent):
        return {"kind": "gradient", "target": "", "flip_deg": 0.0,
                "phase_deg": 0.0, "duration_s": 0.0, "label": event.label}
    raise TypeError(f"unknown event {event!r}")


def record_to_event(rec: dict) -> Event:
    kind = rec["kind"]
    if kind == "pulse":
        return Pulse(rec["target"], rec["flip_deg"], rec["phase_deg"],
                     rec.get("duration_s", 0.0))
    if kind == "delay":
        return Delay(rec["duration_s"])
    if kind == "virtualz":
        return VirtualZ(int(rec["target"].removeprefix("level")), rec["flip_deg"])
    if kind == "gradient":
        return GradientEvent(rec.get("label", "g"))
    raise ValueError(f"unknown event kind {kind!r}")


def program_to_records(events) -> list:
    return [event_to_record(e) for e in events]


def records_to_program(records) -> list:
    return [record_to_event(r) for r in records]
