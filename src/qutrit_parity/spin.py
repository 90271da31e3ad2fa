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

from .core import DensityMatrix, NonUnitaryError, Operator3, check_density

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
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"angle must be finite, got {self.angle_deg}")


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
    return sequence_propagator([pl])


def sequence_propagator(events) -> Operator3:
    """Ordered product of the events' unitaries, rightmost factor earliest: the
    engine's U after them (_carry), checked once."""
    events = list(events)
    for event in events:
        if isinstance(event, GradientEvent):
            raise ValueError("a gradient is not unitary and has no propagator")
        if not isinstance(event, Pulse | VirtualZ):
            raise TypeError(f"unknown event {event!r}")
    return Operator3(_unitaries(events, pulse_flips(events)[None])[0])


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


#: U = 1, held like U (3, 2, 3, 1): u[j, 0, k] and u[j, 1, k] are Re and Im U_jk
_ONE = np.stack([np.eye(3), np.zeros((3, 3))], axis=1)[..., None]
#: the signs of a selective pulse's -i sin e^{-+i phi} off its diagonal on rows
#: (p, q) of its block and parts (re, im): its sin phi part takes the other
#: row, its cos phi part the other row with its parts swapped
_ACROSS = np.array([[-1.0, -1.0], [1.0, 1.0]])[..., None, None]
_TURN = np.array([[1.0, -1.0], [1.0, -1.0]])[..., None, None]


def _carry(events, flips: np.ndarray, m):
    """Take R rows through events at once as U, the product of the events
    since the last crusher, row r turning the k-th pulse by flips[r, k]
    degrees: a selective pulse updates the two rows of U in its block, a
    virtual-z one row and a nonselective pulse all three. m is the state that U
    acts on, a diagonal (3, R) or a matrix held like U; a crusher makes the
    diagonal of U m U^dagger the new m and restarts U at 1. Every product is
    separate real multiplies and adds in one fixed order, so the bytes of a row
    depend on its own flips alone. Returns (U, m), U None where it is 1."""
    pulses = [e for e in events if isinstance(e, Pulse)]
    # half the flip of a selective pulse, an SU(2) rotation; a nonselective one's whole flip
    theta = np.radians(flips.T)
    theta *= np.array([0.5 if e.target in TRANSITIONS else 1.0 for e in pulses])[:, None]
    phi = np.radians([e.phase_deg for e in pulses])
    pulses = zip(np.cos(theta), np.sin(theta, out=theta), np.multiply.outer(np.sin(phi), _ACROSS),
                 np.multiply.outer(np.cos(phi), _TURN))
    # the scratch space, allocated once: two row blocks t1, t2, or w, a matrix held like U
    u, scratch, one = np.empty((3, 2, 3, len(flips))), np.empty((24, len(flips))), True
    t1, t2 = scratch.reshape(2, *u[:2].shape)
    w = scratch[:18].reshape(u.shape)
    blocks = {target: (u[p:q + 1], u[q::-1][:2]) for target, (p, q) in TRANSITIONS.items()}
    for event in events:
        if isinstance(event, GradientEvent):
            if not one:  # the diagonal of U m U^dagger: sum over l of Re V_jl conj(U_jl)
                np.multiply(_times_m(u, m, w), u, out=w)
                t = w[:, 0] + w[:, 1]
                m = t[:, 0] + t[:, 1] + t[:, 2]
            elif m.ndim == 4:
                m = m[[0, 1, 2], 0, [0, 1, 2]]
            one = True
            continue
        if isinstance(event, VirtualZ):  # row l times e^{i alpha}
            if one:
                np.copyto(u, _ONE)
            row, alpha = u[event.level - 1], math.radians(event.angle_deg)
            np.multiply(row[::-1], np.array([-math.sin(alpha), math.sin(alpha)])[:, None, None],
                        out=t1[0])
            np.multiply(row, math.cos(alpha), out=row)
            np.add(row, t1[0], out=row)
        elif event.target == "nonselective":
            _wigner(u if one else w, *next(pulses)[:2], math.radians(event.phase_deg))
            if not one:
                u[...] = _times(w, u)
        else:
            c, s, across, turn = next(pulses)
            if one:
                np.copyto(u, _ONE)
            block, swapped = blocks[event.target]
            np.multiply(swapped, across, out=t1)
            np.multiply(swapped[:, ::-1], turn, out=t2)
            np.add(t1, t2, out=t1)
            np.multiply(t1, s, out=t1)
            np.multiply(block, c, out=block)
            np.add(block, t1, out=block)
        one = False
    return None if one else u, m


def _unitaries(events, flips: np.ndarray) -> np.ndarray:
    """_carry's U after events without a crusher, for each row of flips, as
    (R, 3, 3) complex matrices, unchecked."""
    u, _ = _carry(events, flips, None)
    out = np.empty((len(flips), 3, 3), dtype=complex)
    out.real, out.imag = (_ONE if u is None else u).transpose(1, 3, 0, 2)
    return out


def _wigner(w: np.ndarray, ct, st, phi: float):
    """Write into w, held like U, the j = 1 Wigner rotation of each row,
    1 - i sin(flip) G + (cos(flip) - 1) G^2 as G^3 = G for spin 1."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    re, im, a = w[:, 0], w[:, 1], st / _SQRT2
    re[0, 0] = re[2, 2] = (1.0 + ct) / 2.0
    re[1, 1] = ct
    re[0, 1] = re[1, 2] = -a * sphi  # above the diagonal; below it:
    re[1, 0] = re[2, 1] = a * sphi
    im[0, 1] = im[1, 2] = im[1, 0] = im[2, 1] = -a * cphi
    corner = (ct - 1.0) / 2.0  # times e^{-2i phi}, and its conjugate below
    re[0, 2] = re[2, 0] = corner * (cphi * cphi - sphi * sphi)
    im[0, 2] = corner * (-2.0 * cphi * sphi)
    im[2, 0] = -im[0, 2]
    im[0, 0] = im[1, 1] = im[2, 2] = 0.0


def _times(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """The product a b of matrices held like U."""
    re = a[:, 0, :, None] * b[:, 0] - a[:, 1, :, None] * b[:, 1]  # (j, i, k, R)
    im = a[:, 0, :, None] * b[:, 1] + a[:, 1, :, None] * b[:, 0]
    return np.stack([re[:, 0] + re[:, 1] + re[:, 2], im[:, 0] + im[:, 1] + im[:, 2]],
                    axis=1, out=out)


def _times_m(u: np.ndarray, m: np.ndarray, out=None) -> np.ndarray:
    """U m, m a diagonal (3, R) or a matrix held like U."""
    return np.multiply(u, m, out=out) if m.ndim == 2 else _times(u, m, out)


def _ensemble(u, m: np.ndarray, rho0: DensityMatrix, rows: int) -> np.ndarray:
    """The (R, 3, 3) rows of U m U^dagger, from what _carry returns: the upper
    triangle, each entry the sum over l of V_jl conj(U_kl) with V = U m, mirrored."""
    rho = np.zeros((rows, 3, 3), dtype=complex)
    if u is None:
        if m.ndim == 2:
            rho.real[:, [0, 1, 2], [0, 1, 2]] = m.T
        else:  # no event has touched it
            rho[...] = rho0.entries
        return rho
    for j in range(3):
        (vr, vi), (ur, ui) = _times_m(u[j:j + 1], m)[0], u[j:].swapaxes(0, 1)
        re = vr * ur + vi * ui
        re = re[:, 0] + re[:, 1] + re[:, 2]
        im = vi * ur - vr * ui
        im = im[:, 0] + im[:, 1] + im[:, 2]
        im[0] = 0.0  # the diagonal of a Hermitian matrix is real
        rho.real[:, j, j:], rho.imag[:, j, j:] = re.T, im.T
        rho.real[:, j:, j], rho.imag[:, j + 1:, j] = re.T, -im[1:].T
    return rho


def run_pulse_batch(rho0: DensityMatrix, events, flips) -> np.ndarray:
    """Apply events in time order to R copies of rho0 at once, row r turning the
    k-th pulse by flips[r, k] degrees, by carrying U between crushers (_carry).
    Flips are checked finite at entry (a finite flip's closed-form propagator is
    unitary), and the (R, 3, 3) rows at exit as entries of rho0's kind."""
    events, flips = list(events), np.asarray(flips, dtype=float)
    if flips.ndim != 2 or flips.shape[1] != len(pulse_flips(events)):
        raise ValueError(f"need (R, K) flips for the K pulses, got {flips.shape}")
    if not np.isfinite(flips).all():
        r, k = np.argwhere(~np.isfinite(flips))[0]
        raise NonUnitaryError(f"row {r}'s pulse {k} turns by {flips[r, k]} degrees", math.nan)
    m = rho0.entries
    if np.count_nonzero(m - np.diag(m.diagonal().real)):
        m = np.stack([m.real, m.imag], axis=1)[..., None]
    else:
        m = m.diagonal().real[:, None]
    rho = _ensemble(*_carry(events, flips, m), rho0, len(flips))
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
