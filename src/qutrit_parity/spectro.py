"""Detection pulse, FID synthesis, spectrum, peak picking, parity readout.

The readout keys on the line pattern (count, magnitude ratio, relative sign),
never on absolute sign: the laboratory pseudopure deviation carries a negative
pseudopure coefficient and the sign of the quadrupolar coupling is a
convention, so only the pattern is meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, _frozen
from .permutations import Parity
from .spin import (
    GradientEvent,
    HamiltonianParams,
    Pulse,
    RelaxationParams,
    apply_gradient,
    pulse_propagator,
    transition_frequencies,
)

#: default acquisition: +-2000 Hz window, ~0.98 Hz per bin
DEFAULT_POINTS = 4096
DEFAULT_DWELL = 1.0 / 4000.0

#: peaks below this fraction of the strongest line are ignored, matching the
#: 10% single-line dominance rule of the classifier
DEFAULT_PEAK_THRESHOLD = 0.1


class EmptySpectrumError(ValueError):
    pass


class UnclassifiableSpectrumError(ValueError):
    """Line pattern matches neither the even nor the odd signature."""

    def __init__(self, line12: float, line23: float):
        super().__init__(
            f"spectrum matches neither parity signature "
            f"(line12 = {line12:.6g}, line23 = {line23:.6g})"
        )
        self.line12 = line12
        self.line23 = line23


@dataclass(frozen=True)
class FID:
    samples: np.ndarray  # complex, length a power of two
    dwell: float  # seconds per sample

    def __post_init__(self):
        n = len(self.samples)
        if n < 2 or n & (n - 1):
            raise ValueError(f"sample count must be a power of two >= 2, got {n}")
        if self.dwell <= 0:
            raise ValueError(f"dwell must be positive, got {self.dwell}")


@dataclass(frozen=True)
class Spectrum:
    frequencies: np.ndarray  # Hz, ascending, spanning (-1/2dwell, +1/2dwell]
    amplitudes: np.ndarray  # complex

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


@dataclass(frozen=True)
class Peak:
    frequency: float  # Hz, parabolic-refined
    amplitude: float  # signed absorptive (real) amplitude
    linewidth: float  # Hz, full width at half maximum


@dataclass(frozen=True)
class ReadoutResult:
    verdict: Parity
    line12: float
    line23: float
    confidence: float

    def to_record(self) -> dict:
        return {"verdict": self.verdict.value, "line12": self.line12,
                "line23": self.line23, "confidence": self.confidence}


def detect(rho: DensityMatrix, flip_deg: float = 30.0) -> DensityMatrix:
    """Clean-up gradient g2 followed by a non-selective pulse about +y."""
    rho = apply_gradient(rho, GradientEvent("g2"))
    if flip_deg == 0.0:
        return rho
    u = pulse_propagator(
        Pulse("nonselective", flip_deg, 90.0, duration_s=0.5e-3)).entries
    return DensityMatrix(u @ rho.entries @ u.conj().T, rho.kind)


def synthesize_fid(rho: DensityMatrix, p: HamiltonianParams, r: RelaxationParams,
                   n: int = DEFAULT_POINTS, dwell: float = DEFAULT_DWELL) -> FID:
    """Two damped tones from the single-quantum coherences of rho.

    Coherence pickup is lower-triangular: c12 = rho[2,1] and c23 = rho[3,2]
    in 1-based level indices, both transitions weighted equally.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")
    nu12, nu23 = transition_frequencies(p)
    nyquist = 1.0 / (2.0 * dwell)
    needed = max(abs(nu12), abs(nu23))
    if needed >= nyquist:
        raise ValueError(
            f"spectral window +-{nyquist:g} Hz too narrow for the "
            f"+-{needed:g} Hz transitions; need bandwidth > {2 * needed:g} Hz"
        )
    c12 = complex(rho.entries[1, 0])
    c23 = complex(rho.entries[2, 1])
    tone12, tone23, decay = _tones(nu12, nu23, r.t2, n, dwell)
    # scalar first: numpy rounds c * arr and arr * c differently for complex
    return FID((c12 * tone12 + c23 * tone23) * decay, dwell)


@functools.lru_cache(maxsize=4)
def _tones(nu12: float, nu23: float, t2: float, n: int, dwell: float):
    """Read-only exp(2 pi i nu12 t), exp(2 pi i nu23 t) and exp(-t/T2)."""
    t = np.arange(n) * dwell
    return (_frozen(np.exp(2j * np.pi * nu12 * t)),
            _frozen(np.exp(2j * np.pi * nu23 * t)),
            _frozen(np.exp(-t / t2)))


def transform(fid: FID) -> Spectrum:
    """DFT with the frequency axis centered at zero, ascending.

    The axis spans (-1/(2 dwell), +1/(2 dwell)]; the -Nyquist bin is reported
    at its +Nyquist alias. A damped tone becomes a Lorentzian of half-width
    1/(pi T2).
    """
    n = len(fid.samples)
    # one roll: fftshift's n/2, then one bin down for the Nyquist alias
    amps = np.roll(np.fft.fft(fid.samples), n // 2 - 1)
    return Spectrum(_frequency_axis(n, fid.dwell), amps)


@functools.lru_cache(maxsize=4)
def _frequency_axis(n: int, dwell: float) -> np.ndarray:
    """Read-only ascending axis of transform, in Hz."""
    freqs = np.roll(np.fft.fftshift(np.fft.fftfreq(n, dwell)), -1)
    freqs[-1] = -freqs[-1]  # -Nyquist bin aliased to +Nyquist
    return _frozen(freqs)


def pick_peaks(s: Spectrum, threshold: float = DEFAULT_PEAK_THRESHOLD) -> list:
    """Local maxima of the absorptive magnitude above threshold * max.

    Frequencies are refined by three-point parabolic interpolation; signed
    amplitudes are preserved.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    absorptive = s.amplitudes.real
    mag = np.abs(absorptive)
    top = float(mag.max(initial=0.0))
    if top == 0.0:
        raise EmptySpectrumError("spectrum has no signal")
    floor = threshold * top
    dnu = s.bin_width
    inner = mag[1:-1]
    hits = np.flatnonzero((inner >= floor) & (inner >= mag[:-2]) & (inner > mag[2:])) + 1
    peaks = []
    for i in hits.tolist():
        alpha, beta, gamma = mag[i - 1], mag[i], mag[i + 1]
        denom = alpha - 2.0 * beta + gamma
        shift = 0.5 * (alpha - gamma) / denom if denom != 0.0 else 0.0
        freq = float(s.frequencies[i] + shift * dnu)
        half = beta / 2.0
        lo = i
        while lo > 0 and mag[lo - 1] >= half:
            lo -= 1
        hi = i
        while hi < len(mag) - 1 and mag[hi + 1] >= half:
            hi += 1
        peaks.append(Peak(freq, float(absorptive[i]), float((hi - lo + 1) * dnu)))
    return peaks


def _line_amplitude(peaks, nu: float, window: float) -> float:
    candidates = [pk for pk in peaks if abs(pk.frequency - nu) <= window]
    if not candidates:
        return 0.0
    return max(candidates, key=lambda pk: abs(pk.amplitude)).amplitude


def classify_spectrum(peaks, p: HamiltonianParams) -> ReadoutResult:
    """Even: a single dominant line at one transition (the other below 10%
    of it). Odd: comparable lines (ratio within [0.5, 2]) of opposite sign.

    Symmetric under a global sign flip and under the sign convention of the
    quadrupolar coupling.
    """
    if not peaks:
        raise EmptySpectrumError("no peaks to classify")
    nu12, nu23 = transition_frequencies(p)
    window = max(0.25 * abs(nu23 - nu12), 1.0)
    line12 = _line_amplitude(peaks, nu12, window)
    line23 = _line_amplitude(peaks, nu23, window)
    a12, a23 = abs(line12), abs(line23)
    if a12 == 0.0 and a23 == 0.0:
        raise UnclassifiableSpectrumError(line12, line23)
    big, small = max(a12, a23), min(a12, a23)
    if small < 0.1 * big:
        confidence = 1.0 - (small / big if big > 0 else 0.0)
        return ReadoutResult(Parity.EVEN, line12, line23, min(max(confidence, 0.0), 1.0))
    ratio = big / small
    if ratio <= 2.0 and line12 * line23 < 0.0:
        confidence = small / big
        return ReadoutResult(Parity.ODD, line12, line23, min(max(confidence, 0.0), 1.0))
    raise UnclassifiableSpectrumError(line12, line23)


# --- columnar text export ---------------------------------------------------

def spectrum_to_text(s: Spectrum) -> str:
    """One row per bin: frequency_hz, real, imag, magnitude."""
    lines = ["# frequency_hz real imag magnitude"]
    # Python floats and complexes: a numpy scalar's repr is "np.float64(...)",
    # and np.abs may differ from abs() in the last digit
    for f, a in zip(s.frequencies.tolist(), s.amplitudes.tolist()):
        lines.append(f"{f!r} {a.real!r} {a.imag!r} {abs(a)!r}")
    return "\n".join(lines) + "\n"


def fid_to_text(fid: FID) -> str:
    """One row per sample: time_s, real, imag."""
    lines = ["# time_s real imag"]
    for k, z in enumerate(fid.samples.tolist()):
        lines.append(f"{k * fid.dwell!r} {z.real!r} {z.imag!r}")
    return "\n".join(lines) + "\n"
