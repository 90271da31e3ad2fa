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

from .core import ENTRY_TOL, DensityMatrix, _frozen, apply_unitary
from .permutations import Parity
from .spin import (
    GradientEvent,
    HamiltonianParams,
    Pulse,
    RelaxationParams,
    crush,
    pulse_propagator,
    transition_frequencies,
)

#: default acquisition: +-2000 Hz window, ~0.98 Hz per bin
DEFAULT_POINTS = 4096
DEFAULT_DWELL = 1.0 / 4000.0

#: peaks below this fraction of the strongest line are ignored; classify_lines'
#: 10% single-line dominance rule (even parity) reads it too, as the two must match
PEAK_THRESHOLD = 0.1

#: read_out builds the spectra of its rows in chunks of at most this many
#: bytes per real array (one row at least): 16 rows at n = 4096
CHUNK_BYTES = 512 * 1024

#: why pick_peaks and classify_spectrum find a spectrum without a peak unclassifiable
NO_SIGNAL, NO_PEAKS = "spectrum has no signal", "no peaks to classify"


class UnclassifiableSpectrumError(ValueError):
    """Line pattern matches neither the even nor the odd signature; the
    message is why, when given (NO_SIGNAL or NO_PEAKS)."""

    def __init__(self, line12: float = 0.0, line23: float = 0.0, why: str = ""):
        super().__init__(why or f"spectrum matches neither parity signature "
                                f"(line12 = {line12:.6g}, line23 = {line23:.6g})")
        self.line12, self.line23 = line12, line23


@dataclass(frozen=True)
class FID:
    samples: np.ndarray  # complex, length a power of two
    dwell: float  # seconds per sample

    def __post_init__(self):
        _check_sampling(len(self.samples), self.dwell)


def _check_sampling(n: int, dwell: float):
    """Raise ValueError unless n is a power of two >= 2 and dwell > 0."""
    if n < 2 or n & (n - 1) or not dwell > 0:
        raise ValueError(f"need n samples, a power of two >= 2, and dwell > 0; "
                         f"got n = {n}, dwell = {dwell}")


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


@dataclass(frozen=True)
class ReadoutResult:
    verdict: Parity
    line12: float
    line23: float
    confidence: float

    def to_record(self) -> dict:
        return {"verdict": self.verdict.value, "line12": self.line12,
                "line23": self.line23, "confidence": self.confidence}


def detection_events(flip_deg: float) -> list:
    """Clean-up gradient g2 followed by a non-selective pulse about +y."""
    return [GradientEvent("g2"), Pulse("nonselective", flip_deg, 90.0, duration_s=0.5e-3)]


def detect(rho: DensityMatrix, flip_deg: float) -> DensityMatrix:
    """detection_events on one density matrix, by spin.crush and core.apply_unitary."""
    crushed = DensityMatrix(crush(rho.entries), rho.kind)
    return apply_unitary(crushed, pulse_propagator(detection_events(flip_deg)[1]))


def check_acquisition(p: HamiltonianParams, r: RelaxationParams, n: int,
                      dwell: float) -> tuple[float, float]:
    """The line offsets (nu12, nu23) in Hz; ValueError unless n samples at dwell
    hold both lines in a finite window +-1/(2 dwell) and the T2 decay over them."""
    _check_sampling(n, dwell)
    nu12, nu23 = transition_frequencies(p)
    nyquist, needed = 1.0 / (2.0 * dwell), max(abs(nu12), abs(nu23))
    if not needed < nyquist < np.inf:
        raise ValueError(f"need finite bandwidth > {2 * needed:g} Hz for lines at "
                         f"+-{needed:g} Hz, got window +-{nyquist:g} Hz (dwell {dwell:g} s)")
    if not n * dwell / r.t2 < np.inf:  # else exp(-t / T2) overflows
        raise ValueError(f"T2 = {r.t2:g} s decay over {n} samples of {dwell:g} s "
                         "is not representable")
    return nu12, nu23


def synthesize_fid(rho: DensityMatrix, p: HamiltonianParams, r: RelaxationParams,
                   n: int = DEFAULT_POINTS, dwell: float = DEFAULT_DWELL) -> FID:
    """Two damped tones from the single-quantum coherences of rho.

    Coherence pickup is lower-triangular: c12 = rho[2,1] and c23 = rho[3,2]
    in 1-based level indices, both transitions weighted equally. Coherences
    at rounding level (_coherences) give no signal.
    """
    tone12, tone23, decay = _tones(*check_acquisition(p, r, n, dwell), r.t2, n, dwell)
    c12, c23 = _coherences(rho.entries[None])
    # coefficient first: numpy rounds c * arr and arr * c differently for complex
    return FID(((c12 * tone12 + c23 * tone23) * decay)[0], dwell)


def _coherences(rhos: np.ndarray):
    """The (R, 1) columns c12 and c23 of an (R, 3, 3) stack, 0 in each row where
    both are rounding noise: max(|c12|, |c23|) <= ENTRY_TOL * max |row entry|."""
    c12, c23 = rhos[:, 1, 0, None], rhos[:, 2, 1, None]
    scale = np.abs(rhos).max(axis=(1, 2))[:, None]
    silent = np.maximum(np.abs(c12), np.abs(c23)) <= ENTRY_TOL * scale
    return np.where(silent, 0.0, c12), np.where(silent, 0.0, c23)


@functools.lru_cache(maxsize=4)
def _tones(nu12: float, nu23: float, t2: float, n: int, dwell: float):
    """Read-only exp(2 pi i nu12 t), exp(2 pi i nu23 t) and exp(-t/T2)."""
    t = np.arange(n) * dwell
    return (_frozen(np.exp(2j * np.pi * nu12 * t)),
            _frozen(np.exp(2j * np.pi * nu23 * t)),
            _frozen(np.exp(-t / t2)))


@functools.lru_cache(maxsize=4)
def _basis(nu12: float, nu23: float, t2: float, n: int, dwell: float):
    """Read-only real and imaginary parts (P12, Q12, P23, Q23) of the spectra
    of the unit damped tones tone12 * decay and tone23 * decay, in transform's
    bin order."""
    tone12, tone23, decay = _tones(nu12, nu23, t2, n, dwell)
    parts = []
    for tone in (tone12, tone23):
        s = transform(FID(tone * decay, dwell)).amplitudes
        parts += [_frozen(s.real), _frozen(s.imag)]
    return tuple(parts)


def _combine(x12, y12, x23, y23, basis, out: np.ndarray) -> np.ndarray:
    """x12 P12 - y12 Q12 + x23 P23 - y23 Q23 for (R, 1) real coefficient
    columns, into the (R, n) real array out, always in this order: the real
    part of c12 S12 + c23 S23 for c = x + iy, and its imaginary part for the
    coefficients (y, -x). Each operation is elementwise, so a row's bits do
    not depend on the rows beside it."""
    p12, q12, p23, q23 = basis
    np.multiply(x12, p12, out=out)
    out -= y12 * q12
    out += x23 * p23
    out -= y23 * q23
    return out


def spectrum(rho: DensityMatrix, p: HamiltonianParams, r: RelaxationParams,
             n: int = DEFAULT_POINTS, dwell: float = DEFAULT_DWELL) -> Spectrum:
    """The spectrum that read_out reads: c12 S12 + c23 S23, with S12 and S23
    the cached transforms of the two unit damped tones. It equals
    transform(synthesize_fid(rho)) up to rounding, as the DFT is linear."""
    basis = _basis(*check_acquisition(p, r, n, dwell), r.t2, n, dwell)
    c12, c23 = _coherences(rho.entries[None])
    amps = np.empty((1, n), complex)
    _combine(c12.real, c12.imag, c23.real, c23.imag, basis, amps.real)
    _combine(c12.imag, -c12.real, c23.imag, -c23.real, basis, amps.imag)
    return Spectrum(_frequency_axis(n, dwell), amps[0])


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


def _is_peak(alpha, beta, gamma, floor):
    """Where magnitude beta, between alpha and gamma, is a local maximum at or above floor."""
    return (beta >= floor) & (beta >= alpha) & (beta > gamma)


def _vertex(alpha, beta, gamma, where=True):
    """Three-point parabolic vertex offset in bins, 0 outside `where`. At a peak
    (_is_peak) the denominator is negative and the offset lies in [-1/2, 1/2]."""
    return np.divide(0.5 * (alpha - gamma), alpha - 2.0 * beta + gamma,
                     out=np.zeros(np.shape(beta)), where=where)


def pick_peaks(s: Spectrum) -> list:
    """Local maxima of the absorptive magnitude at or above PEAK_THRESHOLD * max.

    Frequencies are refined by three-point parabolic interpolation; signed
    amplitudes are preserved.
    """
    absorptive = s.amplitudes.real
    mag = np.abs(absorptive)
    top = float(mag.max(initial=0.0))
    if top == 0.0:
        raise UnclassifiableSpectrumError(why=NO_SIGNAL)
    hits = np.flatnonzero(_is_peak(mag[:-2], mag[1:-1], mag[2:], PEAK_THRESHOLD * top)) + 1
    freqs = (s.frequencies[hits]
             + _vertex(mag[hits - 1], mag[hits], mag[hits + 1]) * s.bin_width)
    return [Peak(f, a) for f, a in zip(freqs.tolist(), absorptive[hits].tolist())]


def read_out(rhos: np.ndarray, p: HamiltonianParams, r: RelaxationParams,
             n: int = DEFAULT_POINTS, dwell: float = DEFAULT_DWELL) -> list:
    """The readout of each row of an (R, 3, 3) stack of detected deviations.

    Row k's outcome is the ReadoutResult that
    classify_spectrum(pick_peaks(spectrum(row k))) returns, or the
    UnclassifiableSpectrumError it raises (NO_SIGNAL or NO_PEAKS when the
    spectrum holds no peak), with the same message and, bit for bit, the same
    lines. The real parts of the rows' spectra are built in chunks of
    CHUNK_BYTES per real array, and only the bins that can hold a peak within
    the window of a line are examined.
    """
    nu12, nu23 = check_acquisition(p, r, n, dwell)
    basis = _basis(nu12, nu23, r.t2, n, dwell)
    window = _line_window(nu12, nu23)
    freqs = _frequency_axis(n, dwell)
    dnu = float(freqs[1] - freqs[0])
    # a peak's vertex lies within half a bin of its bin, so only the bins
    # within window + 2 dnu of a line, less the two edge bins, can qualify
    total = len(rhos)
    line12, line23 = np.zeros(total), np.zeros(total)
    near = []
    for nu, line in ((nu12, line12), (nu23, line23)):
        bins = np.flatnonzero(np.abs(freqs - nu) <= window + 2.0 * dnu)
        bins = bins[(bins > 0) & (bins < n - 1)]
        if bins.size:
            near.append((nu, freqs[bins], slice(bins[0] - 1, bins[-1] + 2), line))

    empty = {}
    c12, c23 = _coherences(rhos)
    rows = max(1, min(total, CHUNK_BYTES // (8 * n)))
    buf = np.empty((rows, n))
    for start in range(0, total, rows):
        k = min(rows, total - start)
        chunk = slice(start, start + k)
        re = _combine(c12[chunk].real, c12[chunk].imag, c23[chunk].real, c23[chunk].imag,
                      basis, buf[:k])
        top = np.maximum(re.max(axis=1), -re.min(axis=1))
        floor = (PEAK_THRESHOLD * top)[:, None]
        found = np.zeros(k, bool)
        for nu, centre, span, line in near:
            signed = re[:, span]
            mag = np.abs(signed)
            alpha, beta, gamma = mag[:, :-2], mag[:, 1:-1], mag[:, 2:]
            peak = _is_peak(alpha, beta, gamma, floor)
            found |= peak.any(axis=1)
            freq = centre + _vertex(alpha, beta, gamma, peak) * dnu
            inside = peak & (np.abs(freq - nu) <= window)
            best = np.where(inside, beta, -1.0).argmax(axis=1)  # first largest |amplitude|
            line[chunk] = np.where(inside.any(axis=1), signed[np.arange(k), best + 1], 0.0)
        for i in np.flatnonzero(~found).tolist():  # rare: no peak near either line
            mag = np.abs(re[i])  # the whole spectrum
            if top[i] == 0.0 or not _is_peak(mag[:-2], mag[1:-1], mag[2:], floor[i]).any():
                empty[start + i] = UnclassifiableSpectrumError(
                    why=NO_PEAKS if top[i] else NO_SIGNAL)
    return [empty.get(k) or classify_lines(a, b)
            for k, (a, b) in enumerate(zip(line12.tolist(), line23.tolist()))]


def _line_window(nu12: float, nu23: float) -> float:
    """Half-width in Hz around each line inside which a peak counts as that line."""
    return max(0.25 * abs(nu23 - nu12), 1.0)


def _line_amplitude(peaks, nu: float, window: float) -> float:
    candidates = [pk for pk in peaks if abs(pk.frequency - nu) <= window]
    if not candidates:
        return 0.0
    return max(candidates, key=lambda pk: abs(pk.amplitude)).amplitude


def classify_spectrum(peaks, p: HamiltonianParams) -> ReadoutResult:
    """classify_lines on the lines of the peaks nearest each transition; raises
    the UnclassifiableSpectrumError it returns."""
    if not peaks:
        raise UnclassifiableSpectrumError(why=NO_PEAKS)
    nu12, nu23 = transition_frequencies(p)
    window = _line_window(nu12, nu23)
    readout = classify_lines(_line_amplitude(peaks, nu12, window),
                             _line_amplitude(peaks, nu23, window))
    if isinstance(readout, UnclassifiableSpectrumError):
        raise readout
    return readout


def classify_lines(line12: float, line23: float):
    """The even/odd rule: a ReadoutResult, or the UnclassifiableSpectrumError of
    lines that match neither signature, returned rather than raised.

    Even: a single dominant line at one transition (the other below 10% of
    it). Odd: comparable lines (ratio within [0.5, 2]) of opposite sign.
    Symmetric under a global sign flip and under the sign convention of the
    quadrupolar coupling.
    """
    a12, a23 = abs(line12), abs(line23)
    if a12 == 0.0 and a23 == 0.0:
        return UnclassifiableSpectrumError(line12, line23)
    big, small = max(a12, a23), min(a12, a23)
    # big > 0 here, so the confidence lies in (0.9, 1] if even, [0.5, 1] if odd;
    # small == 0 is even too when PEAK_THRESHOLD * big underflows to 0
    if small < PEAK_THRESHOLD * big or small == 0.0:
        return ReadoutResult(Parity.EVEN, line12, line23, 1.0 - small / big)
    if big / small <= 2.0 and line12 * line23 < 0.0:
        return ReadoutResult(Parity.ODD, line12, line23, small / big)
    return UnclassifiableSpectrumError(line12, line23)


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
