"""The whole-spectrum readout: the reference that spectro.read_out must equal,
line for line and bit for bit.

It reads one Spectrum at a time: every local maximum of the absorptive
magnitude at or above PEAK_THRESHOLD of the top, then the even/odd rule on
the largest peak near each line. From the package it takes only the rule
(classify_lines, called on length-1 arrays, and PEAK_THRESHOLD), its outcome
codes and transition_frequencies; the peak test, the parabolic vertex and the
line window are written here, so a fault in read_out's own copies shows as a
difference. pytest does not collect this module; test modules import it.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qutrit_parity.spectro import NO_PEAKS, NO_SIGNAL, PEAK_THRESHOLD, classify_lines
from qutrit_parity.spin import transition_frequencies


class Readout(NamedTuple):
    """One run's row of read_out's columns."""

    line12: float
    line23: float
    confidence: float
    code: int


@dataclass(frozen=True)
class Peak:
    frequency: float  # Hz, parabolic-refined
    amplitude: float  # signed absorptive (real) amplitude


def pick_peaks(s) -> list:
    """The peaks of the Spectrum s: each bin whose absorptive magnitude is at
    least PEAK_THRESHOLD * max, at least its lower neighbour's and above its
    upper neighbour's (so a plateau peaks at its last bin; an all-zero
    spectrum has none).

    Frequencies are refined by three-point parabolic interpolation; signed
    amplitudes are preserved.
    """
    absorptive = s.amplitudes.real
    mag = np.abs(absorptive)
    top = float(mag.max(initial=0.0))
    below, centre, above = mag[:-2], mag[1:-1], mag[2:]
    hits = np.flatnonzero((centre >= PEAK_THRESHOLD * top) & (centre >= below)
                          & (centre > above)) + 1
    alpha, beta, gamma = mag[hits - 1], mag[hits], mag[hits + 1]
    offset = 0.5 * (alpha - gamma) / (alpha - 2.0 * beta + gamma)  # in bins
    freqs = s.frequencies[hits] + offset * s.bin_width
    return [Peak(f, a) for f, a in zip(freqs.tolist(), absorptive[hits].tolist())]


def _line_amplitude(peaks, nu: float, window: float) -> float:
    candidates = [pk for pk in peaks if abs(pk.frequency - nu) <= window]
    if not candidates:
        return 0.0
    return max(candidates, key=lambda pk: abs(pk.amplitude)).amplitude


def classify_spectrum(peaks, p) -> Readout:
    """classify_lines on the largest peak within the line window of each
    transition, max(|nu23 - nu12| / 4, 1 Hz), or NO_PEAKS for no peaks."""
    if not peaks:
        return Readout(0.0, 0.0, float("nan"), NO_PEAKS)
    nu12, nu23 = transition_frequencies(p)
    window = max(0.25 * abs(nu23 - nu12), 1.0)
    line12, line23 = (_line_amplitude(peaks, nu, window) for nu in (nu12, nu23))
    code, confidence = classify_lines(np.array([line12]), np.array([line23]))
    return Readout(line12, line23, confidence.item(), code.item())


def read_spectrum(s, p) -> Readout:
    """NO_SIGNAL for a Spectrum s whose real part is all zero, else
    classify_spectrum(pick_peaks(s), p)."""
    if not np.abs(s.amplitudes.real).max(initial=0.0):
        return Readout(0.0, 0.0, float("nan"), NO_SIGNAL)
    return classify_spectrum(pick_peaks(s), p)
