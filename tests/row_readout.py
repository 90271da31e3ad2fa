"""The whole-spectrum readout: the reference that spectro.read_out must equal,
line for line and bit for bit.

It reads one Spectrum at a time: every local maximum of the absorptive
magnitude at or above PEAK_THRESHOLD of the top, then the even/odd rule on
the largest peak near each line. From the package it takes only the rule
(classify_lines, PEAK_THRESHOLD), its outcome types and
transition_frequencies; the peak test, the parabolic vertex and the line
window are written here, so a fault in read_out's own copies shows as a
difference. pytest does not collect this module; test modules import it.
"""

from dataclasses import dataclass

import numpy as np

from qutrit_parity.spectro import (
    NO_PEAKS,
    NO_SIGNAL,
    PEAK_THRESHOLD,
    UnclassifiableSpectrumError,
    classify_lines,
)
from qutrit_parity.spin import transition_frequencies


@dataclass(frozen=True)
class Peak:
    frequency: float  # Hz, parabolic-refined
    amplitude: float  # signed absorptive (real) amplitude


def pick_peaks(s) -> list:
    """The peaks of the Spectrum s: each bin whose absorptive magnitude is at
    least PEAK_THRESHOLD * max, at least its lower neighbour's and above its
    upper neighbour's (so a plateau peaks at its last bin).

    Frequencies are refined by three-point parabolic interpolation; signed
    amplitudes are preserved.
    """
    absorptive = s.amplitudes.real
    mag = np.abs(absorptive)
    top = float(mag.max(initial=0.0))
    if top == 0.0:
        raise UnclassifiableSpectrumError(why=NO_SIGNAL)
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


def classify_spectrum(peaks, p):
    """classify_lines on the largest peak within the line window of each
    transition, max(|nu23 - nu12| / 4, 1 Hz); raises the
    UnclassifiableSpectrumError it returns, or NO_PEAKS for no peaks."""
    if not peaks:
        raise UnclassifiableSpectrumError(why=NO_PEAKS)
    nu12, nu23 = transition_frequencies(p)
    window = max(0.25 * abs(nu23 - nu12), 1.0)
    readout = classify_lines(_line_amplitude(peaks, nu12, window),
                             _line_amplitude(peaks, nu23, window))
    if isinstance(readout, UnclassifiableSpectrumError):
        raise readout
    return readout
