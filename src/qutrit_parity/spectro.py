"""Detection pulse, FID synthesis, spectrum, parity readout.

The readout, read_out, is the bins near the two lines of the transforms of
the two unit damped tones (_near_lines, read off each FFT; the whole cached
transforms, _basis, only for a run those bins cannot settle) plus the
even/odd rule (classify_lines) on the largest peak near each line. The rule
keys on the line pattern (count, magnitude ratio, relative sign), never on
absolute sign: the laboratory pseudopure deviation carries a negative
pseudopure coefficient and the sign of the quadrupolar coupling is a
convention, so only the pattern is meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ENTRY_TOL, DensityMatrix, _frozen
from .spin import (
    GradientEvent,
    HamiltonianParams,
    Pulse,
    RelaxationParams,
    pulse_propagator,
    run_pulse_program,
    transition_frequencies,
)

#: default acquisition: +-2000 Hz window, ~0.98 Hz per bin
DEFAULT_POINTS = 4096
DEFAULT_DWELL = 1.0 / 4000.0

#: peaks below this fraction of the strongest line are ignored; classify_lines'
#: 10% single-line dominance rule (even parity) reads it too, as the two must match
PEAK_THRESHOLD = 0.1

#: read_out builds its rows' near-line bins in chunks of at most this many
#: bytes (one row at least). A row it must build whole takes n
#: doubles, in chunks of the same size: 16 rows at n = 4096, one from n = 65536.
CHUNK_BYTES = 512 * 1024

#: read_out tests for peaks the bins within this many line half-widths,
#: 1/(2 pi T2), of either line (and within the line window); it bounds the
#: other bins exactly, so this sets how many rows are built whole, never a result
SPAN_HALF_WIDTHS = 4.0

#: read_out's outcome code of each run: its parity, or why it has none (lines
#: that match neither signature, a spectrum without signal, or without a peak)
EVEN, ODD, NEITHER, NO_SIGNAL, NO_PEAKS = range(5)

#: the text exports format and yield this many rows at a time
EXPORT_BLOCK = 512


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


class Spectrum(NamedTuple):
    frequencies: np.ndarray  # Hz, ascending, spanning (-1/2dwell, +1/2dwell]
    amplitudes: np.ndarray  # complex

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


def detection_events(flip_deg: float) -> list:
    """Clean-up gradient g2 followed by a non-selective pulse about +y."""
    return [GradientEvent("g2"), Pulse("nonselective", flip_deg, 90.0, duration_s=0.5e-3)]


def detect(rho: DensityMatrix, flip_deg: float) -> DensityMatrix:
    """detection_events on one density matrix, through the pulse engine; the
    detection pulse is checked unitary at this single-matrix boundary."""
    events = detection_events(flip_deg)
    pulse_propagator(events[1])
    return run_pulse_program(rho, events)


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
    nu12, nu23 = check_acquisition(p, r, n, dwell)
    t, decay = _times(r.t2, n, dwell)
    c12, c23 = _coherences(rho.entries[None])
    fid, tone = _tone(nu12, t, np.empty(n, complex)), _tone(nu23, t, np.empty(n, complex))
    # coefficient first: numpy rounds c * arr and arr * c differently for complex
    np.multiply(c12[0], fid, out=fid)
    np.multiply(c23[0], tone, out=tone)
    fid += tone
    fid *= decay
    return FID(fid, dwell)


def _coherences(rhos: np.ndarray):
    """The (R, 1) columns c12 and c23 of an (R, 3, 3) stack, 0 in each row where
    both are rounding noise: max(|c12|, |c23|) <= ENTRY_TOL * max |row entry|."""
    c12, c23 = rhos[:, 1, 0, None], rhos[:, 2, 1, None]
    scale = np.abs(rhos).max(axis=(1, 2))[:, None]
    silent = np.maximum(np.abs(c12), np.abs(c23)) <= ENTRY_TOL * scale
    return np.where(silent, 0.0, c12), np.where(silent, 0.0, c23)


def _times(t2: float, n: int, dwell: float):
    """The sample times t = k dwell and the decay exp(-t / T2)."""
    t = np.arange(n) * dwell
    decay = -t
    decay /= t2
    return t, np.exp(decay, out=decay)


def _tone(nu: float, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(2 pi i nu t), built in the complex array out."""
    return np.exp(np.multiply(2j * np.pi * nu, t, out=out), out=out)


def _spectra(nu12: float, nu23: float, t2: float, n: int, dwell: float):
    """The spectra of the unit damped tones tone12 * decay and tone23 * decay,
    in FFT order, yielded in turn in one complex buffer; each tone's times and
    decay are dropped before its FFT."""
    tone = np.empty(n, complex)
    for nu in (nu12, nu23):
        t, decay = _times(t2, n, dwell)
        np.multiply(_tone(nu, t, tone), decay, out=tone)
        del t, decay
        yield np.fft.fft(tone, out=tone)


@functools.lru_cache(maxsize=4)
def _basis(nu12: float, nu23: float, t2: float, n: int, dwell: float):
    """Read-only real and imaginary parts (P12, Q12, P23, Q23) of _spectra, in
    transform's bin order: four arrays of n doubles, for the rows read_out
    builds whole."""
    return tuple(_frozen(_bin_order(part, np.empty(n)))
                 for s in _spectra(nu12, nu23, t2, n, dwell) for part in (s.real, s.imag))


@functools.lru_cache(maxsize=4)
def _near_lines(nu12: float, nu23: float, t2: float, n: int, dwell: float):
    """The bins read_out builds for one acquisition: (window, dnu, near, far).

    A peak's vertex lies within half a bin of its bin, so only the bins within
    window + 2 dnu of a line, less the two edge bins, can hold that line.
    read_out tests for peaks the bins within reach + 2 dnu of either line,
    reach = min(window, SPAN_HALF_WIDTHS / (2 pi T2)), less the edge bins,
    and any bin between two tested ones. near = (axis, parts) holds every
    tested bin and its two neighbours, in ascending order: their axis and
    read-only copies of the four _basis arrays over them. far holds max |P12|,
    |Q12|, |P23|, |Q23| over the untested bins, or 0.0 where there are none.
    Both are read off each spectrum that _spectra yields, at the FFT indices
    of the bins (_bin_order), so no n-sized array outlives the call.
    """
    freqs = _frequency_axis(n, dwell)
    window, dnu = _line_window(nu12, nu23), float(freqs[1] - freqs[0])
    reach = min(window, SPAN_HALF_WIDTHS / (2.0 * np.pi * t2))
    radius = reach + 2.0 * dnu
    tested = (np.abs(freqs - nu12) <= radius) | (np.abs(freqs - nu23) <= radius)
    tested[[0, -1]] = False  # an edge bin is never a peak
    tested[1:-1] |= tested[:-2] & tested[2:]
    kept = tested | np.roll(tested, 1) | np.roll(tested, -1)  # no edge bin is tested
    order = _bin_order(np.arange(n), np.empty(n, int))  # each bin's FFT index
    at, untested = order[kept], np.empty(n, bool)
    untested[order] = ~tested
    del order
    parts, far = [], []
    for s in _spectra(nu12, nu23, t2, n, dwell):
        for part in (s.real, s.imag):
            parts.append(_frozen(part[at]))
            hi, lo = (f(part, where=untested, initial=0.0) for f in (np.max, np.min))
            far.append(float(max(hi, -lo)))  # max |part|, with no n-sized |part|
    return window, dnu, (_frozen(freqs[kept]), tuple(parts)), tuple(far)


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


def _far_bound(x12, y12, x23, y23, far) -> np.ndarray:
    """((|x12| F_P12 + |y12| F_Q12) + |x23| F_P23) + |y23| F_Q23 per row, for
    (R, 1) coefficient columns and far = (F_P12, F_Q12, F_P23, F_Q23), the
    largest |P12|, |Q12|, |P23|, |Q23| over some bins. It takes _combine's
    order and rounding is monotone, so it bounds _combine's |result| at every
    one of those bins, with no margin: for a row with one nonzero
    coefficient it equals their largest."""
    fp12, fq12, fp23, fq23 = far
    return (((np.abs(x12) * fp12 + np.abs(y12) * fq12) + np.abs(x23) * fp23)
            + np.abs(y23) * fq23)[:, 0]


def spectrum(rho: DensityMatrix, p: HamiltonianParams, r: RelaxationParams,
             n: int = DEFAULT_POINTS, dwell: float = DEFAULT_DWELL) -> Spectrum:
    """The spectrum that read_out reads: c12 S12 + c23 S23, with S12 and S23
    the spectra of the two unit damped tones, summed as _spectra yields them
    in _combine's order of operations for each bin, then put in bin order
    once. It equals transform(synthesize_fid(rho)) up to rounding, as the
    DFT is linear."""
    nu12, nu23 = check_acquisition(p, r, n, dwell)
    amps = np.empty((1, n), complex)
    tones = zip(_spectra(nu12, nu23, r.t2, n, dwell), _coherences(rho.entries[None]))
    for k, (s, c) in enumerate(tones):
        for out, x, y in ((amps.real, c.real, c.imag), (amps.imag, c.imag, -c.real)):
            if k:
                out += x * s.real
            else:
                np.multiply(x, s.real, out=out)
            out -= y * s.imag
    del s  # the tone buffer
    return Spectrum(_frequency_axis(n, dwell), _bin_order(amps[0], np.empty(n, complex)))


def transform(fid: FID) -> Spectrum:
    """DFT with the frequency axis centered at zero, ascending.

    The axis spans (-1/(2 dwell), +1/(2 dwell)]; the -Nyquist bin is reported
    at its +Nyquist alias. A damped tone becomes a Lorentzian of full width
    1/(pi T2) at half maximum, half-width 1/(2 pi T2).
    """
    amps = np.fft.fft(fid.samples)
    return Spectrum(_frequency_axis(len(amps), fid.dwell), _bin_order(amps, np.empty_like(amps)))


def _bin_order(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x, in FFT order, written into out in transform's bin order: one roll,
    fftshift's n/2, then one bin down for the Nyquist alias."""
    shift = len(x) // 2 - 1
    out[shift:], out[:shift] = x[:len(x) - shift], x[len(x) - shift:]
    return out


@functools.lru_cache(maxsize=4)
def _frequency_axis(n: int, dwell: float) -> np.ndarray:
    """Read-only ascending axis of transform, in Hz."""
    freqs = _bin_order(np.fft.fftfreq(n, dwell), np.empty(n))
    freqs[-1] = -freqs[-1]  # -Nyquist bin aliased to +Nyquist
    return _frozen(freqs)


def _is_peak(alpha, beta, gamma, floor):
    """Where magnitude beta, between alpha and gamma, is a local maximum at or above floor."""
    return (beta >= floor) & (beta >= alpha) & (beta > gamma)


def _vertex(alpha, beta, gamma):
    """Three-point parabolic vertex offset in bins. At a peak (_is_peak) the
    denominator is negative and the offset lies in [-1/2, 1/2]."""
    return 0.5 * (alpha - gamma) / (alpha - 2.0 * beta + gamma)


def read_out(rhos: np.ndarray, p: HamiltonianParams, r: RelaxationParams,
             n: int = DEFAULT_POINTS, dwell: float = DEFAULT_DWELL) -> tuple:
    """The readout of each row of an (R, 3, 3) stack of detected deviations, as
    the columns (line12, line23, confidence, code) of R values each.

    Row k's outcome is read from Re, the real part of spectrum(row k). Its
    peaks are the bins whose |Re| is at least PEAK_THRESHOLD times the top |Re|
    of all bins, at least the lower neighbour's and above the upper one's
    (_is_peak), each at its frequency plus _vertex bins. line12 and line23 are
    the Re of the largest-|Re| peak (the lowest, if tied) within _line_window
    of nu12 and nu23, or 0.0, and the code and confidence are classify_lines'
    on them; an all-zero spectrum is NO_SIGNAL, and one with no peak NO_PEAKS.

    Re is built, a chunk of rows at a time, only over the near-line bins of
    _near_lines, and their peaks are read (_read_peaks). For c = x + iy, the
    bound B = ((|x12| F_P12 + |y12| F_Q12) + |x23| F_P23) + |y23| F_Q23
    (_far_bound) over the maxima F of the basis arrays on the untested bins
    bounds the computed |Re| of each of those bins exactly. So a row's
    reading is its whole spectrum's when B < PEAK_THRESHOLD * top (no
    untested bin peaks) or both lines' |Re| exceed B (no untested bin
    outweighs them; both are then peaks, and B < top, as a line is the Re of
    a near bin). Every other row is built over all n bins, from _basis,
    which is built only then, and read by the same _read_peaks.
    """
    nu12, nu23 = check_acquisition(p, r, n, dwell)
    window, dnu, (axis, parts), far = _near_lines(nu12, nu23, r.t2, n, dwell)
    total = len(rhos)
    lines, top = np.zeros((2, total)), np.zeros(total)  # line12, line23
    found, settled = np.zeros(total, bool), np.zeros(total, bool)
    c12, c23 = _coherences(rhos)
    coefs = c12.real, c12.imag, c23.real, c23.imag
    read = functools.partial(_read_peaks, (nu12, nu23), window, dnu)
    for i, x, re in _build(np.arange(total), coefs, parts):
        lines[:, i], top[i], found[i] = read(axis, re)
        bound = _far_bound(*x, far)
        settled[i] = ((bound < PEAK_THRESHOLD * top[i])
                      | (np.abs(lines[:, i]) > bound).all(axis=0))
    whole = np.flatnonzero(~settled)
    if len(whole):
        axis, basis = _frequency_axis(n, dwell), _basis(nu12, nu23, r.t2, n, dwell)
        for i, _, re in _build(whole, coefs, basis):
            lines[:, i], top[i], found[i] = read(axis, re)
    code, confidence = classify_lines(*lines)
    code[~found] = np.where(top[~found] > 0.0, NO_PEAKS, NO_SIGNAL)
    return lines[0], lines[1], confidence, code


def _build(rows: np.ndarray, coefs, parts):
    """(some of rows, their coefficient columns, their Re over the bins of
    parts, the four basis arrays over some bins) for the given rows of coefs =
    (x12, y12, x23, y23), in one buffer, CHUNK_BYTES (one row at least) at a time."""
    step = max(1, CHUNK_BYTES // (8 * max(len(parts[0]), 1)))
    buf = np.empty((min(step, len(rows)), len(parts[0])))
    for start in range(0, len(rows), step):
        i = rows[start:start + step]
        x = [c[i] for c in coefs]
        yield i, x, _combine(*x, parts, buf[:len(i)])


def _read_peaks(nus, window: float, dnu: float, axis, re):
    """(lines, top, found) of the rows of re, their Re over the ascending axis:
    each row's top |Re|, whether a bin but the first and last peaks over the
    floor PEAK_THRESHOLD * top, and the (2, rows) Re of the largest-|Re| such
    peak within window of each line of nus, the lowest if tied, or 0.0.

    Over the near-line bins, a kept bin that read_out does not test may peak
    here as well, but it changes no outcome: its |Re| <= B, the far bound,
    so a peak there is over the floor only if B is, and it displaces a line
    only if that line's |Re| <= B. It can neither settle a row nor displace
    a settled row's line; its row is read again whole."""
    mag = np.abs(re)
    top = mag.max(axis=1, initial=0.0)
    floor = (PEAK_THRESHOLD * top)[:, None]
    at = np.flatnonzero(_is_peak(mag[:, :-2], mag[:, 1:-1], mag[:, 2:], floor))
    row, col = np.divmod(at, mag.shape[1] - 2)
    found = np.bincount(row, minlength=len(re)) > 0
    at += 2 * row + 1  # each peak's flat index into mag and re
    m = mag.ravel()
    freq = axis[col + 1] + _vertex(m[at - 1], m[at], m[at + 1]) * dnu
    order = np.lexsort((-m[at], row))  # stable: by row, then by falling |Re|, then by bin
    row, at, freq = row[order], at[order], freq[order]
    lines = np.zeros((2, len(re)))
    for line, nu in zip(lines, nus):
        inside = np.abs(freq - nu) <= window
        near = row[inside]
        line[near] = re.ravel()[at[inside][np.searchsorted(near, near)]]
    return lines, top, found


def _line_window(nu12: float, nu23: float) -> float:
    """Half-width in Hz around each line inside which a peak counts as that line."""
    return max(0.25 * abs(nu23 - nu12), 1.0)


def classify_lines(line12: np.ndarray, line23: np.ndarray) -> tuple:
    """The even/odd rule on arrays of line amplitudes: (code, confidence), the
    code EVEN, ODD or NEITHER.

    Even: a single dominant line at one transition (the other below 10% of
    it). Odd: comparable lines (ratio within [0.5, 2]) of opposite sign.
    Symmetric under a global sign flip and under the sign convention of the
    quadrupolar coupling. The confidence is 1 - small/big if even, and
    small/big otherwise (nan where both lines are 0).
    """
    big = np.maximum(np.abs(line12), np.abs(line23))
    small = np.minimum(np.abs(line12), np.abs(line23))
    # x / 0, 0 / 0 or a quotient past the largest double gives inf or nan, and
    # only in rows that the rule leaves NEITHER or finds even without it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = small / big
        # big > 0 gives a confidence in (0.9, 1] if even, [0.5, 1] if odd;
        # small == 0 is even too when PEAK_THRESHOLD * big underflows to 0
        even = (big > 0.0) & ((small < PEAK_THRESHOLD * big) | (small == 0.0))
        odd = ~even & (big / small <= 2.0) & (line12 * line23 < 0.0)
    code = np.select([even, odd], [EVEN, ODD], NEITHER)
    return code, np.where(even, 1.0 - ratio, ratio)


def why(line12: float, line23: float, code: int) -> str:
    """Why a run with these lines and outcome code has no parity."""
    return {NO_SIGNAL: "spectrum has no signal", NO_PEAKS: "no peaks to classify"}.get(
        code, f"spectrum matches neither parity signature (line12 = {line12:.6g}, "
              f"line23 = {line23:.6g})")


# --- columnar text export ---------------------------------------------------

def spectrum_rows(s: Spectrum):
    """The header, then one str per EXPORT_BLOCK bins, one row per bin:
    frequency_hz, real, imag, magnitude."""
    yield "# frequency_hz real imag magnitude\n"
    for a in range(0, len(s.frequencies), EXPORT_BLOCK):
        b = a + EXPORT_BLOCK
        # Python floats and complexes: a numpy scalar's repr is "np.float64(...)",
        # and np.abs may differ from abs() in the last digit
        yield "".join([f"{f!r} {z.real!r} {z.imag!r} {abs(z)!r}\n" for f, z in
                       zip(s.frequencies[a:b].tolist(), s.amplitudes[a:b].tolist())])


def fid_rows(fid: FID):
    """The header, then one str per EXPORT_BLOCK samples, one row per sample:
    time_s, real, imag."""
    yield "# time_s real imag\n"
    for a in range(0, len(fid.samples), EXPORT_BLOCK):
        yield "".join([f"{k * fid.dwell!r} {z.real!r} {z.imag!r}\n" for k, z in
                       enumerate(fid.samples[a:a + EXPORT_BLOCK].tolist(), a)])
