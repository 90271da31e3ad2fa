import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_parity import cli, spectro
from qutrit_parity.core import ENTRY_TOL, DensityMatrix
from qutrit_parity.spectro import (
    CHUNK_BYTES,
    DEFAULT_DWELL,
    DEFAULT_POINTS,
    EVEN,
    FID,
    NEITHER,
    NO_PEAKS,
    NO_SIGNAL,
    ODD,
    PEAK_THRESHOLD,
    _basis,
    _coherences,
    _combine,
    _far_bound,
    _frequency_axis,
    _near_lines,
    Spectrum,
    check_acquisition,
    classify_lines,
    detect,
    detection_events,
    fid_rows,
    read_out,
    spectrum,
    spectrum_rows,
    synthesize_fid,
    transform,
)
from qutrit_parity.spin import (
    HamiltonianParams,
    RelaxationParams,
    run_pulse_program,
    transition_frequencies,
)
from row_readout import Peak, Readout, classify_spectrum, pick_peaks, read_spectrum
from seeded_sweep import seeded_sweep

EPS = np.finfo(float).eps
PARAMS = HamiltonianParams(lambda_q=2 * np.pi * 156.0)
RELAX = RelaxationParams(0.170, 0.050)

EVEN_DEVIATION = DensityMatrix(np.diag([0.5, 0.5, -1.0]), "deviation")
ODD_DEVIATION = DensityMatrix(np.diag([0.5, -1.0, 0.5]), "deviation")


def single_coherence(c23=1.0, c12=0.0):
    m = np.zeros((3, 3), complex)
    m[2, 1], m[1, 2] = c23, np.conj(c23)
    m[1, 0], m[0, 1] = c12, np.conj(c12)
    return DensityMatrix(m, "deviation")


class TestDetect:
    def test_equals_the_engine_detection_step(self):
        """detect takes detection_events through run_pulse_program, the one
        pulse engine, so the two agree bit for bit: crusher and pulse, on
        coherent input."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = a + a.conj().T
            rho = DensityMatrix(h - np.trace(h) / 3 * np.eye(3), "deviation")
            flip = 360.0 - rng.uniform(0.0, 360.0)  # in (0, 360]
            engine = run_pulse_program(rho, detection_events(flip))
            assert np.array_equal(detect(rho, flip).entries, engine.entries)

    @pytest.mark.parametrize("flip", [5.0, 10.0, 20.0, 30.0, 45.0])
    def test_even_branch_dominant_23_coherence(self, flip):
        """The 1-2 coherence only appears at second order in the detection
        flip: |c12| / |c23| = tan^2(flip / 2) within 8 eps (measured: at most
        0.25 eps), which stays below PEAK_THRESHOLD up to 2 atan(sqrt(0.1)) =
        35.10 degrees: a noise-free even run's margin is set by the flip."""
        out = detect(EVEN_DEVIATION, flip)
        ratio = abs(out.entries[1, 0]) / abs(out.entries[2, 1])
        eps = np.finfo(float).eps
        assert ratio == pytest.approx(np.tan(np.radians(flip) / 2) ** 2, rel=0, abs=8 * eps)
        assert (ratio < PEAK_THRESHOLD) == (flip < 2 * np.degrees(np.arctan(np.sqrt(0.1))))

    def test_odd_branch_equal_and_opposite(self):
        out = detect(ODD_DEVIATION, 30.0)
        c12, c23 = out.entries[1, 0], out.entries[2, 1]
        assert c12.real == pytest.approx(-c23.real, rel=1e-12)
        assert abs(c12.imag) < 1e-14 and abs(c23.imag) < 1e-14


class TestSynthesizeFid:
    def test_diagonal_rho_silent(self):
        fid = synthesize_fid(EVEN_DEVIATION, PARAMS, RELAX)
        assert np.max(np.abs(fid.samples)) == 0.0

    def test_t2_envelope(self):
        fid = synthesize_fid(single_coherence(c23=1.0), PARAMS, RELAX)
        t = np.arange(len(fid.samples)) * fid.dwell
        assert np.allclose(np.abs(fid.samples), np.exp(-t / RELAX.t2), atol=1e-12)

    def test_even_branch_single_dominant_tone(self):
        fid = synthesize_fid(detect(EVEN_DEVIATION, 30.0), PARAMS, RELAX)
        peaks = pick_peaks(transform(fid))
        assert len(peaks) == 1
        assert peaks[0].frequency == pytest.approx(468.0, abs=0.5)

    def test_narrow_window_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            synthesize_fid(single_coherence(), PARAMS, RELAX, n=4096, dwell=1.0 / 800.0)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            synthesize_fid(single_coherence(), PARAMS, RELAX, n=4095)


@pytest.mark.parametrize("n, repeat", [(8, 50), (4096, 20), (65536, 2)])
def test_spectrum_is_the_transform_of_the_fid(n, repeat):
    """spectrum(rho), the sum of the two cached basis spectra, agrees with the
    FFT of synthesize_fid(rho) in every bin, real and imaginary parts, within
    4 eps of the row's top |Re| (measured: at most 2.1 eps), on the same axis.
    The detected rows' coherences are real; one more row has complex ones."""
    cfg, rhos, _ = seeded_sweep(20.0, repeat, n=n)
    rhos = np.concatenate([rhos, single_coherence(c23=0.3 - 0.7j, c12=0.2j).entries[None]])
    acquisition = cfg.hamiltonian(), cfg.relaxation(), n, cfg.dwell_s
    for k, rho in enumerate(rhos):
        detected = DensityMatrix(rho, "deviation")
        s = spectrum(detected, *acquisition)
        fft = transform(synthesize_fid(detected, *acquisition))
        assert s.frequencies is fft.frequencies
        top = np.abs(fft.amplitudes.real).max()
        assert np.abs(s.amplitudes - fft.amplitudes).max() <= 4 * EPS * top, k


class TestTransform:
    def test_zero_fid_zero_spectrum(self):
        s = transform(FID(np.zeros(64, complex), 1e-3))
        assert np.max(np.abs(s.amplitudes)) == 0.0

    def test_axis_span_and_spacing(self):
        s = transform(FID(np.zeros(64, complex), 1e-3))
        assert s.frequencies[0] == pytest.approx(-500.0 + 1000.0 / 64)
        assert s.frequencies[-1] == pytest.approx(500.0)
        assert np.allclose(np.diff(s.frequencies), 1000.0 / 64)

    def test_single_tone_lorentzian_position_and_width(self):
        fid = synthesize_fid(single_coherence(c23=1.0), PARAMS, RELAX)
        s = transform(fid)
        peaks = pick_peaks(s)
        assert len(peaks) == 1
        assert peaks[0].frequency == pytest.approx(468.0, abs=s.bin_width)
        # Lorentzian FWHM = 1/(pi T2) ~ 6.4 Hz
        absorptive = np.abs(s.amplitudes.real)
        fwhm = np.count_nonzero(absorptive >= absorptive.max() / 2) * s.bin_width
        assert fwhm == pytest.approx(1 / (np.pi * RELAX.t2), abs=2 * s.bin_width)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=128) + 1j * rng.normal(size=128)
        g = rng.normal(size=128) + 1j * rng.normal(size=128)
        lhs = transform(FID(2.0 * f - 0.5 * g, 1e-3)).amplitudes
        rhs = (2.0 * transform(FID(f, 1e-3)).amplitudes
               - 0.5 * transform(FID(g, 1e-3)).amplitudes)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPickPeaks:
    def test_two_lorentzians_separation(self):
        fid = synthesize_fid(detect(ODD_DEVIATION, 30.0), PARAMS, RELAX)
        s = transform(fid)
        peaks = sorted(pick_peaks(s), key=lambda p: p.frequency)
        assert len(peaks) == 2
        assert peaks[1].frequency - peaks[0].frequency == pytest.approx(936.0, abs=s.bin_width)
        assert abs(peaks[0].frequency + 468.0) < 0.5 * s.bin_width
        assert abs(peaks[1].frequency - 468.0) < 0.5 * s.bin_width

    def test_empty_spectrum_rejected(self):
        s = transform(FID(np.zeros(64, complex), 1e-3))
        assert pick_peaks(s) == []
        r = read_spectrum(s, PARAMS)
        assert (r.line12, r.line23, r.code) == (0.0, 0.0, NO_SIGNAL)

    def test_plateau_peaks_at_its_later_bin(self):
        """Bins 2 and 3 share the top |Re| with opposite signs: only the later
        bin peaks, in read_out's peak test and in the reference, so the line
        reads +2.0. The parabolic vertex of a plateau lies midway either way."""
        row = np.array([0.0, 0.5, -2.0, 2.0, 1.0, 0.0])
        mag = np.abs(row)
        peaks = spectro._is_peak(mag[:-2], mag[1:-1], mag[2:], PEAK_THRESHOLD * mag.max())
        assert np.flatnonzero(peaks).tolist() == [2]  # centre 2 of mag[1:-1] is bin 3
        s = Spectrum(np.arange(6.0) - 2.0, row.astype(complex))
        assert pick_peaks(s) == [Peak(0.5, 2.0)]


class TestClassifySpectrum:
    def test_single_line_at_nu23_even(self):
        r = classify_spectrum([Peak(468.0, 5.0)], PARAMS)
        assert r.code == EVEN
        assert r.line23 == 5.0 and r.line12 == 0.0
        assert r.confidence == 1.0

    def test_equal_and_opposite_odd(self):
        peaks = [Peak(-468.0, 4.0), Peak(468.0, -4.0)]
        r = classify_spectrum(peaks, PARAMS)
        assert r.code == ODD
        assert r.line12 == 4.0 and r.line23 == -4.0
        assert r.confidence == 1.0

    def test_same_sign_comparable_unclassifiable(self):
        peaks = [Peak(-468.0, 4.0), Peak(468.0, 4.0)]
        assert classify_spectrum(peaks, PARAMS).code == NEITHER

    def test_intermediate_ratio_unclassifiable(self):
        peaks = [Peak(-468.0, 1.0), Peak(468.0, -4.0)]
        assert classify_spectrum(peaks, PARAMS).code == NEITHER

    def test_single_subnormal_line_even(self):
        """PEAK_THRESHOLD * 5e-324 underflows to 0, yet one line alone is even."""
        code, confidence = classify_lines(np.array([5e-324]), np.array([0.0]))
        assert (code.tolist(), confidence.tolist()) == ([EVEN], [1.0])

    def test_no_peaks_rejected(self):
        assert classify_spectrum([], PARAMS).code == NO_PEAKS

    def test_columns_classify_each_row_alone(self):
        """classify_lines on a column of line pairs gives each row what it gives
        that pair alone, confidence bits included, at the rule's edges: no
        line, subnormal lines, the 10% and ratio-2 boundaries, equal signs."""
        edges = [0.0, -0.0, 5e-324, 1e-300, 0.1, 0.1 + 2**-56, 0.5, 1.0, 2.0, 2.0 + 2**-51,
                 10.0, 1.7e308]
        pairs = [(a, sign * b) for a in edges for b in edges for sign in (1.0, -1.0)]
        line12, line23 = np.array(pairs).T
        codes, confidences = classify_lines(line12, line23)
        for k, (a, b) in enumerate(pairs):
            code, confidence = classify_lines(np.array([a]), np.array([b]))
            assert codes[k] == code[0], (a, b)
            assert repr(confidences[k]) == repr(confidence[0]), (a, b)
        assert set(codes.tolist()) == {EVEN, ODD, NEITHER}

    def test_invariant_under_positive_scaling(self):
        for dev in (EVEN_DEVIATION, ODD_DEVIATION):
            base = _pipeline_verdict(dev, PARAMS)
            scaled = DensityMatrix(7.5 * dev.entries, "deviation")
            assert _pipeline_verdict(scaled, PARAMS) == base

    def test_invariant_under_coupling_sign_flip(self):
        flipped = HamiltonianParams(lambda_q=-PARAMS.lambda_q)
        for dev in (EVEN_DEVIATION, ODD_DEVIATION):
            assert _pipeline_verdict(dev, PARAMS) == _pipeline_verdict(dev, flipped)

    def test_invariant_under_global_sign_flip(self):
        for dev in (EVEN_DEVIATION, ODD_DEVIATION):
            negated = DensityMatrix(-dev.entries, "deviation")
            assert _pipeline_verdict(negated, PARAMS) == _pipeline_verdict(dev, PARAMS)


def _pipeline_verdict(deviation, params):
    """The reference's verdict on the FFT of the detected deviation's FID.
    read_out on the detected row gives the same verdict, and the same lines
    as the reference on its spectrum, bit for bit."""
    detected = detect(deviation, 30.0)
    fid = synthesize_fid(detected, params, RELAX)
    peaks = pick_peaks(transform(fid))
    code = classify_spectrum(peaks, params).code
    [readout] = _readouts(detected.entries[None], params, RELAX)
    reference = classify_spectrum(pick_peaks(spectrum(detected, params, RELAX)), params)
    assert _outcome(readout) == _outcome(reference)
    assert readout.code == code
    return code


class TestExports:
    def test_spectrum_text_columns(self):
        s = transform(synthesize_fid(single_coherence(), PARAMS, RELAX, n=64))
        lines = "".join(spectrum_rows(s)).splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 65
        assert len(lines[1].split()) == 4

    def test_fid_text_columns(self):
        fid = synthesize_fid(single_coherence(), PARAMS, RELAX, n=64)
        lines = "".join(fid_rows(fid)).splitlines()
        assert len(lines) == 65
        assert len(lines[1].split()) == 3

    def test_fid_invariants(self):
        with pytest.raises(ValueError):
            FID(np.zeros(3, complex), 1e-3)
        with pytest.raises(ValueError):
            FID(np.zeros(64, complex), 0.0)


class TestCachedArrays:
    @pytest.mark.parametrize("t2", [0.050, 0.0005])
    @pytest.mark.parametrize("n", [64, 4096, 65536])
    def test_tones_read_only(self, n, t2):
        """The basis spectra of the two tones are cached read-only, and so are
        read_out's near arrays: the axis and, bit for bit, the basis over
        exactly the bins within one bin of a tested bin, one run of tested
        bins per line."""
        fid = synthesize_fid(single_coherence(), PARAMS, RELAX, n=n)
        key = *transition_frequencies(PARAMS), t2, n, fid.dwell
        basis = _basis(*key)
        axis, parts = _near_lines(*key)[2]
        freqs, tested = _frequency_axis(n, fid.dwell), _tested(key)
        assert np.count_nonzero(np.diff(tested, prepend=False) & tested) == 2
        kept = np.convolve(tested, [1, 1, 1], "same") > 0
        assert np.array_equal(axis, freqs[kept])
        for part, whole in zip(parts, basis, strict=True):
            assert part.tobytes() == whole[kept].tobytes()
        for cached in basis + parts + (axis,):
            with pytest.raises(ValueError):
                cached[0] = 0.0
        fid.samples[0] = 0.0  # each FID owns its samples

    def test_edge_bins_are_never_tested(self):
        """Lines at +-1350 Hz in a +-2000 Hz window of 64 bins, at T2 = 0.5 ms:
        the line radius, 800 Hz, reaches past both edge bins. They are kept
        only as the neighbours of tested bins, and far covers them."""
        p, r, n = HamiltonianParams(lambda_q=2 * np.pi * 450.0), RelaxationParams(0.01, 0.0005), 64
        key = *check_acquisition(p, r, n, DEFAULT_DWELL), r.t2, n, DEFAULT_DWELL
        _, _, near, far = _near_lines(*key)
        freqs, untested = _frequency_axis(n, DEFAULT_DWELL), ~_tested(key)
        assert untested[[0, -1]].all() and not untested[[1, -2]].any()
        assert near[0][0] == freqs[0] and near[0][-1] == freqs[-1]
        assert far == tuple(np.max(np.abs(b), where=untested, initial=0.0)
                            for b in _basis(*key))

    def test_a_bin_between_two_tested_bins_is_tested(self):
        """At Lambda = 1.6 Hz the lines sit 9.6 Hz apart, and the bins within
        the line radius of either leave only the 0 Hz bin between them. It is
        tested too, so the tested bins form one run, and the readout is the
        row path's; far covers exactly the other bins."""
        cfg = cli.RunConfig(lambda_q_hz=1.6)
        p, r = cfg.hamiltonian(), cfg.relaxation()
        key = *check_acquisition(p, r, cfg.n, cfg.dwell_s), r.t2, cfg.n, cfg.dwell_s
        tested = _tested(key)
        assert not (tested[:-2] & ~tested[1:-1] & tested[2:]).any()
        assert tested[_frequency_axis(cfg.n, cfg.dwell_s) == 0.0].all()
        assert np.count_nonzero(np.diff(tested, prepend=False) & tested) == 1
        assert _near_lines(*key)[3] == tuple(np.max(np.abs(b), where=~tested, initial=0.0)
                                             for b in _basis(*key))
        assert_batch_matches_rows(*seeded_sweep(5.0, 4, lambda_q_hz=1.6)[:2])

    def test_frequency_axis_shared_and_read_only(self):
        fid = synthesize_fid(single_coherence(), PARAMS, RELAX, n=64)
        a, b = transform(fid), transform(fid)
        assert a.frequencies is b.frequencies
        with pytest.raises(ValueError):
            a.frequencies[0] = 0.0


def test_text_exports_read_back_exactly(tmp_path):
    fid = synthesize_fid(single_coherence(c23=0.3 - 0.7j, c12=0.2j), PARAMS, RELAX, n=256)
    s = transform(fid)
    (tmp_path / "fid.txt").write_text("".join(fid_rows(fid)))
    (tmp_path / "spectrum.txt").write_text("".join(spectrum_rows(s)))
    t, re, im = np.loadtxt(tmp_path / "fid.txt", unpack=True)
    assert np.array_equal(t, np.arange(256) * fid.dwell)
    assert np.array_equal(re + 1j * im, fid.samples)
    f, re, im, mag = np.loadtxt(tmp_path / "spectrum.txt", unpack=True)
    assert np.array_equal(f, s.frequencies)
    assert np.array_equal(re + 1j * im, s.amplitudes)
    assert mag.tolist() == [abs(z) for z in s.amplitudes.tolist()]


def _parent_acquisition(rho, n, dwell=DEFAULT_DWELL):
    """The tones, basis, FID and frequency axis as whole-array expressions,
    each intermediate a fresh array: the reference for the in-place builds."""
    nu12, nu23 = check_acquisition(PARAMS, RELAX, n, dwell)
    t = np.arange(n) * dwell
    tone12, tone23, decay = (np.exp(2j * np.pi * nu12 * t), np.exp(2j * np.pi * nu23 * t),
                             np.exp(-t / RELAX.t2))
    basis = []
    for tone in (tone12, tone23):
        s = np.roll(np.fft.fft(tone * decay), n // 2 - 1)
        basis += [s.real.copy(), s.imag.copy()]
    c12, c23 = _coherences(rho.entries[None])
    freqs = np.roll(np.fft.fftshift(np.fft.fftfreq(n, dwell)), -1)
    freqs[-1] = -freqs[-1]
    return basis, ((c12 * tone12 + c23 * tone23) * decay)[0], freqs


def _parent_spectrum_text(s):
    lines = ["# frequency_hz real imag magnitude"]
    for f, a in zip(s.frequencies.tolist(), s.amplitudes.tolist()):
        lines.append(f"{f!r} {a.real!r} {a.imag!r} {abs(a)!r}")
    return "\n".join(lines) + "\n"


def _parent_fid_text(fid):
    lines = ["# time_s real imag"]
    for k, z in enumerate(fid.samples.tolist()):
        lines.append(f"{k * fid.dwell!r} {z.real!r} {z.imag!r}")
    return "\n".join(lines) + "\n"


def _traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInPlaceAcquisition:
    """The basis and the FID are built in place and the text exports one
    block at a time, and they give the bytes of the whole-array expressions."""

    RHO = single_coherence(c23=0.3 - 0.7j, c12=-0.45 + 0.2j)

    @pytest.mark.parametrize("n", [64, 4096, 65536])
    def test_bit_for_bit(self, n):
        basis, samples, freqs = _parent_acquisition(self.RHO, n)
        key = *check_acquisition(PARAMS, RELAX, n, DEFAULT_DWELL), RELAX.t2, n, DEFAULT_DWELL
        for built, want in zip(_basis.__wrapped__(*key), basis, strict=True):
            assert built.tobytes() == want.tobytes()
        assert _frequency_axis(n, DEFAULT_DWELL).tobytes() == freqs.tobytes()
        # spectrum() sums per tone in _combine's order: _combine over the whole basis
        c12, c23 = _coherences(self.RHO.entries[None])
        amps = np.empty((1, n), complex)
        _combine(c12.real, c12.imag, c23.real, c23.imag, basis, amps.real)
        _combine(c12.imag, -c12.real, c23.imag, -c23.real, basis, amps.imag)
        assert spectrum(self.RHO, PARAMS, RELAX, n).amplitudes.tobytes() == amps[0].tobytes()
        fid = synthesize_fid(self.RHO, PARAMS, RELAX, n)
        assert fid.samples.tobytes() == samples.tobytes()
        s = transform(fid)
        assert s.amplitudes.tobytes() == np.roll(np.fft.fft(samples), n // 2 - 1).tobytes()
        assert "".join(fid_rows(fid)) == _parent_fid_text(fid)
        assert "".join(spectrum_rows(s)) == _parent_spectrum_text(s)

    @pytest.mark.parametrize("block", [1, 7, 63, 64, 65])
    def test_export_blocks_change_no_byte(self, monkeypatch, block):
        """Both exports of 64 rows, in blocks below, at and past the row count."""
        monkeypatch.setattr(spectro, "EXPORT_BLOCK", block)
        fid = synthesize_fid(self.RHO, PARAMS, RELAX, n=64)
        s = transform(fid)
        assert "".join(fid_rows(fid)) == _parent_fid_text(fid)
        assert "".join(spectrum_rows(s)) == _parent_spectrum_text(s)

    def test_basis_scratch_is_bounded(self):
        """Building the basis at n = 65536 peaks within 2.5 times its four
        arrays of n doubles, 2 MiB (measured 3.13 MiB: the basis, one tone, its
        times and decay; keeping the times and decay across both tones, 4.00
        MiB; holding the three tones, the FFT, its roll and the part copies at
        once, 7.51 MiB)."""
        n = 65536
        key = *check_acquisition(PARAMS, RELAX, n, DEFAULT_DWELL), RELAX.t2, n, DEFAULT_DWELL
        assert _traced_peak(_basis.__wrapped__, *key) <= 2.5 * 4 * 8 * n

    def test_near_lines_scratch_is_bounded(self):
        """The near-line tables at n = 65536 peak within 2.5 MiB and hold no
        n-sized array once they are built (measured 2.34 MiB and 0.04 MiB:
        one tone, its times and decay, and the bin masks; building the whole
        basis first, 4.00 MiB, and 2.00 MiB held). No basis is cached, and
        the shared frequency axis is cached beforehand."""
        n = 65536
        key = *check_acquisition(PARAMS, RELAX, n, DEFAULT_DWELL), RELAX.t2, n, DEFAULT_DWELL
        _basis.cache_clear()
        _frequency_axis(n, DEFAULT_DWELL)
        tracemalloc.start()
        try:
            near = _near_lines.__wrapped__(*key)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(near[2][0]) < n
        assert peak <= 2.5 * 2**20
        assert held < 0.1 * 2**20

    def test_spectrum_scratch_is_bounded(self):
        """spectrum() at n = 65536 peaks within 3.25 times its own n complex
        amplitudes, 1 MiB, and holds only them (measured 3.13 MiB: the sum, one
        tone, its times and decay). Summed over the cached whole basis, it
        peaked at 3.50 MiB and held the basis's 2 MiB as well. The shared
        frequency axis is cached beforehand."""
        n = 65536
        _basis.cache_clear()
        _frequency_axis(n, DEFAULT_DWELL)
        tracemalloc.start()
        try:
            s = spectrum(self.RHO, PARAMS, RELAX, n)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * s.amplitudes.nbytes
        assert held < 1.1 * s.amplitudes.nbytes

    @pytest.mark.parametrize("export", [fid_rows, spectrum_rows])
    def test_export_scratch_is_bounded(self, export):
        """An export of two blocks, n = 1024, joined, peaks within 2.5 times
        its text (measured 2.08 times for the FID and 2.04 times for the
        spectrum: the blocks' text and the joined text; with one list of all
        line strings, 3.14 and 2.88 times)."""
        fid = synthesize_fid(self.RHO, PARAMS, RELAX, n=2 * spectro.EXPORT_BLOCK)
        data = fid if export is fid_rows else transform(fid)

        def text(data):
            return "".join(export(data))

        assert _traced_peak(text, data) <= 2.5 * len(text(data))


def _readouts(rhos, *acquisition):
    """read_out's columns for rhos, as one Readout per row."""
    return [Readout(*row) for row in zip(*(c.tolist() for c in read_out(rhos, *acquisition)))]


def _outcome(readout):
    """(repr line12, repr line23, code, repr confidence or None if unclassified)
    of a Readout."""
    line12, line23, confidence, code = readout
    return repr(line12), repr(line23), code, repr(confidence) if code in (EVEN, ODD) else None


def _row_path(rho, cfg):
    """The reference readout, read_spectrum(spectrum(rho))."""
    p, r = cfg.hamiltonian(), cfg.relaxation()
    return read_spectrum(spectrum(DensityMatrix(rho, "deviation"), p, r, cfg.n, cfg.dwell_s), p)


def assert_batch_matches_rows(cfg, rhos):
    """read_out equals the row-by-row spectrum path on every row; its outcomes."""
    readouts = _readouts(rhos, cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s)
    assert len(readouts) == len(rhos)
    for k, (readout, rho) in enumerate(zip(readouts, rhos)):
        assert _outcome(readout) == _outcome(_row_path(rho, cfg)), k
    return readouts


class TestReadLines:
    """The batch readout is the spectrum path, line for line and verdict for verdict."""

    def test_noisy_sweep_stack(self):
        cfg, rhos, _ = seeded_sweep(20.0, 200)
        codes = [r.code for r in assert_batch_matches_rows(cfg, rhos)]
        assert EVEN in codes and ODD in codes
        assert set(codes) - {EVEN, ODD}  # and unclassifiable rows

    def test_scrambled_by_heavy_noise(self):
        assert_batch_matches_rows(*seeded_sweep(90.0, 30)[:2])

    @pytest.mark.parametrize("lambda_q_hz", [3.0, 0.1])  # 0.1: the window is clamped to 1 Hz
    def test_overlapping_lines(self, lambda_q_hz):
        assert_batch_matches_rows(*seeded_sweep(5.0, 20, lambda_q_hz=lambda_q_hz)[:2])

    def test_long_acquisition(self):
        cfg, rhos, _ = seeded_sweep(5.0, 4, n=65536)
        assert_batch_matches_rows(cfg, rhos)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_minimal_acquisitions_reach_the_edge_bins(self, n):
        cfg, rhos, _ = seeded_sweep(30.0, 20, n=n)
        readouts = assert_batch_matches_rows(cfg, rhos)
        if n == 2:  # no bin lies between the two edge bins
            assert {r.code for r in readouts} == {NO_PEAKS}

    def test_all_zero_deviation_has_no_signal(self):
        readouts = assert_batch_matches_rows(cli.RunConfig(), np.zeros((3, 3, 3), complex))
        assert [_outcome(r) for r in readouts] == [("0.0", "0.0", NO_SIGNAL, None)] * 3

    def test_rounding_level_coherences_have_no_signal(self):
        """A detection flip clipped to 360 degrees is the identity, so what
        coherence its row holds is rounding noise, and it reads no signal."""
        cfg, rhos, runs = seeded_sweep(120.0, 20, detection_flip_deg=330.0)
        detection = np.concatenate([flips[:, -1] for _, _, flips, _ in runs])
        outcomes = [_outcome(r) for r in assert_batch_matches_rows(cfg, rhos)]
        silent = [k for k, o in enumerate(outcomes)
                  if o == ("0.0", "0.0", NO_SIGNAL, None)]
        assert silent == np.flatnonzero(detection == 360.0).tolist() and silent

    @pytest.mark.parametrize("rows", ["one", "chunk - 1", "chunk", "chunk + 1"])
    def test_chunk_boundaries(self, rows):
        """The drawn stack is sized from the chunk, so it reaches one row past
        the first chunk whatever the near bins' width."""
        cfg = cli.RunConfig()
        p, r = cfg.hamiltonian(), cfg.relaxation()
        key = *check_acquisition(p, r, cfg.n, cfg.dwell_s), r.t2, cfg.n, cfg.dwell_s
        width = len(_near_lines(*key)[2][0])  # bins built per row
        per_chunk = CHUNK_BYTES // (8 * width)  # one float64 per built bin
        assert 1 < per_chunk
        count = {"one": 1, "chunk - 1": per_chunk - 1, "chunk": per_chunk,
                 "chunk + 1": per_chunk + 1}[rows]
        cfg, rhos, _ = seeded_sweep(20.0, -(-count // 6))
        assert len(rhos) >= count
        assert_batch_matches_rows(cfg, rhos[:count])

    def test_equal_peaks_in_one_window_read_the_first(self):
        """c12 = -c23, both real, gives a purely imaginary FID, so the peaks at
        -nu and +nu have equal |amplitude| and opposite signs. At a 0.15 Hz
        coupling the window is clamped to 1 Hz and holds both peaks, and each
        line reads the first of them, the lower in frequency."""
        cfg = cli.RunConfig(lambda_q_hz=0.15, n=512, dwell_s=0.1, t1_s=5.0, t2_s=5.0)
        m = np.zeros((3, 3), complex)
        m[2, 1] = m[1, 2] = 1.0
        m[1, 0] = m[0, 1] = -1.0
        fid = synthesize_fid(DensityMatrix(m, "deviation"), cfg.hamiltonian(),
                             cfg.relaxation(), cfg.n, cfg.dwell_s)
        low, high = (pk.amplitude for pk in pick_peaks(transform(fid)))
        assert low == -high < 0
        [readout] = assert_batch_matches_rows(cfg, m[None])
        assert readout.line12 == readout.line23 == low


def _read_out_counting(cfg, rhos, monkeypatch, half_widths=spectro.SPAN_HALF_WIDTHS):
    """read_out's outcomes on rhos with peaks tested within half_widths line
    half-widths, and the rows it built whole, over all n bins."""
    whole, build = [], spectro._build

    def spy(rows, coefs, parts):
        if len(parts[0]) == cfg.n:
            whole.extend(rows.tolist())
        return build(rows, coefs, parts)

    with monkeypatch.context() as patched:
        patched.setattr(spectro, "_build", spy)
        patched.setattr(spectro, "SPAN_HALF_WIDTHS", half_widths)
        _near_lines.cache_clear()
        try:
            readouts = _readouts(rhos, cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s)
        finally:
            _near_lines.cache_clear()
    return readouts, whole


def _spectrum_re(rho, cfg):
    """Re of spectrum(rho) over all n bins."""
    p, r = cfg.hamiltonian(), cfg.relaxation()
    return spectrum(DensityMatrix(rho, "deviation"), p, r, cfg.n, cfg.dwell_s).amplitudes.real


def _tested(key):
    """The mask of the bins that _near_lines(*key) tests for a peak, by the rule
    of its docstring: the bins within min(window, SPAN_HALF_WIDTHS / (2 pi T2))
    + 2 dnu of either line but the two edge bins, and each bin between two
    of those."""
    nu12, nu23, t2, n, dwell = key
    window, dnu = _near_lines(*key)[:2]
    radius = min(window, spectro.SPAN_HALF_WIDTHS / (2.0 * np.pi * t2)) + 2.0 * dnu
    freqs = _frequency_axis(n, dwell)
    tested = (np.abs(freqs - nu12) <= radius) | (np.abs(freqs - nu23) <= radius)
    tested[0] = tested[-1] = False
    tested[np.flatnonzero(tested[:-2] & tested[2:]) + 1] = True
    return tested


class TestWholeRows:
    """read_out builds a row whole only where the far bound on the untested bins needs it."""

    @pytest.mark.parametrize("n", [DEFAULT_POINTS, 65536])
    @pytest.mark.parametrize("sigma", [5.0, 20.0])
    def test_noisy_rows_build_only_the_spans(self, sigma, n, monkeypatch):
        """No row is built whole. At n = 65536 the far bound reaches the 10%
        floor in some rows (the odd permutations'), so there the lines, not
        the floor, settle them."""
        cfg, rhos, _ = seeded_sweep(sigma, 20 if n == DEFAULT_POINTS else 4, n=n)
        readouts, whole = _read_out_counting(cfg, rhos, monkeypatch)
        assert whole == []
        assert [_outcome(r) for r in readouts] == [_outcome(_row_path(rho, cfg)) for rho in rhos]
        if n == 65536:
            p, r = cfg.hamiltonian(), cfg.relaxation()
            key = *check_acquisition(p, r, cfg.n, cfg.dwell_s), r.t2, cfg.n, cfg.dwell_s
            c12, c23 = _coherences(rhos)
            bound = _far_bound(c12.real, c12.imag, c23.real, c23.imag, _near_lines(*key)[3])
            top = np.array([np.abs(_spectrum_re(rho, cfg)).max() for rho in rhos])
            assert (bound >= PEAK_THRESHOLD * top).any()

    @pytest.mark.parametrize("t2_s", [0.050, 0.0005])
    @pytest.mark.parametrize("n", [64, 4096, 65536])
    def test_far_bound_holds_with_no_margin(self, n, t2_s):
        """Every bin is tested, in ascending order, or bounded by far; far
        holds the basis maxima over the untested bins. _far_bound is
        at least every such bin's |Re| as _combine computes it, and equal to
        the largest for a row with one nonzero coefficient."""
        cfg = cli.RunConfig(t2_s=t2_s, n=n)
        p, r = cfg.hamiltonian(), cfg.relaxation()
        key = *check_acquisition(p, r, cfg.n, cfg.dwell_s), r.t2, cfg.n, cfg.dwell_s
        basis = _basis(*key)
        _, _, near, far = _near_lines(*key)
        assert (np.diff(near[0]) > 0).all()
        untested = ~_tested(key)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 64, 1)) * 10.0 ** rng.integers(-300, 300, size=(4, 64, 1))
        x[:, :4, 0] *= np.eye(4)  # row j: coefficient j alone
        re = _combine(*x, basis, np.empty((64, cfg.n)))
        mag = np.abs(re, out=re)
        assert far == tuple(np.max(np.abs(b), where=untested, initial=0.0) for b in basis)
        top = np.max(mag, axis=1, where=untested, initial=0.0)
        bound = _far_bound(*x, far)
        assert np.array_equal(bound[:4], top[:4])
        assert (bound >= top).all()

    @pytest.mark.parametrize("stack, calls", [("mc-noisy", 0), ("mc-hires", 0), ("short T2", 1)])
    def test_basis_is_built_only_for_unsettled_rows(self, stack, calls, monkeypatch):
        """read_out reads its near-line tables off each tone's FFT, and builds
        the whole basis only when some row is unsettled: never for the noisy
        sweeps of 6 x 200 rows at n = 4096 and 6 x 60 at n = 65536, and once
        for a stack at T2 = 0.5 ms, whose rows are all built whole."""
        fields = {"mc-noisy": {}, "mc-hires": {"n": 65536},
                  "short T2": {"t2_s": 0.0005, "t1_s": 0.01}}[stack]
        cfg, rhos, _ = seeded_sweep(5.0, {"mc-noisy": 200, "mc-hires": 60}.get(stack, 20),
                                    **fields)
        counted, basis = [], spectro._basis

        def spy(*key):
            counted.append(key)
            return basis(*key)

        with monkeypatch.context() as patched:
            patched.setattr(spectro, "_basis", spy)
            _near_lines.cache_clear()
            try:
                read_out(rhos, cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s)
            finally:
                _near_lines.cache_clear()
        assert len(counted) == calls

    @pytest.mark.parametrize("caller", ["spectrum", "run"])
    def test_spectrum_never_builds_the_basis(self, caller, tmp_path, monkeypatch):
        """spectrum() sums each tone's spectrum as _spectra yields it, so
        neither it nor a whole run at T2 = 50 ms, which writes spectrum.txt,
        builds the whole basis."""
        counted, basis = [], spectro._basis

        def spy(*key):
            counted.append(key)
            return basis(*key)

        monkeypatch.setattr(spectro, "_basis", spy)
        if caller == "spectrum":
            spectrum(single_coherence(c23=0.3 - 0.7j, c12=0.2j), PARAMS, RELAX, n=4096)
        else:
            assert cli.main(["run", "--output-dir", str(tmp_path)]) == 0
            assert (tmp_path / "spectrum.txt").stat().st_size > 0
        assert counted == []

    def test_short_t2_rows_are_built_whole_and_read_as_the_row_path(self, monkeypatch):
        """At T2 = 0.5 ms each line's half-width is ~320 Hz, so the untested bins
        outweigh the near ones and every row is built whole."""
        cfg, rhos, _ = seeded_sweep(5.0, 50, t2_s=0.0005, t1_s=0.01)
        readouts, whole = _read_out_counting(cfg, rhos, monkeypatch)
        assert whole == list(range(len(rhos)))
        assert [_outcome(r) for r in readouts] == [_outcome(_row_path(rho, cfg)) for rho in rhos]

    @pytest.mark.parametrize("stack", ["n = 4096", "n = 65536", "short T2"])
    def test_span_width_changes_no_outcome(self, stack, monkeypatch):
        """SPAN_HALF_WIDTHS sets only how many rows are built whole: at 0 (the
        nearest bins), at the default and at infinity (the whole line window)
        every row reads out as the row path does, line bits included."""
        fields = {"n = 4096": {}, "n = 65536": {"n": 65536},
                  "short T2": {"t2_s": 0.0005, "t1_s": 0.01}}[stack]
        cfg, rhos, _ = seeded_sweep(5.0, 4 if fields.get("n") else 20, **fields)
        reference = [_outcome(_row_path(rho, cfg)) for rho in rhos]
        counts = {}
        for half_widths in (0.0, spectro.SPAN_HALF_WIDTHS, np.inf):
            readouts, whole = _read_out_counting(cfg, rhos, monkeypatch, half_widths)
            assert [_outcome(r) for r in readouts] == reference, half_widths
            counts[half_widths] = len(whole)
        assert counts[0.0] > 0

    def test_imaginary_minor_line_rows_are_built_whole_at_zero_half_widths(self, monkeypatch):
        """A real major line at nu12 and an imaginary minor one at nu23, over
        near bins of 0 half-widths. Every row's far bound is below its top, so
        the top lies in a near bin, but it is past the 10% floor: the major
        line's shoulders lie outside the near bins. The minor line's Re is dispersive,
        with no peak or one below the bound at nu23, so no row settles: all
        are built whole, and every row reads out as the row path does."""
        cfg = cli.RunConfig()
        c23 = 1j * np.geomspace(1e-3, 0.6, 40)
        rhos = np.zeros((len(c23), 3, 3), complex)
        rhos[:, 1, 0] = rhos[:, 0, 1] = 1.0
        rhos[:, 2, 1], rhos[:, 1, 2] = c23, c23.conj()
        readouts, whole = _read_out_counting(cfg, rhos, monkeypatch, 0.0)
        assert whole == list(range(len(rhos)))
        assert [_outcome(r) for r in readouts] == [_outcome(_row_path(rho, cfg)) for rho in rhos]
        p, r = cfg.hamiltonian(), cfg.relaxation()
        key = *check_acquisition(p, r, cfg.n, cfg.dwell_s), r.t2, cfg.n, cfg.dwell_s
        with monkeypatch.context() as patched:
            patched.setattr(spectro, "SPAN_HALF_WIDTHS", 0.0)
            _near_lines.cache_clear()
            far = _near_lines(*key)[3]
            _near_lines.cache_clear()
        x = [np.ones((len(c23), 1)), np.zeros((len(c23), 1)), np.zeros((len(c23), 1)),
             c23.imag[:, None]]
        top = np.array([np.abs(_spectrum_re(rho, cfg)).max() for rho in rhos])
        bound = _far_bound(*x, far)
        assert (bound < top).all()
        assert (bound >= PEAK_THRESHOLD * top).all()


#: entry magnitudes at the edges of what a double holds, and ordinary ones
MAGNITUDES = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1e-3, 1.0, 1e3])
#: a row's c12 and c23 as a multiple of the ENTRY_TOL floor, or (None) left as drawn
FLOOR_MULTIPLES = st.one_of(st.none(),
                            st.sampled_from([0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0]))


@st.composite
def deviation_stacks(draw):
    """An (R, 3, 3) stack of Hermitian traceless rows, R <= 20, each scaled by
    an edge magnitude, some with both coherences near the ENTRY_TOL floor."""
    rows = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.empty((rows, 3, 3), complex)
    for row in stack:
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (a + a.conj().T) * draw(MAGNITUDES)
        row[:] = h - np.trace(h) / 3 * np.eye(3)
        multiple = draw(FLOOR_MULTIPLES)
        if multiple is not None:
            largest = np.abs(row).max()
            for i, j in ((1, 0), (2, 1)):
                row[i, j] = multiple * ENTRY_TOL * largest * np.exp(2j * np.pi * rng.random())
                row[j, i] = np.conj(row[i, j])
    return stack


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rhos=deviation_stacks(), log2_n=st.integers(1, 14),
       edge=st.one_of(st.sampled_from([1.0, 1.0 - 2**-52, 1.0 - 1e-9]), st.floats(0.01, 0.999)),
       t2_scale=st.sampled_from([1.7e308, 1e300, 1e3, 30.0, 5.0, 1.0, 0.1]))
def test_fuzzed_stacks_read_out_as_the_row_path(rhos, log2_n, edge, t2_scale):
    """Lines at the fraction `edge` of the window's half-width (1.0: on its
    edge), and T2 = acquisition time / t2_scale, up to the largest decay a
    double holds: every row reads out as the row path does, or both raise
    the same acquisition error."""
    n, dwell = 2**log2_n, DEFAULT_DWELL
    t2 = n * dwell / t2_scale
    cfg = cli.RunConfig(lambda_q_hz=edge / (6.0 * dwell), n=n, dwell_s=dwell, t1_s=t2, t2_s=t2)
    try:
        read_out(rhos, cfg.hamiltonian(), cfg.relaxation(), n, dwell)
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            _row_path(rhos[0], cfg)
    else:
        assert_batch_matches_rows(cfg, rhos)
