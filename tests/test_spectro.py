import numpy as np
import pytest

from qutrit_parity.core import DensityMatrix
from qutrit_parity.permutations import Parity
from qutrit_parity.spectro import (
    FID,
    _tones,
    EmptySpectrumError,
    Peak,
    UnclassifiableSpectrumError,
    classify_spectrum,
    detect,
    fid_to_text,
    pick_peaks,
    spectrum_to_text,
    synthesize_fid,
    transform,
)
from qutrit_parity.spin import HamiltonianParams, RelaxationParams, transition_frequencies

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
    def test_zero_flip_only_crushes(self):
        rho = single_coherence(c23=0.3)
        out = detect(rho, 0.0)
        assert np.array_equal(out.entries, np.zeros((3, 3)))

    def test_even_branch_dominant_23_coherence(self):
        out = detect(EVEN_DEVIATION, 30.0)
        # 1-2 coherence only appears at second order: ratio tan^2(15 deg)
        ratio = abs(out.entries[1, 0]) / abs(out.entries[2, 1])
        assert ratio == pytest.approx(np.tan(np.pi / 12) ** 2, abs=1e-12)
        assert abs(out.entries[2, 1]) > 10 * abs(out.entries[1, 0])

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
        assert peaks[0].linewidth == pytest.approx(1 / (np.pi * RELAX.t2), abs=2 * s.bin_width)

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
        with pytest.raises(EmptySpectrumError):
            pick_peaks(transform(FID(np.zeros(64, complex), 1e-3)))

    def test_threshold_bounds(self):
        s = transform(synthesize_fid(single_coherence(), PARAMS, RELAX))
        with pytest.raises(ValueError):
            pick_peaks(s, threshold=0.0)
        with pytest.raises(ValueError):
            pick_peaks(s, threshold=1.0)


class TestClassifySpectrum:
    def test_single_line_at_nu23_even(self):
        r = classify_spectrum([Peak(468.0, 5.0, 6.4)], PARAMS)
        assert r.verdict is Parity.EVEN
        assert r.line23 == 5.0 and r.line12 == 0.0
        assert r.confidence == 1.0

    def test_equal_and_opposite_odd(self):
        peaks = [Peak(-468.0, 4.0, 6.4), Peak(468.0, -4.0, 6.4)]
        r = classify_spectrum(peaks, PARAMS)
        assert r.verdict is Parity.ODD
        assert r.line12 == 4.0 and r.line23 == -4.0
        assert r.confidence == 1.0

    def test_same_sign_comparable_unclassifiable(self):
        peaks = [Peak(-468.0, 4.0, 6.4), Peak(468.0, 4.0, 6.4)]
        with pytest.raises(UnclassifiableSpectrumError):
            classify_spectrum(peaks, PARAMS)

    def test_intermediate_ratio_unclassifiable(self):
        peaks = [Peak(-468.0, 1.0, 6.4), Peak(468.0, -4.0, 6.4)]
        with pytest.raises(UnclassifiableSpectrumError):
            classify_spectrum(peaks, PARAMS)

    def test_no_peaks_rejected(self):
        with pytest.raises(EmptySpectrumError):
            classify_spectrum([], PARAMS)

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
    fid = synthesize_fid(detect(deviation, 30.0), params, RELAX)
    peaks = pick_peaks(transform(fid))
    return classify_spectrum(peaks, params).verdict


class TestExports:
    def test_spectrum_text_columns(self):
        s = transform(synthesize_fid(single_coherence(), PARAMS, RELAX, n=64))
        lines = spectrum_to_text(s).splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 65
        assert len(lines[1].split()) == 4

    def test_fid_text_columns(self):
        fid = synthesize_fid(single_coherence(), PARAMS, RELAX, n=64)
        lines = fid_to_text(fid).splitlines()
        assert len(lines) == 65
        assert len(lines[1].split()) == 3

    def test_fid_invariants(self):
        with pytest.raises(ValueError):
            FID(np.zeros(3, complex), 1e-3)
        with pytest.raises(ValueError):
            FID(np.zeros(64, complex), 0.0)


class TestCachedArrays:
    def test_tones_read_only(self):
        fid = synthesize_fid(single_coherence(), PARAMS, RELAX, n=64)
        for tone in _tones(*transition_frequencies(PARAMS), RELAX.t2, 64, fid.dwell):
            with pytest.raises(ValueError):
                tone[0] = 0.0
        fid.samples[0] = 0.0  # each FID owns its samples

    def test_frequency_axis_shared_and_read_only(self):
        fid = synthesize_fid(single_coherence(), PARAMS, RELAX, n=64)
        a, b = transform(fid), transform(fid)
        assert a.frequencies is b.frequencies
        with pytest.raises(ValueError):
            a.frequencies[0] = 0.0


def test_text_exports_read_back_exactly(tmp_path):
    fid = synthesize_fid(single_coherence(c23=0.3 - 0.7j, c12=0.2j), PARAMS, RELAX, n=256)
    s = transform(fid)
    (tmp_path / "fid.txt").write_text(fid_to_text(fid))
    (tmp_path / "spectrum.txt").write_text(spectrum_to_text(s))
    t, re, im = np.loadtxt(tmp_path / "fid.txt", unpack=True)
    assert np.array_equal(t, np.arange(256) * fid.dwell)
    assert np.array_equal(re + 1j * im, fid.samples)
    f, re, im, mag = np.loadtxt(tmp_path / "spectrum.txt", unpack=True)
    assert np.array_equal(f, s.frequencies)
    assert np.array_equal(re + 1j * im, s.amplitudes)
    assert mag.tolist() == [abs(z) for z in s.amplitudes.tolist()]
