import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_parity import cli
from qutrit_parity.core import ENTRY_TOL, DensityMatrix
from qutrit_parity.permutations import NAMED_MAPS, Parity
from qutrit_parity.spectro import (
    CHUNK_BYTES,
    DEFAULT_DWELL,
    DEFAULT_POINTS,
    FID,
    NO_PEAKS,
    NO_SIGNAL,
    _basis,
    _tones,
    Peak,
    ReadoutResult,
    UnclassifiableSpectrumError,
    classify_lines,
    classify_spectrum,
    detect,
    detection_events,
    fid_to_text,
    pick_peaks,
    read_out,
    spectrum,
    spectrum_to_text,
    synthesize_fid,
    transform,
)
from qutrit_parity.spin import (
    HamiltonianParams,
    RelaxationParams,
    run_pulse_program,
    transition_frequencies,
)

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
        """detect and run_pulse_program take detection_events through the same
        spin.crush and core.rotate, so the two agree bit for bit: crusher and
        pulse, on coherent input."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = a + a.conj().T
            rho = DensityMatrix(h - np.trace(h) / 3 * np.eye(3), "deviation")
            flip = 360.0 - rng.uniform(0.0, 360.0)  # in (0, 360]
            engine = run_pulse_program(rho, detection_events(flip))
            assert np.array_equal(detect(rho, flip).entries, engine.entries)

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


@pytest.mark.parametrize("n, repeat", [(8, 50), (4096, 20), (65536, 2)])
def test_spectrum_is_the_transform_of_the_fid(n, repeat):
    """spectrum(rho), the sum of the two cached basis spectra, agrees with the
    FFT of synthesize_fid(rho) in every bin, real and imaginary parts, within
    4 eps of the row's top |Re| (measured: at most 2.1 eps), on the same axis.
    The detected rows' coherences are real; one more row has complex ones."""
    cfg, rhos = _detected(repeat, 20.0, n=n)
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
        with pytest.raises(UnclassifiableSpectrumError, match=f"^{NO_SIGNAL}$"):
            pick_peaks(transform(FID(np.zeros(64, complex), 1e-3)))


class TestClassifySpectrum:
    def test_single_line_at_nu23_even(self):
        r = classify_spectrum([Peak(468.0, 5.0)], PARAMS)
        assert r.verdict is Parity.EVEN
        assert r.line23 == 5.0 and r.line12 == 0.0
        assert r.confidence == 1.0

    def test_equal_and_opposite_odd(self):
        peaks = [Peak(-468.0, 4.0), Peak(468.0, -4.0)]
        r = classify_spectrum(peaks, PARAMS)
        assert r.verdict is Parity.ODD
        assert r.line12 == 4.0 and r.line23 == -4.0
        assert r.confidence == 1.0

    def test_same_sign_comparable_unclassifiable(self):
        peaks = [Peak(-468.0, 4.0), Peak(468.0, 4.0)]
        with pytest.raises(UnclassifiableSpectrumError):
            classify_spectrum(peaks, PARAMS)

    def test_intermediate_ratio_unclassifiable(self):
        peaks = [Peak(-468.0, 1.0), Peak(468.0, -4.0)]
        with pytest.raises(UnclassifiableSpectrumError):
            classify_spectrum(peaks, PARAMS)

    def test_single_subnormal_line_even(self):
        """PEAK_THRESHOLD * 5e-324 underflows to 0, yet one line alone is even."""
        readout = classify_lines(5e-324, 0.0)
        assert (readout.verdict, readout.confidence) == (Parity.EVEN, 1.0)

    def test_no_peaks_rejected(self):
        with pytest.raises(UnclassifiableSpectrumError, match=f"^{NO_PEAKS}$"):
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
        """_tones and the basis spectra built from them."""
        fid = synthesize_fid(single_coherence(), PARAMS, RELAX, n=64)
        key = *transition_frequencies(PARAMS), RELAX.t2, 64, fid.dwell
        for cached in _tones(*key) + _basis(*key):
            with pytest.raises(ValueError):
                cached[0] = 0.0
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


def _detected(repeat, sigma, **fields):
    """The config and the (6 * repeat, 3, 3) detected rows of a seeded noisy sweep."""
    cfg = cli.RunConfig(pulse_angle_sigma_deg=sigma, seed=1, **fields)
    rows = [cli.run_pulse_experiment(cfg, perm, [[1, k, rep] for rep in range(repeat)])[1]
            for k, perm in enumerate(NAMED_MAPS.values())]
    return cfg, np.concatenate(rows)


def _outcome(readout):
    """(repr line12, repr line23, verdict or (exception type, message)) of a readout."""
    verdict = (readout.verdict if isinstance(readout, ReadoutResult)
               else (type(readout), str(readout)))
    return repr(readout.line12), repr(readout.line23), verdict


def _row_path(rho, cfg):
    """classify_spectrum(pick_peaks(spectrum(rho))), or what it raises."""
    p, r = cfg.hamiltonian(), cfg.relaxation()
    s = spectrum(DensityMatrix(rho, "deviation"), p, r, cfg.n, cfg.dwell_s)
    try:
        return classify_spectrum(pick_peaks(s), p)
    except UnclassifiableSpectrumError as exc:
        return exc


def assert_batch_matches_rows(cfg, rhos):
    """read_out equals the row-by-row spectrum path on every row; its outcomes."""
    readouts = read_out(rhos, cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s)
    assert len(readouts) == len(rhos)
    for k, (readout, rho) in enumerate(zip(readouts, rhos)):
        assert _outcome(readout) == _outcome(_row_path(rho, cfg)), k
    return readouts


class TestReadLines:
    """The batch readout is the spectrum path, line for line and verdict for verdict."""

    def test_noisy_sweep_stack(self):
        cfg, rhos = _detected(200, 20.0)
        verdicts = [_outcome(r)[2] for r in assert_batch_matches_rows(cfg, rhos)]
        assert Parity.EVEN in verdicts and Parity.ODD in verdicts
        assert any(isinstance(v, tuple) for v in verdicts)  # and unclassifiable rows

    def test_scrambled_by_heavy_noise(self):
        assert_batch_matches_rows(*_detected(30, 90.0))

    @pytest.mark.parametrize("lambda_q_hz", [3.0, 0.1])  # 0.1: the window is clamped to 1 Hz
    def test_overlapping_lines(self, lambda_q_hz):
        assert_batch_matches_rows(*_detected(20, 5.0, lambda_q_hz=lambda_q_hz))

    def test_long_acquisition(self):
        cfg, rhos = _detected(4, 5.0, n=65536)
        assert_batch_matches_rows(cfg, rhos)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_minimal_acquisitions_reach_the_edge_bins(self, n):
        cfg, rhos = _detected(20, 30.0, n=n)
        readouts = assert_batch_matches_rows(cfg, rhos)
        if n == 2:  # no bin lies between the two edge bins
            assert {_outcome(r)[2] for r in readouts} == {
                (UnclassifiableSpectrumError, NO_PEAKS)}

    def test_all_zero_deviation_has_no_signal(self):
        readouts = assert_batch_matches_rows(cli.RunConfig(), np.zeros((3, 3, 3), complex))
        assert [_outcome(r) for r in readouts] == [
            ("0.0", "0.0", (UnclassifiableSpectrumError, NO_SIGNAL))] * 3

    def test_rounding_level_coherences_have_no_signal(self):
        """A detection flip clipped to 360 degrees is the identity, so what
        coherence its row holds is rounding noise, and it reads no signal."""
        cfg, rhos = _detected(20, 120.0, detection_flip_deg=330.0)
        detection = np.concatenate([
            cli._draw_flips(cfg, cli.build_pulse_program(perm) + detection_events(330.0),
                            [[1, k, rep] for rep in range(20)])[:, -1]
            for k, perm in enumerate(NAMED_MAPS.values())])
        outcomes = [_outcome(r) for r in assert_batch_matches_rows(cfg, rhos)]
        silent = [k for k, o in enumerate(outcomes)
                  if o == ("0.0", "0.0", (UnclassifiableSpectrumError, NO_SIGNAL))]
        assert silent == np.flatnonzero(detection == 360.0).tolist() and silent

    @pytest.mark.parametrize("rows", ["one", "chunk", "chunk + 1"])
    def test_chunk_boundaries(self, rows):
        per_chunk = CHUNK_BYTES // (8 * DEFAULT_POINTS)  # one float64 per sample
        count = {"one": 1, "chunk": per_chunk, "chunk + 1": per_chunk + 1}[rows]
        cfg, rhos = _detected(-(-(per_chunk + 1) // 6), 20.0)
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
