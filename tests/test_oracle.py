"""A 50-digit reference for the line amplitudes that the readout reports.

A detected run's FID is c12 z12^m + c23 z23^m for m = 0 .. n-1, with
z = exp((2 pi i nu - 1/T2) dwell) and nu = -+3 Lambda/2pi for the 1-2 and 2-3
transitions of the spin-1. Its DFT at bin k has the closed form

    S(k) = sum over the two lines of c (1 - z^n) / (1 - z exp(-2 pi i k / n)),

so the reference needs no FFT and shares no arithmetic with the package. The
coherences c12 = rho[1, 0] and c23 = rho[2, 1] of each detected row are taken
as exact inputs; the test checks what the readout makes of them.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from qutrit_parity import cli
from qutrit_parity.core import DensityMatrix
from qutrit_parity.permutations import NAMED_MAPS
from qutrit_parity.spectro import read_out, spectrum

EPS = np.finfo(float).eps

#: the largest error of a line, in eps of the row's larger line; measured at
#: most 3.9 eps on the FFT of each FID, and 4.4 eps on the basis spectra
BOUND_EPS = 8


def _reference_line(cfg, c12, c23, j):
    """Re S at spectrum bin j (transform's order: FFT bin j - (n/2 - 1) mod n)
    for the coherences c12 and c23, at 50 digits."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        n, dwell, t2 = cfg.n, mp.mpf(cfg.dwell_s), mp.mpf(cfg.t2_s)
        nu23 = 3 * mp.mpf(cfg.lambda_q_hz)
        bin_phase = mp.expjpi(-2 * mp.mpf((j - (n // 2 - 1)) % n) / n)
        total = mp.mpc(0)
        for c, nu in ((c12, -nu23), (c23, nu23)):
            z = mp.exp((2j * mp.pi * nu - 1 / t2) * dwell)
            total += mp.mpc(c.real, c.imag) * (1 - z**n) / (1 - z * bin_phase)
        return total.real


def _rows(sigma, repeat):
    """(config, detected (6 * repeat, 3, 3) rows) of
    `sweep --noise-sigma-deg sigma --repeat repeat --seed 1`; at sigma = 0
    each row is the noise-free `run` of its permutation."""
    cfg = cli.RunConfig(pulse_angle_sigma_deg=sigma, seed=1)
    rows = [cli.run_pulse_experiment(cfg, perm, [[1, k, rep] for rep in range(repeat)])[1]
            for k, perm in enumerate(NAMED_MAPS.values())]
    return cfg, np.concatenate(rows)


@pytest.mark.parametrize("sigma, repeat", [(0.0, 1), (5.0, 10), (20.0, 10)],
                         ids=["noise-free", "sigma-5", "sigma-20"])
def test_lines_match_the_closed_form_spectrum(sigma, repeat):
    """Each nonzero line that read_out reports is the spectrum's value at one
    bin, and lies within BOUND_EPS eps of the row's larger line of the 50-digit
    value at that bin."""
    cfg, rhos = _rows(sigma, repeat)
    acquisition = cfg.hamiltonian(), cfg.relaxation(), cfg.n, cfg.dwell_s
    checked = 0
    for k, (rho, readout) in enumerate(zip(rhos, read_out(rhos, *acquisition))):
        lines = readout.line12, readout.line23
        if not any(lines):
            continue
        re = spectrum(DensityMatrix(rho, "deviation"), *acquisition).amplitudes.real
        scale = max(map(abs, lines))
        for line in filter(None, lines):
            [j] = np.flatnonzero(re == line)
            truth = _reference_line(cfg, rho[1, 0], rho[2, 1], int(j))
            error = float(abs(mpmath.mpf(line) - truth)) / scale
            assert error <= BOUND_EPS * EPS, (k, line, error / EPS)
            checked += 1
    assert checked >= 6 * repeat
