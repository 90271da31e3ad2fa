"""A 50-digit oracle for the pulse engine.

It runs the programs and flips that the command line runs
(cli.build_pulse_program, spectro.detection_events and cli._draw_flips)
through its own pulse pipeline in mpmath, on the thermal deviation
diag(1, 0, -1): a selective pulse is the SU(2) rotation
cos(flip/2) - i sin(flip/2) (n . sigma) of its block, a nonselective pulse the
spin-1 Wigner rotation R_z(phi - 90) d(flip) R_z(phi - 90)^dagger, a virtual-z
a phase on one level and a crusher the diagonal. It shares no arithmetic with
the package, so it judges the engine's rounding, not just its physics.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from qutrit_parity import cli, spin
from seeded_sweep import seeded_sweep

EPS = np.finfo(float).eps

#: the engine's largest coherence error, in eps of the row's largest entry
#: (measured: 1.5 noise-free, 1.9 at sigma = 5 and 3.6 at sigma = 20 degrees)
BOUND_EPS = 6


def _radians(deg):
    return mpmath.mpf(deg) * mpmath.pi / 180


def _pulse(target: str, flip, phase) -> mpmath.matrix:
    theta, phi = _radians(flip), _radians(phase)
    if target == "nonselective":
        c, s = mpmath.cos(theta), mpmath.sin(theta) / mpmath.sqrt(2)
        d = mpmath.matrix([[(1 + c) / 2, -s, (1 - c) / 2],
                           [s, c, -s],
                           [(1 - c) / 2, s, (1 + c) / 2]])  # exp(-i flip Iy)
        z = mpmath.diag([mpmath.expj(-(phi - mpmath.pi / 2)), 1, mpmath.expj(phi - mpmath.pi / 2)])
        return z * d * z.H
    p, q = spin.TRANSITIONS[target]
    u = mpmath.eye(3)
    u[p, p] = u[q, q] = mpmath.cos(theta / 2)
    u[p, q] = -1j * mpmath.sin(theta / 2) * mpmath.expj(-phi)
    u[q, p] = -1j * mpmath.sin(theta / 2) * mpmath.expj(phi)
    return u


def _oracle(events, flips) -> mpmath.matrix:
    """The detected deviation of one row, at 50 digits."""
    rho = mpmath.diag([1, 0, -1])
    flips = iter(flips)
    for event in events:
        if isinstance(event, spin.GradientEvent):
            rho = mpmath.diag([rho[j, j] for j in range(3)])
            continue
        if isinstance(event, spin.VirtualZ):
            u = mpmath.eye(3)
            u[event.level - 1, event.level - 1] = mpmath.expj(_radians(event.angle_deg))
        else:
            u = _pulse(event.target, next(flips), event.phase_deg)
        rho = u * rho * u.H
    return rho


@pytest.mark.parametrize("sigma, repeat", [(0.0, 1), (5.0, 10), (20.0, 10)],
                         ids=["noise-free", "sigma-5", "sigma-20"])
def test_coherences_match_the_50_digit_pipeline(sigma, repeat):
    """Each detected row's c12 and c23 lie within BOUND_EPS eps of the row's
    largest entry of the oracle's."""
    with mpmath.workdps(50):
        for name, events, flips, rows in seeded_sweep(sigma, repeat).runs:
            for row_flips, rho in zip(flips.tolist(), rows):
                truth = _oracle(events, row_flips)
                scale = max(abs(truth[j, k]) for j in range(3) for k in range(3))
                for j, k in ((1, 0), (2, 1)):
                    error = abs(mpmath.mpc(rho[j, k]) - truth[j, k]) / scale
                    assert error <= BOUND_EPS * EPS, (name, row_flips, (j, k), float(error / EPS))


def test_even_rows_read_tan_squared_of_half_the_detection_flip():
    """A noise-free even run's |c12| / |c23| is tan^2(theta / 2), theta the
    detection flip: the oracle's to 30 digits (measured: 35), the engine's
    within 4 eps of the oracle's (measured: 1.2)."""
    with mpmath.workdps(50):
        law = mpmath.tan(_radians(cli.RunConfig().detection_flip_deg) / 2) ** 2
        for name, events, flips, rows in seeded_sweep(0.0, 1).runs:
            if name not in ("f1", "f2", "f3"):
                continue
            truth = _oracle(events, flips[0].tolist())
            ratio = abs(truth[1, 0]) / abs(truth[2, 1])
            assert abs(ratio - law) <= 1e-30, (name, ratio)
            engine = abs(rows[0, 1, 0]) / abs(rows[0, 2, 1])
            assert abs(engine - ratio) <= 4 * EPS, (name, engine, ratio)
