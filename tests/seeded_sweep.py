"""A seeded noisy sweep's detected rows, as `sweep --seed 1` runs them: the
programs of cli.build_pulse_program plus spectro.detection_events, the flips
of cli._draw_flips and the rows of spin.run_pulse_batch. pytest does not
collect this module; test modules import it.
"""

from typing import NamedTuple

import numpy as np

from qutrit_parity import cli
from qutrit_parity.permutations import NAMED_MAPS
from qutrit_parity.spectro import detection_events
from qutrit_parity.spin import run_pulse_batch, thermal_deviation


class Sweep(NamedTuple):
    cfg: cli.RunConfig
    #: the (6 * repeat, 3, 3) detected rows, permutation by permutation
    rows: np.ndarray
    #: (name, events, flips (repeat, K), rows (repeat, 3, 3)) of each permutation
    runs: list


def seeded_sweep(sigma: float, repeat: int, **fields) -> Sweep:
    """`sweep --noise-sigma-deg sigma --repeat repeat --seed 1` with the other
    RunConfig fields given; at sigma = 0 each row is the noise-free `run` of
    its permutation."""
    cfg = cli.RunConfig(pulse_angle_sigma_deg=sigma, seed=1, **fields)
    programs = [cli.build_pulse_program(perm) + detection_events(cfg.detection_flip_deg)
                for perm in NAMED_MAPS.values()]
    drawn = cli._draw_flips(cfg, [(events, [cfg.seed, k], range(repeat))
                                  for k, events in enumerate(programs)])
    runs = [(name, events, flips, run_pulse_batch(thermal_deviation(), events, flips))
            for name, events, flips in zip(NAMED_MAPS, programs, drawn)]
    return Sweep(cfg, np.concatenate([rows for *_, rows in runs]), runs)
