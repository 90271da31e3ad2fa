"""Two-level simulator of the single-qutrit permutation-parity algorithm:
gate-level circuits, an NMR spin-1 pulse model, a gate-to-pulse compiler,
and a synthetic-spectrum readout."""

from .core import (
    DensityMatrix,
    Operator3,
    QutritState,
    apply_unitary,
    dagger,
    equal_up_to_global_phase,
)
from .permutations import (
    AlgorithmTrace,
    Parity,
    PermutationMap,
    classify_final_state,
    compose,
    fourier,
    parity_by_counting,
    parse_cauchy,
    run_parity_algorithm,
    unitary_of,
)

__all__ = [
    "AlgorithmTrace",
    "DensityMatrix",
    "Operator3",
    "Parity",
    "PermutationMap",
    "QutritState",
    "apply_unitary",
    "classify_final_state",
    "compose",
    "dagger",
    "equal_up_to_global_phase",
    "fourier",
    "parity_by_counting",
    "parse_cauchy",
    "run_parity_algorithm",
    "unitary_of",
]
