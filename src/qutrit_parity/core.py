"""Linear algebra for a single three-level system.

Basis ordering follows the energy-level diagram: index 0 is |+1>, index 1 is
|0>, index 2 is |-1>. All other modules share this convention and the
fixed tolerances defined here.
"""

from __future__ import annotations

import numpy as np

DIM = 3

#: spin quantum number m of each basis index
LEVEL_OF_INDEX = (1, 0, -1)
INDEX_OF_LEVEL = {level: i for i, level in enumerate(LEVEL_OF_INDEX)}


class NormalizationError(ValueError):
    """State amplitudes do not form a unit vector."""


class NonUnitaryError(ValueError):
    """Matrix fails the unitarity check; carries the worst entry deviation."""

    def __init__(self, message: str, max_deviation: float):
        super().__init__(f"{message} (max entry deviation {max_deviation:.3e})")
        self.max_deviation = max_deviation


#: largest entry deviation a unitarity, Hermiticity or trace check accepts
ENTRY_TOL = 1e-10
#: two states or gates agree up to a global phase when |overlap| >= 1 - PHASE_TOL
PHASE_TOL = 1e-9
#: largest deviation of a pure state's squared norm from 1
NORM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def check_unitary(u: np.ndarray):
    """Raise NonUnitaryError unless each matrix of u (..., 3, 3) is unitary;
    u u^dagger is formed by einsum, so a pulse process makes no BLAS call."""
    dev = float(np.max(np.abs(np.einsum("...ij,...kj->...ik", u, u.conj()) - np.eye(DIM))))
    if not dev <= ENTRY_TOL:
        raise NonUnitaryError("matrix is not unitary", dev)


def check_density(m: np.ndarray, kind: str):
    """Raise ValueError unless each matrix of m (..., 3, 3) is a DensityMatrix
    of `kind`; a wrong trace is reported as the worst one."""
    dev = float(np.max(np.abs(m - dagger(m))))
    if not dev <= ENTRY_TOL:
        raise ValueError(f"density matrix is not Hermitian (max deviation {dev:.3e})")
    want = 1.0 if kind == "true-state" else 0.0
    tr = np.trace(m, axis1=-2, axis2=-1).reshape(-1)
    worst = complex(tr[np.argmax(np.abs(tr - want))])
    if not abs(worst - want) <= ENTRY_TOL:
        raise ValueError(f"{kind} trace is {worst!r}, expected {want:g}")
    if kind == "true-state" and np.min(
            np.linalg.eigvalsh(0.5 * (m + dagger(m)))) < -ENTRY_TOL:
        raise ValueError("true-state has a negative eigenvalue")


class QutritState:
    """Pure state of the qutrit, a normalized complex amplitude triple."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        a = np.asarray(amplitudes, dtype=complex).reshape(DIM)
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise NormalizationError(
                f"amplitudes have squared norm {norm_sq!r}, expected 1"
            )
        self.amplitudes = _frozen(a.copy())

    @classmethod
    def ket(cls, level: int) -> "QutritState":
        """Basis state |m> for m in {+1, 0, -1}."""
        a = np.zeros(DIM, dtype=complex)
        a[INDEX_OF_LEVEL[level]] = 1.0
        return cls(a)

    def overlap(self, other: "QutritState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self):
        return f"QutritState({self.amplitudes.tolist()})"


class Operator3:
    """Read-only 3x3 unitary, checked when constructed."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex).reshape(DIM, DIM)
        check_unitary(m)
        self.entries = _frozen(m.copy())

    def __repr__(self):
        return f"Operator3({self.entries.tolist()})"


class DensityMatrix:
    """Ensemble state: either a true density matrix or a traceless deviation.

    NMR detection only sees the traceless deviation part, so pulse programs
    usually run on kind="deviation" matrices (no positivity requirement).
    """

    __slots__ = ("entries", "kind")

    KINDS = ("true-state", "deviation")

    def __init__(self, entries, kind: str = "true-state"):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        m = np.asarray(entries, dtype=complex).reshape(DIM, DIM)
        check_density(m, kind)
        self.entries = _frozen(m.copy())
        self.kind = kind

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.entries)).copy()

    def __repr__(self):
        return f"DensityMatrix({self.entries.tolist()}, kind={self.kind!r})"


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a (..., 3, 3) stack; an involution."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def rotate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u m u^dagger for one matrix or each of a (..., 3, 3) stack: every rho update."""
    return u @ m @ dagger(u)


def apply_unitary(state, u: Operator3 | np.ndarray):
    """u|psi> for a pure state, rotate(u, rho) for a density matrix; an array
    u is checked unitary as an Operator3."""
    um = (u if isinstance(u, Operator3) else Operator3(u)).entries
    if isinstance(state, QutritState):
        return QutritState(um @ state.amplitudes)
    if isinstance(state, DensityMatrix):
        return DensityMatrix(rotate(um, state.entries), state.kind)
    raise TypeError(f"cannot apply a unitary to {type(state).__name__}")


def equal_up_to_global_phase(a: QutritState, b: QutritState):
    """Whether b = e^{i phi} a, and the phase phi = arg<a|b> when it is.

    Returns (True, phi) or (False, None).
    """
    ov = a.overlap(b)
    if abs(ov) >= 1.0 - PHASE_TOL:
        return True, float(np.angle(ov))
    return False, None


def state_to_row(s: QutritState) -> list:
    """Amplitudes as a list of [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in s.amplitudes]
