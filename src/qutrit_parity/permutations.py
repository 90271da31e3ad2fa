"""Permutations of the qutrit levels, their unitaries, and the parity algorithm.

The six bijections of the label set {+1, 0, -1} are named f1..f6 (f1..f3 even,
f4..f6 odd). Their permutation matrices U1..U6 are derived from the images in
the printed convention: row i of Uk holds its 1 in the column of fk's image of
level i, so under the column-as-input convention U2/U3 are the matrices of the
inverse maps of f2/f3. Parity is invariant under inversion, so the verdict is
unaffected either way; as a consequence the matrix of a composition comes out
in reversed product order (see compose).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DIM,
    INDEX_OF_LEVEL,
    LEVEL_OF_INDEX,
    PHASE_TOL,
    Operator3,
    QutritState,
    apply_unitary,
    dagger,
    equal_up_to_global_phase,
    state_to_row,
)


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"

    def __xor__(self, other: "Parity") -> "Parity":
        return Parity.EVEN if self is other else Parity.ODD


class CauchyParseError(ValueError):
    """Malformed Cauchy-notation text; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnclassifiableStateError(ValueError):
    """Final state is dominated by neither |-1> nor |0>."""

    def __init__(self, p_even: float, p_odd: float):
        super().__init__(
            f"final state classifies as neither parity "
            f"(P|-1> = {p_even:.6f}, P|0> = {p_odd:.6f})"
        )
        self.p_even = p_even
        self.p_odd = p_odd


@dataclass(frozen=True)
class PermutationMap:
    """Bijection on {+1, 0, -1}; images listed in the order (+1, 0, -1)."""

    images: tuple

    def __post_init__(self):
        if tuple(sorted(self.images, reverse=True)) != LEVEL_OF_INDEX:
            raise ValueError(
                f"images {self.images} are not a bijection of {LEVEL_OF_INDEX}")

    def __call__(self, label: int) -> int:
        return self.images[INDEX_OF_LEVEL[label]]

    def inverse(self) -> "PermutationMap":
        inv = {self(x): x for x in LEVEL_OF_INDEX}
        return _BY_IMAGES[tuple(inv[x] for x in LEVEL_OF_INDEX)]

    def cauchy(self) -> str:
        top = " ".join(str(x) for x in LEVEL_OF_INDEX)
        bottom = " ".join(str(self(x)) for x in LEVEL_OF_INDEX)
        return f"({top} / {bottom})"


NAMED_MAPS = {
    "f1": PermutationMap((1, 0, -1)),
    "f2": PermutationMap((0, -1, 1)),
    "f3": PermutationMap((-1, 1, 0)),
    "f4": PermutationMap((0, 1, -1)),
    "f5": PermutationMap((1, -1, 0)),
    "f6": PermutationMap((-1, 0, 1)),
}

#: every bijection of the three labels is a named map
_BY_IMAGES = {p.images: p for p in NAMED_MAPS.values()}
_NAME_OF = {p: name for name, p in NAMED_MAPS.items()}

_UNITARIES = {name: Operator3(np.eye(DIM)[[INDEX_OF_LEVEL[x] for x in p.images]])
              for name, p in NAMED_MAPS.items()}


def name_of(p: PermutationMap) -> str:
    return _NAME_OF[p]


def parse_cauchy(text: str) -> PermutationMap:
    """Parse two-row Cauchy notation, e.g. "(1 0 -1 / 0 -1 1)"."""
    body = text.strip()
    offset = len(text) - len(text.lstrip())  # body[i] is text[offset + i]
    if body.startswith("("):
        if not body.endswith(")"):
            raise CauchyParseError("unbalanced parenthesis", offset)
        offset += 1
        body = body[1:-1]
    if "/" not in body:
        raise CauchyParseError("expected two rows separated by '/'", offset)
    top_text, _, bottom_text = body.partition("/")

    def row_tokens(chunk: str, base: int):
        toks = []
        for m in re.finditer(r"\S+", chunk):
            pos = base + m.start()
            tok = m.group()
            try:
                label = int(tok)
            except ValueError:
                raise CauchyParseError(f"unknown token {tok!r}", pos) from None
            if label not in LEVEL_OF_INDEX:
                raise CauchyParseError(f"unknown label {label}", pos)
            toks.append((label, pos))
        return toks

    top = row_tokens(top_text, offset)
    bottom = row_tokens(bottom_text, offset + len(top_text) + 1)
    for row, row_name in ((top, "top"), (bottom, "bottom")):
        if len(row) != 3:
            pos = row[0][1] if row else offset
            raise CauchyParseError(
                f"{row_name} row has {len(row)} labels, expected 3", pos)
        seen = set()
        for label, pos in row:
            if label in seen:
                raise CauchyParseError(f"label {label} repeated", pos)
            seen.add(label)

    mapping = {t: b for (t, _), (b, _) in zip(top, bottom)}
    return _BY_IMAGES[tuple(mapping[x] for x in LEVEL_OF_INDEX)]


def resolve(spec: str) -> PermutationMap:
    """Accept either a name tag "f1".."f6" or Cauchy text."""
    key = spec.strip().lower()
    if key in NAMED_MAPS:
        return NAMED_MAPS[key]
    return parse_cauchy(spec)


def parity_by_counting(p: PermutationMap) -> Parity:
    """Classical ground truth: parity of the inversion count."""
    perm = [INDEX_OF_LEVEL[p(LEVEL_OF_INDEX[i])] for i in range(3)]
    inversions = sum(
        1
        for i in range(3)
        for j in range(i + 1, 3)
        if perm[i] > perm[j]
    )
    return Parity.EVEN if inversions % 2 == 0 else Parity.ODD


def unitary_of(p: PermutationMap) -> Operator3:
    """The printed permutation matrix Uk for the map fk."""
    return _UNITARIES[name_of(p)]


def compose(p: PermutationMap, q: PermutationMap) -> PermutationMap:
    """(p o q)(x) = p(q(x)); q acts first.

    Because the printed U2/U3 are the inverses of f2/f3 under the
    column-as-input convention, the matrix of a composition is the reversed
    product: unitary_of(compose(p, q)) = unitary_of(q) @ unitary_of(p).
    """
    return _BY_IMAGES[tuple(p(q(x)) for x in LEVEL_OF_INDEX)]


def fourier(d: int) -> np.ndarray:
    """Qudit Fourier transform with exponent pattern (0, 1, ..., -1).

    At d = 3 the pattern (0, 1, -1) reproduces the qutrit transform whose
    third column is (1, e^{-2pi i/3}, e^{2pi i/3})/sqrt(3); at d = 2 it
    reduces to the Hadamard.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    half = (d + 1) // 2
    exponents = np.array(list(range(half)) + list(range(-(d // 2), 0)))
    jk = np.outer(exponents, exponents)
    return np.exp(2j * np.pi * jk / d) / np.sqrt(d)


FOURIER3 = Operator3(fourier(3))
FOURIER3_INV = Operator3(dagger(FOURIER3.entries))


def classify_final_state(s: QutritState) -> Parity:
    """Even if the state sits on |-1>, odd if on |0>, else unclassifiable."""
    p_even = abs(s.overlap(QutritState.ket(-1))) ** 2
    p_odd = abs(s.overlap(QutritState.ket(0))) ** 2
    if p_even >= 1.0 - PHASE_TOL:
        return Parity.EVEN
    if p_odd >= 1.0 - PHASE_TOL:
        return Parity.ODD
    raise UnclassifiableStateError(p_even, p_odd)


class AlgorithmTrace(NamedTuple):
    initial: QutritState
    post_fourier: QutritState
    post_oracle: QutritState
    final: QutritState
    verdict: Parity
    global_phase: float
    oracle_calls: int

    def to_record(self) -> dict:
        return {
            "initial": state_to_row(self.initial),
            "post_fourier": state_to_row(self.post_fourier),
            "post_oracle": state_to_row(self.post_oracle),
            "final": state_to_row(self.final),
            "verdict": self.verdict.value,
            "global_phase_rad": self.global_phase,
            "oracle_calls": self.oracle_calls,
        }


def run_parity_algorithm(p: PermutationMap) -> AlgorithmTrace:
    """One oracle call between the Fourier transform and its inverse.

    Pipeline: |-1>  ->  F  ->  U_f  ->  F^dagger, then a basis measurement
    reads the parity off the final eigenstate.
    """
    calls = 0

    def oracle(state: QutritState) -> QutritState:
        nonlocal calls
        calls += 1
        return apply_unitary(state, unitary_of(p))

    initial = QutritState.ket(-1)
    post_fourier = apply_unitary(initial, FOURIER3)
    post_oracle = oracle(post_fourier)
    final = apply_unitary(post_oracle, FOURIER3_INV)

    verdict = classify_final_state(final)
    reference = QutritState.ket(-1 if verdict is Parity.EVEN else 0)
    # classify_final_state showed |<ref|final>|^2 >= 1 - PHASE_TOL, so the
    # overlap's modulus is >= 1 - PHASE_TOL as well: the states agree up to a phase
    _, phase = equal_up_to_global_phase(reference, final)
    return AlgorithmTrace(initial, post_fourier, post_oracle, final,
                          verdict, phase, calls)
