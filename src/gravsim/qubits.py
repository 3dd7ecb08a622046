"""Qubit states, the four BB84 preparations, and Born-rule measurements.

Alice's signal states live in a two-dimensional Hilbert space spanned by
|0> and |1>; the diagonal basis is |+> = (|0> + |1>)/sqrt(2) and
|-> = (|0> - |1>)/sqrt(2). Eve's interception splits the qubit over two
spatial arms and measures one arm per basis, which collapses the state to
one of the four symbols with probability 0.5 * |<s|psi>|^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

INV_SQRT2 = 1.0 / math.sqrt(2.0)

NORM_TOLERANCE = 1e-12


class Basis(enum.Enum):
    """Measurement basis: computational (Z) or diagonal (X)."""

    Z = "Z"
    X = "X"


class Bb84Symbol(enum.IntEnum):
    """The four BB84 signal states, ordered (Z0, Z1, Xp, Xm).

    The integer value doubles as the canonical array index, so vectors and
    matrices indexed by symbol always use this order. Each label determines
    a (basis, bit) pair bijectively.
    """

    Z0 = 0
    Z1 = 1
    XP = 2
    XM = 3

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def basis(self) -> Basis:
        return Basis.Z if self < 2 else Basis.X

    @property
    def bit(self) -> int:
        return int(self) & 1

    @classmethod
    def from_label(cls, label: str) -> "Bb84Symbol":
        try:
            return _BY_LABEL[label]
        except KeyError:
            raise ValidationError(
                f"unknown symbol label {label!r}; expected one of {sorted(_BY_LABEL)}"
            ) from None


_LABELS = {
    Bb84Symbol.Z0: "Z0",
    Bb84Symbol.Z1: "Z1",
    Bb84Symbol.XP: "Xp",
    Bb84Symbol.XM: "Xm",
}
_BY_LABEL = {label: symbol for symbol, label in _LABELS.items()}

SYMBOLS: tuple[Bb84Symbol, ...] = tuple(Bb84Symbol)


def as_symbol(value) -> Bb84Symbol:
    """Coerce a Bb84Symbol, its integer index, or its text label to a symbol."""
    if isinstance(value, Bb84Symbol):
        return value
    if isinstance(value, str):
        return Bb84Symbol.from_label(value)
    try:
        return Bb84Symbol(value)
    except ValueError:
        raise ValidationError(f"not a BB84 symbol: {value!r}") from None


@dataclass(frozen=True)
class QubitState:
    """Pure single-qubit state with complex amplitudes on |0> and |1>.

    Construction does not normalize; operations that require a physical
    state validate the norm and raise ValidationError otherwise.
    """

    amp0: complex
    amp1: complex

    @property
    def norm_sq(self) -> float:
        a0, a1 = complex(self.amp0), complex(self.amp1)
        return a0.real**2 + a0.imag**2 + a1.real**2 + a1.imag**2

    @cached_property
    def _amplitudes(self) -> np.ndarray:
        array = np.array([self.amp0, self.amp1], dtype=np.complex128)
        array.setflags(write=False)
        return array

    def amplitudes(self) -> np.ndarray:
        """The state as a read-only length-2 complex vector."""
        return self._amplitudes


@dataclass(frozen=True)
class BranchWeights:
    """Probability weight of each mass branch, in SYMBOLS order."""

    w: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        values = tuple(float(x) for x in self.w)
        if len(values) != 4:
            raise ValidationError(f"branch weights must have four entries, got {len(values)}")
        if any(x < 0.0 for x in values):
            raise ValidationError(f"branch weights must be non-negative: {values!r}")
        if abs(sum(values) - 1.0) > NORM_TOLERANCE:
            raise ValidationError(f"branch weights must sum to 1: {values!r}")
        object.__setattr__(self, "w", values)

    def as_array(self) -> np.ndarray:
        return np.array(self.w, dtype=np.float64)


def _require_normalized(state: QubitState, where: str) -> None:
    if abs(state.norm_sq - 1.0) > NORM_TOLERANCE:
        raise ValidationError(f"{where}: state must have unit norm, got |amp|^2 = {state.norm_sq!r}")


_STATE_TABLE = {
    Bb84Symbol.Z0: QubitState(1.0 + 0.0j, 0.0 + 0.0j),
    Bb84Symbol.Z1: QubitState(0.0 + 0.0j, 1.0 + 0.0j),
    Bb84Symbol.XP: QubitState(INV_SQRT2 + 0.0j, INV_SQRT2 + 0.0j),
    Bb84Symbol.XM: QubitState(INV_SQRT2 + 0.0j, -INV_SQRT2 + 0.0j),
}

# Rows are <s| for s in SYMBOLS order. Conjugation is a no-op for these real
# states but is kept because QubitState amplitudes are complex in general.
_BASIS_BRA = np.conj(np.array([_STATE_TABLE[s].amplitudes() for s in SYMBOLS]))
_BASIS_BRA.setflags(write=False)


def prepare(symbol: Bb84Symbol) -> QubitState:
    """Return the signal state for one of the four BB84 symbols."""
    try:
        return _STATE_TABLE[Bb84Symbol(symbol)]
    except ValueError:
        raise ValidationError(f"prepare: not a BB84 symbol: {symbol!r}") from None


def state_overlap(bra: QubitState, ket: QubitState) -> complex:
    """Inner product <bra|ket>."""
    return complex(bra.amp0).conjugate() * complex(ket.amp0) + complex(
        bra.amp1
    ).conjugate() * complex(ket.amp1)


def _abs2(values: np.ndarray) -> np.ndarray:
    return values.real**2 + values.imag**2


def outcome_distribution(state: QubitState) -> np.ndarray:
    """Eve's four-outcome probabilities 0.5 * |<s|state>|^2, in SYMBOLS order.

    The 0.5 is the weight of each spatial arm: the Z pair shares one arm and
    the X pair the other, so the four probabilities sum to 1 for a unit-norm
    input. An outcome orthogonal to the input has probability exactly 0.
    """
    amps = _BASIS_BRA @ state.amplitudes()
    return 0.5 * _abs2(amps)


def eve_dual_basis_measure(state: QubitState, rng: np.random.Generator) -> Bb84Symbol:
    """Sample Eve's interception outcome; consumes exactly one uniform draw.

    One spatial arm is measured in the Z basis and the other in X; exactly
    one detection occurs per round, distributed per outcome_distribution.
    """
    _require_normalized(state, "eve_dual_basis_measure")
    cumulative = np.cumsum(outcome_distribution(state))
    u = rng.random()
    index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return SYMBOLS[min(index, 3)]


def branch_weights(prepared: Bb84Symbol) -> BranchWeights:
    """Weights of the four mass branches for a given preparation.

    w(s) = 0.5 * |<s|prepared>|^2, which makes every weight one of
    {0, 1/4, 1/2} exactly: 1/2 for the prepared symbol itself, 0 for its
    orthogonal partner, and 1/4 for each symbol of the conjugate basis.
    The weights match the outcome distribution of eve_dual_basis_measure.
    """
    prepared = Bb84Symbol(prepared)
    values = []
    for s in SYMBOLS:
        if s == prepared:
            values.append(0.5)
        elif s.basis == prepared.basis:
            values.append(0.0)
        else:
            values.append(0.25)
    return BranchWeights(tuple(values))


def bob_measure(state: QubitState, basis: Basis, rng: np.random.Generator) -> int:
    """Measure a qubit in the given basis; returns the outcome bit.

    Outcome probabilities are the Born weights of the two basis states,
    normalized by their sum so that eigenstates give a deterministic bit.
    Consumes exactly one uniform draw.
    """
    _require_normalized(state, "bob_measure")
    basis = Basis(basis)
    row = 0 if basis is Basis.Z else 2
    amps = _BASIS_BRA[row : row + 2] @ state.amplitudes()
    p0, p1 = _abs2(amps)
    return 0 if rng.random() < p0 / (p0 + p1) else 1
