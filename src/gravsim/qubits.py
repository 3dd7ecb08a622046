"""The four BB84 preparations and their Born-rule measurements.

Alice's signal states are |0>, |1>, |+> = (|0> + |1>)/sqrt(2) and
|-> = (|0> - |1>)/sqrt(2). Every qubit on the channel is one of them, so a
qubit is carried as its Bb84Symbol and every probability in a round is an
entry of the exact table BRANCH_WEIGHTS. Eve's interception splits the
qubit over two spatial arms and measures one arm per basis, which collapses
the state to symbol s with probability 0.5 * |<s|psi>|^2.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ValidationError


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


SYMBOLS: tuple[Bb84Symbol, ...] = tuple(Bb84Symbol)

_LABELS = ("Z0", "Z1", "Xp", "Xm")
_BY_LABEL = dict(zip(_LABELS, SYMBOLS))


def as_symbol(value, path: str = "symbol") -> Bb84Symbol:
    """value as a Bb84Symbol: a symbol, its label or its index 0 to 3, never a bool or float.

    Anything else raises ValidationError naming path.
    """
    if isinstance(value, str) and value in _BY_LABEL:
        return _BY_LABEL[value]
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and 0 <= value < 4:
        return SYMBOLS[value]
    raise ValidationError(
        f"{path}: expected a BB84 symbol, one of {list(_LABELS)} or its index 0 to 3, got {value!r}"
    )


# Born weights 0.5 * |<s|p>|^2 of every symbol s (column) for every prepared
# symbol p (row): 1/2 for p itself, 0 for its orthogonal partner and 1/4 for
# each symbol of the conjugate basis. The 0.5 is the weight of each spatial
# arm, so every row sums to 1 exactly.
BRANCH_WEIGHTS = np.array(
    [
        [0.5, 0.0, 0.25, 0.25],
        [0.0, 0.5, 0.25, 0.25],
        [0.25, 0.25, 0.5, 0.0],
        [0.25, 0.25, 0.0, 0.5],
    ]
)
BRANCH_WEIGHTS.setflags(write=False)

# P(bit 0) when Bob measures prepared symbol p (row) in basis Z (column 0)
# or X (column 1): the weight of the basis's bit-0 symbol over the weight of
# the whole basis.
_BOB_P0 = BRANCH_WEIGHTS[:, 0::2] / (BRANCH_WEIGHTS[:, 0::2] + BRANCH_WEIGHTS[:, 1::2])
_BOB_P0.setflags(write=False)


def branch_weights(prepared: Bb84Symbol) -> np.ndarray:
    """Read-only row of BRANCH_WEIGHTS: the four mass-branch weights of a preparation.

    Every weight is one of {0, 1/4, 1/2} exactly, and the row is also the
    law of Eve's dual-basis outcome for that preparation.
    """
    return BRANCH_WEIGHTS[as_symbol(prepared, "branch_weights")]
