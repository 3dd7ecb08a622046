"""BB84 session orchestration: preparation, optional eavesdropping, sifting, accounting.

Alice draws a uniform symbol each round; Eve may intercept the qubit and
forward a replacement; Bob measures in a uniform random basis. Rounds with
matching bases are sifted, and the session's security figures (QBER, Eve
information, key rates) are aggregated from the sifted transcript.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attack import EveRecord, EveStrategy, SensorModel, attack_round
from .errors import UndefinedStatisticError, ValidationError
from .gravity import Geometry, NonlinearParams
from .qubits import SYMBOLS, Basis, Bb84Symbol, bob_measure, prepare

ABORT_QBER = 0.11

# Eve guess categories for the information accounting: her inferred bit when
# her basis matched the announced one, else a separate no-guess category.
_NO_GUESS = 2


@dataclass(frozen=True)
class EveConfig:
    """Everything the session needs to put Eve on the channel."""

    geometry: Geometry
    params: NonlinearParams
    sensor: SensorModel
    strategy: EveStrategy
    attack_fraction: float = 1.0
    born_factor: bool = True

    def __post_init__(self) -> None:
        if (
            not isinstance(self.attack_fraction, (int, float))
            or isinstance(self.attack_fraction, bool)
            or not 0.0 <= float(self.attack_fraction) <= 1.0
        ):
            raise ValidationError(
                f"eve.attackFraction: must lie in [0, 1], got {self.attack_fraction!r}"
            )
        object.__setattr__(self, "attack_fraction", float(self.attack_fraction))
        object.__setattr__(self, "born_factor", bool(self.born_factor))


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round as seen by the simulator.

    error is defined only on sifted rounds and None otherwise; eve is None
    on rounds Eve did not attack.
    """

    index: int
    alice: Bb84Symbol
    bob_basis: Basis
    bob_bit: int
    sifted: bool
    error: bool | None
    eve: EveRecord | None


@dataclass(frozen=True)
class SessionStats:
    """Aggregated security figures for one session.

    Rates are bits per sifted bit; eve_accuracy and eve_mutual_info are None
    when no eavesdropper was configured. A session with no sifted round has
    no evidence about the channel: qber and both key rates are None, and it
    counts as aborted because there is no sifted key to certify.
    """

    rounds: int
    sifted_count: int
    qber: float | None
    eve_accuracy: float | None
    eve_mutual_info: float | None
    key_rate_theory: float | None
    key_rate_attack: float | None
    aborted: bool

    def to_dict(self) -> dict:
        """JSON-ready mapping with stable key order."""
        return {
            "rounds": self.rounds,
            "siftedCount": self.sifted_count,
            "qber": self.qber,
            "eveAccuracy": self.eve_accuracy,
            "eveMutualInfo": self.eve_mutual_info,
            "keyRateTheory": self.key_rate_theory,
            "keyRateAttack": self.key_rate_attack,
            "aborted": self.aborted,
        }


def binary_entropy(p: float) -> float:
    """h2(p) in bits, with h2(0) = h2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"binary_entropy: p must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def key_rate(qber: float, eve_info: float) -> tuple[float, float]:
    """Asymptotic secret-key rates in bits per sifted bit.

    The first rate charges error correction and privacy amplification both at
    h2(qber), the standard one-way bound; the second charges error correction
    at h2(qber) and privacy amplification at the measured Eve information.
    Both are floored at zero.
    """
    if not isinstance(qber, (int, float)) or not 0.0 <= float(qber) <= 1.0:
        raise ValidationError(f"key_rate: qber must lie in [0, 1], got {qber!r}")
    if not isinstance(eve_info, (int, float)) or float(eve_info) < 0.0:
        raise ValidationError(f"key_rate: eveInfo must be >= 0, got {eve_info!r}")
    h = binary_entropy(float(qber))
    theory = max(0.0, 1.0 - 2.0 * h)
    attack = max(0.0, 1.0 - h - float(eve_info))
    return theory, attack


def _mutual_information(joint: np.ndarray) -> float:
    """Plug-in mutual information (bits) of an empirical joint count table."""
    n = int(joint.sum())
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    total = 0.0
    for a in range(joint.shape[0]):
        for e in range(joint.shape[1]):
            c = int(joint[a, e])
            if c:
                total += (c / n) * math.log2(c * n / (int(rows[a]) * int(cols[e])))
    return max(0.0, total)


def _eve_guess_category(eve: EveRecord | None, announced: Basis) -> int:
    if eve is not None and eve.inferred.basis is announced:
        return eve.inferred.bit
    return _NO_GUESS


def eve_information(records) -> float:
    """Plug-in mutual information between Alice's sifted bit and Eve's guess.

    Eve's guess on a sifted round is the bit of her inferred symbol when its
    basis matches the announced basis. When it does not (or she sat the round
    out), the round lands in a separate no-guess category: operationally she
    would flip a fair coin there, and a coin independent of Alice's bit
    carries exactly zero information, so the category keeps the statistic
    deterministic without changing its value. Raises UndefinedStatisticError
    when the transcript has no eavesdropped rounds or no sifted rounds.
    """
    records = list(records)
    if not any(r.eve is not None for r in records):
        raise UndefinedStatisticError("eve_information: no eavesdropped rounds in the transcript")
    sifted = [r for r in records if r.sifted]
    if not sifted:
        raise UndefinedStatisticError("eve_information: no sifted rounds in the transcript")
    joint = np.zeros((2, 3), dtype=np.int64)
    for r in sifted:
        joint[r.alice.bit, _eve_guess_category(r.eve, r.alice.basis)] += 1
    return _mutual_information(joint)


def run_session(
    n_rounds: int,
    eve_config: EveConfig | None = None,
    *,
    seed: int,
    with_records: bool = True,
) -> tuple[SessionStats, list[RoundRecord]]:
    """Simulate a BB84 session; returns (SessionStats, round records).

    Round i consumes its own random stream seeded by (seed, i) in a fixed
    draw order: Alice's symbol, the attack coin (only when Eve is
    configured), Eve's attack draws, Bob's basis, Bob's measurement.
    Identical (configuration, seed) therefore reproduce identical transcripts
    regardless of how other rounds are scheduled.

    with_records=False skips transcript storage for large sessions; all
    statistics are unaffected.
    """
    if not isinstance(n_rounds, (int, np.integer)) or isinstance(n_rounds, bool) or n_rounds < 1:
        raise ValidationError(f"session.rounds: must be an integer >= 1, got {n_rounds!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"session.seed: must be a non-negative integer, got {seed!r}")
    if eve_config is not None and not isinstance(eve_config, EveConfig):
        raise ValidationError(f"run_session: eve_config must be an EveConfig, got {eve_config!r}")
    records: list[RoundRecord] | None = [] if with_records else None
    bases = (Basis.Z, Basis.X)
    sifted_count = 0
    error_count = 0
    attacked_count = 0
    inferred_correct = 0
    joint = np.zeros((2, 3), dtype=np.int64)
    for i in range(int(n_rounds)):
        rng = np.random.default_rng([int(seed), i])
        alice = SYMBOLS[int(rng.integers(4))]
        state = prepare(alice)
        eve_record = None
        if eve_config is not None:
            if rng.random() < eve_config.attack_fraction:
                state, eve_record = attack_round(
                    alice,
                    eve_config.geometry,
                    eve_config.params,
                    eve_config.sensor,
                    eve_config.strategy,
                    rng,
                    eve_config.born_factor,
                )
                attacked_count += 1
                inferred_correct += eve_record.inferred == alice
        bob_basis = bases[int(rng.integers(2))]
        bob_bit = bob_measure(state, bob_basis, rng)
        sifted = bob_basis is alice.basis
        error = (bob_bit != alice.bit) if sifted else None
        if sifted:
            sifted_count += 1
            error_count += bool(error)
            if eve_config is not None:
                joint[alice.bit, _eve_guess_category(eve_record, alice.basis)] += 1
        if records is not None:
            records.append(RoundRecord(i, alice, bob_basis, bob_bit, sifted, error, eve_record))
    eve_accuracy = (
        inferred_correct / attacked_count
        if (eve_config is not None and attacked_count)
        else None
    )
    mutual_info = (
        _mutual_information(joint) if (eve_config is not None and sifted_count) else None
    )
    if sifted_count:
        qber = error_count / sifted_count
        theory, attack_rate = key_rate(qber, mutual_info if mutual_info is not None else 0.0)
    else:
        qber = theory = attack_rate = None
    stats = SessionStats(
        rounds=int(n_rounds),
        sifted_count=sifted_count,
        qber=qber,
        eve_accuracy=eve_accuracy,
        eve_mutual_info=mutual_info,
        key_rate_theory=theory,
        key_rate_attack=attack_rate,
        aborted=qber is None or qber > ABORT_QBER,
    )
    return stats, (records if records is not None else [])
