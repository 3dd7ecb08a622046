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

from .attack import EveRecord, EveStrategy, SensorModel, _attack_batch
from .errors import UndefinedStatisticError, ValidationError
from .gravity import Geometry, NonlinearParams
from .qubits import _BASES, _BOB_P0, SYMBOLS, Basis, Bb84Symbol

ABORT_QBER = 0.11

# Version of the random-stream layout that run_session reads (see
# _round_variates); it changes whenever a seed would give other rounds.
RNG_CONTRACT = 2

# The uniforms at the head of every round's block, in stream order.
_ALICE, _COIN, _EVE_OUTCOME, _TIE_BREAK, _BOB_BASIS, _BOB_BIT = range(6)
_UNIFORMS = 6

# uint64 draws simulated per chunk; bounds a session's working memory.
_CHUNK_VARIATES = 8192

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


def _round_block(n_normals: int) -> int:
    """uint64 draws per round: the uniforms, then n_normals Box-Muller inputs rounded up to even.

    The sum is padded to a multiple of 4, one Philox counter step.
    """
    return -(-(_UNIFORMS + n_normals + n_normals % 2) // 4) * 4


def _round_variates(seed: int, start: int, stop: int, n_normals: int):
    """The variates of rounds [start, stop): uniforms (n, 6) and standard normals (n, n_normals).

    Round i owns uint64 draws [i * K, (i + 1) * K) of Philox(seed), with
    K = _round_block(n_normals); Philox yields 4 draws per counter step, so
    the stream is entered by advancing the counter start * K / 4 steps. A
    draw x gives the uniform (x >> 11) * 2**-53 in [0, 1); the normals come
    in Box-Muller pairs, r cos(2 pi v) and r sin(2 pi v) with
    r = sqrt(-2 log(1 - u)) for consecutive uniforms u, v.
    """
    block = _round_block(n_normals)
    bitgen = np.random.Philox(seed)
    bitgen.advance(start * block // 4)
    raw = bitgen.random_raw((stop - start) * block).reshape(stop - start, block)
    uniforms = (raw[:, : _UNIFORMS + n_normals + n_normals % 2] >> 11) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[:, _UNIFORMS::2]))
    angle = 2.0 * math.pi * uniforms[:, _UNIFORMS + 1 :: 2]
    normals = np.empty((stop - start, 2 * radius.shape[1]))
    normals[:, 0::2] = radius * np.cos(angle)
    normals[:, 1::2] = radius * np.sin(angle)
    return uniforms[:, :_UNIFORMS], normals[:, :n_normals]


def _rows(columns):
    """Row tuples of Python scalars (lists for 2-D columns) across equal-length arrays."""
    return zip(*(column.tolist() for column in columns))


def run_session(
    n_rounds: int,
    eve_config: EveConfig | None = None,
    *,
    seed: int,
    with_records: bool = True,
) -> tuple[SessionStats, list[RoundRecord]]:
    """Simulate a BB84 session; returns (SessionStats, round records).

    Round i reads only its own block of the counter-based stream
    Philox(seed) (RNG_CONTRACT, see _round_variates): six uniforms for
    Alice's symbol floor(4u), the attack coin u < attack_fraction, Eve's
    outcome, her tie-break, Bob's basis floor(2u) and Bob's bit, then the
    standard normals of Eve's sensor block (none without Eve). A session is
    therefore a prefix of every longer session with the same configuration
    and seed. Rounds are simulated in vectorised chunks of bounded size,
    with attack_round's and bob_measure's rules applied to whole arrays;
    the chunking never changes a result.

    with_records=False skips transcript storage for large sessions; all
    statistics are unaffected.
    """
    if not isinstance(n_rounds, (int, np.integer)) or isinstance(n_rounds, bool) or n_rounds < 1:
        raise ValidationError(f"session.rounds: must be an integer >= 1, got {n_rounds!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"session.seed: must be a non-negative integer, got {seed!r}")
    if eve_config is not None and not isinstance(eve_config, EveConfig):
        raise ValidationError(f"run_session: eve_config must be an EveConfig, got {eve_config!r}")
    eve = eve_config
    n_rounds = int(n_rounds)
    n_normals = eve.sensor.samples * eve.geometry.field_dim if eve is not None else 0
    chunk = max(1, _CHUNK_VARIATES // _round_block(n_normals))
    records: list[RoundRecord] | None = [] if with_records else None
    sifted_count = error_count = attacked_count = inferred_correct = 0
    joint = np.zeros(6, dtype=np.int64)
    for start in range(0, n_rounds, chunk):
        stop = min(n_rounds, start + chunk)
        uniforms, normals = _round_variates(int(seed), start, stop, n_normals)
        alice = (4.0 * uniforms[:, _ALICE]).astype(np.intp)
        state = alice.copy()
        # Eve's guess per round: her inferred bit when its basis is Alice's, else no guess.
        guess = np.full(stop - start, _NO_GUESS)
        if eve is not None:
            attacked = np.flatnonzero(uniforms[:, _COIN] < eve.attack_fraction)
            outcome, inferred, posterior, resent = _attack_batch(
                alice[attacked],
                eve.geometry,
                eve.params,
                eve.sensor,
                eve.strategy,
                eve.born_factor,
                uniforms[attacked, _EVE_OUTCOME],
                normals[attacked],
                uniforms[attacked, _TIE_BREAK],
            )
            state[attacked] = resent
            same_basis = inferred >> 1 == alice[attacked] >> 1
            guess[attacked] = np.where(same_basis, inferred & 1, _NO_GUESS)
            attacked_count += attacked.size
            inferred_correct += int(np.count_nonzero(inferred == alice[attacked]))
        bob_basis = (2.0 * uniforms[:, _BOB_BASIS]).astype(np.intp)
        bob_bit = (uniforms[:, _BOB_BIT] >= _BOB_P0[state, bob_basis]).astype(np.intp)
        sifted = bob_basis == alice >> 1
        error = sifted & (bob_bit != alice & 1)
        sifted_count += int(np.count_nonzero(sifted))
        error_count += int(np.count_nonzero(error))
        joint += np.bincount(3 * (alice[sifted] & 1) + guess[sifted], minlength=6)
        if records is not None:
            eve_records: list[EveRecord | None] = [None] * (stop - start)
            if eve is not None:
                eve_columns = (outcome, inferred, posterior, resent, resent == alice[attacked])
                for row, (o, i, p, r, c) in zip(attacked.tolist(), _rows(eve_columns)):
                    eve_records[row] = EveRecord(SYMBOLS[o], SYMBOLS[i], p, SYMBOLS[r], c)
            rounds = zip(_rows((alice, bob_basis, bob_bit, sifted, error)), eve_records)
            records.extend(
                RoundRecord(start + k, SYMBOLS[a], _BASES[b], bit, s, e if s else None, eve_record)
                for k, ((a, b, bit, s, e), eve_record) in enumerate(rounds)
            )
    eve_accuracy = inferred_correct / attacked_count if attacked_count else None
    mutual_info = (
        _mutual_information(joint.reshape(2, 3)) if (eve is not None and sifted_count) else None
    )
    if sifted_count:
        qber = error_count / sifted_count
        theory, attack_rate = key_rate(qber, mutual_info if mutual_info is not None else 0.0)
    else:
        qber = theory = attack_rate = None
    stats = SessionStats(
        rounds=n_rounds,
        sifted_count=sifted_count,
        qber=qber,
        eve_accuracy=eve_accuracy,
        eve_mutual_info=mutual_info,
        key_rate_theory=theory,
        key_rate_attack=attack_rate,
        aborted=qber is None or qber > ABORT_QBER,
    )
    return stats, (records if records is not None else [])
