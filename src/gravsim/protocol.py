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

from .attack import EveStrategy, SensorModel, _attack_batch
from .errors import ValidationError
from .gravity import Geometry, NonlinearParams
from .qubits import _BOB_P0

ABORT_QBER = 0.11

# Version of the random-stream layout that run_session reads (see
# _round_variates); it changes whenever a seed would give other rounds.
RNG_CONTRACT = 3

# Every round's block of uniforms, in stream order: six, then the pair that
# Box-Muller turns into Eve's two plane normals.
_ALICE, _COIN, _EVE_OUTCOME, _TIE_BREAK, _BOB_BASIS, _BOB_BIT, _NOISE_U, _NOISE_V = range(8)
_BLOCK = 8

# uint64 draws simulated per chunk; bounds a session's working memory.
_CHUNK_VARIATES = 8192

# Eve guess categories for the information accounting: her inferred bit when
# her basis matched the announced one, else a separate no-guess category.
# There she would flip a fair coin, which carries no information about
# Alice's bit, so the category keeps the statistic deterministic without
# changing its value.
_NO_GUESS = 2

# The transcript's row layout; run_session documents the fields.
_TRANSCRIPT = np.dtype(
    [
        ("alice", np.int8),
        ("bob_basis", np.int8),
        ("bob_bit", np.int8),
        ("sifted", np.bool_),
        ("error", np.bool_),
        ("attacked", np.bool_),
        ("outcome", np.int8),
        ("inferred", np.int8),
        ("resent", np.int8),
        ("posterior", np.float64, (4,)),
    ]
)


def _attack_fraction(value) -> float:
    """The share of rounds Eve attacks, checked to lie in [0, 1]."""
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0.0 <= float(value) <= 1.0
    ):
        raise ValidationError(f"eve.attackFraction: must lie in [0, 1], got {value!r}")
    return float(value)


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
        object.__setattr__(self, "attack_fraction", _attack_fraction(self.attack_fraction))
        object.__setattr__(self, "born_factor", bool(self.born_factor))


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


def _round_variates(seed: int, start: int, stop: int) -> np.ndarray:
    """The uniforms of rounds [start, stop), shape (n, 8).

    Round i owns uint64 draws [i * K, (i + 1) * K) of Philox(seed), with
    K = 8 whatever the configuration; Philox yields 4 draws per counter
    step, so the stream is entered by advancing the counter 2 * start steps.
    A draw x gives the uniform (x >> 11) * 2**-53 in [0, 1).
    """
    bitgen = np.random.Philox(seed)
    bitgen.advance(start * _BLOCK // 4)
    raw = bitgen.random_raw((stop - start) * _BLOCK).reshape(stop - start, _BLOCK)
    return (raw >> 11) * 2.0**-53


def _box_muller(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Normal pairs (r cos(2 pi v), r sin(2 pi v)) with r = sqrt(-2 log(1 - u)), shape (n, 2)."""
    radius = np.sqrt(-2.0 * np.log1p(-u))
    angle = 2.0 * math.pi * v
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def run_session(
    n_rounds: int,
    eve_config: EveConfig | None = None,
    *,
    seed: int,
    with_records: bool = True,
) -> tuple[SessionStats, np.ndarray | None]:
    """Simulate a BB84 session; returns (SessionStats, transcript).

    Round i reads only its own block of the counter-based stream
    Philox(seed) (RNG_CONTRACT, see _round_variates): uniforms for Alice's
    symbol floor(4u), the attack coin u < attack_fraction, Eve's outcome,
    her tie-break, Bob's basis floor(2u) and Bob's bit, then the pair that
    Box-Muller turns into the two standard normals of Eve's sensor noise in
    the plane of her hypotheses (unused without Eve). A session is
    therefore a prefix of every longer session with the same configuration
    and seed. Rounds are simulated in vectorised chunks of bounded size,
    with attack_round's and bob_measure's rules applied to whole arrays;
    the chunking never changes a result.

    The transcript is a structured array with one row per round and the
    fields alice, bob_basis, bob_bit, sifted, error (False on unsifted
    rounds), attacked, outcome, inferred, resent and a 4-wide posterior;
    symbols are Bb84Symbol indices, bases 0 for Z and 1 for X, and Eve's
    symbols are -1 with a zero posterior on rounds she did not attack.
    with_records=False allocates no transcript and returns None in its
    place; all statistics are unaffected.
    """
    if not isinstance(n_rounds, (int, np.integer)) or isinstance(n_rounds, bool) or n_rounds < 1:
        raise ValidationError(f"session.rounds: must be an integer >= 1, got {n_rounds!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"session.seed: must be a non-negative integer, got {seed!r}")
    if eve_config is not None and not isinstance(eve_config, EveConfig):
        raise ValidationError(f"run_session: eve_config must be an EveConfig, got {eve_config!r}")
    eve = eve_config
    n_rounds = int(n_rounds)
    chunk = max(1, _CHUNK_VARIATES // _BLOCK)
    transcript = None
    if with_records:
        transcript = np.zeros(n_rounds, _TRANSCRIPT)
        for name in ("outcome", "inferred", "resent"):
            transcript[name] = -1
    sifted_count = error_count = attacked_count = inferred_correct = 0
    joint = np.zeros(6, dtype=np.int64)
    for start in range(0, n_rounds, chunk):
        stop = min(n_rounds, start + chunk)
        uniforms = _round_variates(int(seed), start, stop)
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
                _box_muller(uniforms[attacked, _NOISE_U], uniforms[attacked, _NOISE_V]),
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
        if transcript is not None:
            rows = transcript[start:stop]
            rows["alice"], rows["bob_basis"], rows["bob_bit"] = alice, bob_basis, bob_bit
            rows["sifted"], rows["error"] = sifted, error
            if eve is not None:
                rows["attacked"][attacked] = True
                rows["outcome"][attacked] = outcome
                rows["inferred"][attacked] = inferred
                rows["resent"][attacked] = resent
                rows["posterior"][attacked] = posterior
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
    return stats, transcript
