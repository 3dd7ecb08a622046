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

from .attack import EveConfig, _attack_batch, _check_table
from .errors import check_instance, check_integer, check_number
from .qubits import _BOB_P0

ABORT_QBER = 0.11

# Version of the random-stream layout that run_session reads (see
# _round_draws); it changes whenever a seed would give other rounds.
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


# The JSON names of SessionStats' fields, in field order.
STAT_COLUMNS = (
    "rounds",
    "siftedCount",
    "qber",
    "eveAccuracy",
    "eveMutualInfo",
    "keyRateTheory",
    "keyRateAttack",
    "aborted",
)


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
        """JSON-ready mapping of STAT_COLUMNS, in order, to the fields."""
        return dict(zip(STAT_COLUMNS, vars(self).values()))


def binary_entropy(p: float) -> float:
    """h2(p) in bits, with h2(0) = h2(1) = 0."""
    return _h2(check_number(p, "binary_entropy.p", low=0.0, high=1.0))


def _h2(p: float) -> float:
    """binary_entropy of a p already known to lie in [0, 1]."""
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
    qber = check_number(qber, "key_rate.qber", low=0.0, high=1.0)
    eve_info = check_number(eve_info, "key_rate.eveInfo", low=0.0)
    return _key_rates(qber, eve_info)


def _key_rates(qber: float, eve_info: float) -> tuple[float, float]:
    """key_rate of a qber in [0, 1] and an eve_info >= 0 already known to be so."""
    h = _h2(qber)
    return max(0.0, 1.0 - 2.0 * h), max(0.0, 1.0 - h - eve_info)


def _mutual_information(table: list[list[int]]) -> float:
    """Plug-in mutual information (bits) of an empirical joint count table, a list of rows."""
    n = sum(map(sum, table))
    rows = [sum(row) for row in table]
    cols = [sum(col) for col in zip(*table)]
    total = 0.0
    for a, row in enumerate(table):
        for e, c in enumerate(row):
            if c:
                total += (c / n) * math.log2(c * n / (rows[a] * cols[e]))
    return max(0.0, total)


def _round_draws(seed: int, start: int, stop: int) -> np.ndarray:
    """The uint64 draws of rounds [start, stop), shape (n, 8).

    Round i owns draws [i * K, (i + 1) * K) of Philox(seed), with K = 8
    whatever the configuration; Philox yields 4 draws per counter step, so
    the stream is entered by advancing the counter 2 * start steps.
    """
    bitgen = np.random.Philox(seed)
    if start:
        bitgen.advance(start * _BLOCK // 4)
    return bitgen.random_raw((stop - start) * _BLOCK).reshape(stop - start, _BLOCK)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniform (x >> 11) * 2**-53 in [0, 1) of each uint64 draw x, as a C-ordered array.

    C order makes the uniforms of a transposed (8, n) view of a chunk's
    draws one contiguous row per stream.
    """
    return np.multiply(raw >> 11, 2.0**-53, order="C")


def _box_muller(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Normal pairs (r cos(2 pi v), r sin(2 pi v)) with r = sqrt(-2 log(1 - u)), shape (2, n)."""
    radius = np.sqrt(-2.0 * np.log1p(-u))
    angle = 2.0 * math.pi * v
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)])


# The largest |component| _box_muller gives the engine: its radius at the largest uniform.
_NORMAL_EXTENT = float(_box_muller(_uniforms(np.array([2**64 - 1], np.uint64)), np.zeros(1))[0, 0])


def _chunks(n_points: int, n_rounds: int, block: int):
    """The pass's chunks: lists of (point, start, stop) round ranges, at most `block` rounds each.

    Every session is cut into blocks of `block` rounds, and consecutive
    blocks share a chunk while they fit in it. A session's blocks before
    its last are full and fill a chunk alone, so a chunk holds one block
    each of consecutive sessions.
    """
    chunk, size = [], 0
    for point in range(n_points):
        for start in range(0, n_rounds, block):
            stop = min(n_rounds, start + block)
            if size + stop - start > block:
                yield chunk
                chunk, size = [], 0
            chunk.append((point, start, stop))
            size += stop - start
    if chunk:
        yield chunk


def _simulate(n_rounds: int, seeds, table=None, transcript=None) -> np.ndarray:
    """Run len(seeds) sessions of n_rounds rounds in one chunked pass; returns (P, 14) counts.

    Session p reads Philox(seeds[p]) (see run_session) and faces Eve with
    row p of table, an _AttackTable, or no Eve when table is None. Before
    the first round, _check_table checks every row for the largest normal
    the engine can draw, so a setting that could overflow Eve's scores
    fails whatever the seeds, n_rounds and attack fraction. The rounds run
    in chunks (_chunks) as array operations on independent rows, so every
    session's counts and transcript rows are those it has alone. A chunk's
    (n, 8) raw draws become uniforms once, as an (8, n) array with one
    contiguous row per stream (_ALICE to _NOISE_V); _box_muller gives Eve's
    normals as (2, n), handed to _attack_batch as its (n, 2) .T view. Per
    session, the counts are the sifted rounds' (error, Alice's bit, Eve's
    guess) table, 2 x 2 x 3 cells, then the attacked rounds whose inference
    was wrong and right. The transcript, if given, receives the rounds of
    all sessions in order.
    """
    n_points = len(seeds)
    block = max(1, _CHUNK_VARIATES // _BLOCK)
    counts = np.zeros((n_points, 14), dtype=np.int64)
    cells, hits = counts[:, :12], counts[:, 12:]
    if table is not None:
        _check_table(table, _NORMAL_EXTENT)
    first = 0
    for chunk in _chunks(n_points, n_rounds, block):
        sessions = slice(chunk[0][0], chunk[0][0] + len(chunk))
        blocks = [_round_draws(int(seeds[point]), start, stop) for point, start, stop in chunk]
        raw = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        uniforms = _uniforms(raw.T)
        # The block of each round within the chunk; with one block, that is 0 for all.
        # Kept: the per-round-settings path on every chunk made a 2000-round Eve
        # session 3% slower (2327 -> 2399 us) and a 5000-round honest session
        # 5.5% slower (930 -> 981 us), interleaved medians.
        owner = 0
        if len(chunk) > 1:
            owner = np.repeat(np.arange(len(chunk)), [stop - start for _, start, stop in chunk])
        alice = (4.0 * uniforms[_ALICE]).astype(np.intp)
        state = alice.copy()
        # Eve's guess per round: her inferred bit when its basis is Alice's, else no guess.
        guess = np.full(len(alice), _NO_GUESS)
        if table is not None:
            attacked = np.flatnonzero(uniforms[_COIN] < table.fraction[sessions.start + owner])
            attacked_owner = owner[attacked] if len(chunk) > 1 else 0
            at = sessions.start + attacked_owner
            outcome, inferred, posterior, resent = _attack_batch(
                alice[attacked],
                table,
                at,
                uniforms[_EVE_OUTCOME].take(attacked),
                _box_muller(uniforms[_NOISE_U].take(attacked), uniforms[_NOISE_V].take(attacked)).T,
                uniforms[_TIE_BREAK].take(attacked),
            )
            state[attacked] = resent
            same_basis = inferred >> 1 == alice[attacked] >> 1
            guess[attacked] = np.where(same_basis, inferred & 1, _NO_GUESS)
            # Per block: attacked rounds whose inference was wrong, then right.
            scored = 2 * attacked_owner + (inferred == alice[attacked])
            hits[sessions] += np.bincount(scored, minlength=2 * len(chunk)).reshape(-1, 2)
        bob_basis = (2.0 * uniforms[_BOB_BASIS]).astype(np.intp)
        bob_bit = (uniforms[_BOB_BIT] >= _BOB_P0[state, bob_basis]).astype(np.intp)
        sifted = bob_basis == alice >> 1
        error = sifted & (bob_bit != alice & 1)
        # Per block: the sifted rounds' (error, Alice's bit, Eve's guess) cells.
        cell = 6 * error + 3 * (alice & 1) + guess + 12 * owner
        cells[sessions] += np.bincount(cell[sifted], minlength=12 * len(chunk)).reshape(-1, 12)
        if transcript is not None:
            rows = transcript[first : first + len(alice)]
            rows["alice"], rows["bob_basis"], rows["bob_bit"] = alice, bob_basis, bob_bit
            rows["sifted"], rows["error"] = sifted, error
            if table is not None:
                rows["attacked"][attacked] = True
                rows["outcome"][attacked] = outcome
                rows["inferred"][attacked] = inferred
                rows["resent"][attacked] = resent
                rows["posterior"][attacked] = posterior
        first += len(alice)
    return counts


def _session_stats(n_rounds: int, counts: np.ndarray, with_eve: bool) -> SessionStats:
    """SessionStats of one session from its row of _simulate's counts."""
    tally = counts.tolist()
    sifted_count, error_count = sum(tally[:12]), sum(tally[6:12])
    attacked_count, inferred_correct = tally[12] + tally[13], tally[13]
    eve_accuracy = inferred_correct / attacked_count if attacked_count else None
    mutual_info = None
    if with_eve and sifted_count:
        # Alice's bit against Eve's guess, over correct and erroneous sifted rounds.
        joint = [[tally[i] + tally[i + 6] for i in range(row, row + 3)] for row in (0, 3)]
        mutual_info = _mutual_information(joint)
    if sifted_count:
        qber = error_count / sifted_count
        theory, attack_rate = _key_rates(qber, mutual_info if mutual_info is not None else 0.0)
    else:
        qber = theory = attack_rate = None
    return SessionStats(
        rounds=n_rounds,
        sifted_count=sifted_count,
        qber=qber,
        eve_accuracy=eve_accuracy,
        eve_mutual_info=mutual_info,
        key_rate_theory=theory,
        key_rate_attack=attack_rate,
        aborted=qber is None or qber > ABORT_QBER,
    )


def run_session(
    n_rounds: int,
    eve_config: EveConfig | None = None,
    *,
    seed: int,
    with_records: bool = True,
) -> tuple[SessionStats, np.ndarray | None]:
    """Simulate a BB84 session; returns (SessionStats, transcript).

    Round i reads only its own block of the counter-based stream
    Philox(seed) (RNG_CONTRACT, see _round_draws): uniforms for Alice's
    symbol floor(4u), the attack coin u < attack_fraction, Eve's outcome,
    her tie-break, Bob's basis floor(2u) and Bob's bit, then the pair that
    Box-Muller turns into the two standard normals of Eve's sensor noise in
    the plane of her hypotheses (unused without Eve). A session is
    therefore a prefix of every longer session with the same configuration
    and seed. Rounds are simulated in vectorised chunks of bounded size,
    with Eve's attack (_attack_batch) and Bob's Born-rule measurement
    (_BOB_P0) applied to whole arrays; the chunking never changes a result.

    The transcript is a structured array with one row per round and the
    fields alice, bob_basis, bob_bit, sifted, error (False on unsifted
    rounds), attacked, outcome, inferred, resent and a 4-wide posterior;
    symbols are Bb84Symbol indices, bases 0 for Z and 1 for X, and Eve's
    symbols are -1 with a zero posterior on rounds she did not attack.
    with_records=False allocates no transcript and returns None in its
    place; all statistics are unaffected.
    """
    n_rounds = check_integer(n_rounds, "session.rounds", minimum=1)
    seed = check_integer(seed, "session.seed", minimum=0)
    if eve_config is not None:
        check_instance(eve_config, EveConfig, "run_session.eve_config")
    transcript = None
    if with_records:
        transcript = np.zeros(n_rounds, _TRANSCRIPT)
        for name in ("outcome", "inferred", "resent"):
            transcript[name] = -1
    table = None if eve_config is None else eve_config._table
    counts = _simulate(n_rounds, [seed], table, transcript)
    return _session_stats(n_rounds, counts[0], eve_config is not None), transcript
