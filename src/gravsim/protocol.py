"""BB84 session orchestration: preparation, optional eavesdropping, sifting, accounting.

Alice draws a uniform symbol each round; Eve may intercept the qubit and
forward a replacement; Bob measures in a uniform random basis. Rounds with
matching bases are sifted, and the session's security figures (QBER, Eve
information, key rates) are aggregated from the sifted transcript.
"""

from __future__ import annotations

import math
import threading
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

# Draws per chunk of a pass, 4096 rounds (see _simulate). Bounds a pass's
# working memory, and sizes the draw buffer each thread keeps (_Buffers).
_CHUNK_VARIATES = 32768

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


def _plug_in_information(table, n: int, row_sums, col_sums) -> float:
    """Plug-in mutual information (bits) of a count table with n counts, row_sums and col_sums."""
    total = 0.0
    for row, row_sum in zip(table, row_sums):
        for c, col_sum in zip(row, col_sums):
            if c:
                total += (c / n) * math.log2(c * n / (row_sum * col_sum))
    return max(0.0, total)


def _round_draws(seed: int, start: int, stop: int) -> np.ndarray:
    """The uint64 draws of rounds [start, stop), shape (n, 8).

    Round i owns draws [i * K, (i + 1) * K) of Philox(seed), with K = 8
    whatever the configuration; Philox yields 4 draws per counter step, so
    the stream is entered by advancing the counter 2 * start steps.
    _simulate reads the same draws, as the uniforms _uniforms makes of them,
    through Generator.random on one Philox re-keyed per session.
    """
    bitgen = np.random.Philox(seed)
    if start:
        bitgen.advance(start * _BLOCK // 4)
    return bitgen.random_raw((stop - start) * _BLOCK).reshape(stop - start, _BLOCK)


# The hash of numpy's SeedSequence (mix_entropy and generate_state in
# numpy/random/bit_generator.pyx) on its 4-word uint32 pool. Its hash
# constants run through a fixed sequence, one step per hashed word, that
# depends on no seed.
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

def _hash_constants(init: int, mult: int, steps: int) -> list[int]:
    """SeedSequence's hash constants init * mult**k mod 2**32 for k in [0, steps]."""
    constants = [init]
    for _ in range(steps):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 rows: xor constants[0], multiply by constants[1]."""
    value = (value ^ constants[0]) * constants[1]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 rows."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _hashed_keys(seeds) -> list[list[int]]:
    """The Philox key [k0, k1] that Philox(seed) derives, for each of P >= 1 seeds.

    That key is SeedSequence(seed).generate_state(2, np.uint64), computed
    here as one pass of uint32 array operations on a (4, P) pool.

    A seed's entropy is its little-endian 32-bit words. SeedSequence hashes
    a pool word that has no entropy word as 0, so seeds of up to 4 words
    are zero-padded to the pool. mix_entropy hashes in steps: the 4 pool
    words, then for each pool word src the mixing of it into the other
    three, then each later word of a longer seed into all 4 pool words;
    hash step k xors constant a[k] and multiplies by a[k + 1]. Here the
    steps of one such group are one array operation on 4 rows: src is
    mixed into all four and its own row restored, and a later word j is
    mixed into the columns of the seeds that have it.
    """
    seeds = [int(s) for s in seeds]
    n_limbs = max(2, -(-max(seeds).bit_length() // 64))
    limbs = np.array([[s >> 64 * k & _MASK64 for s in seeds] for k in range(n_limbs)], np.uint64)
    words = np.stack([limbs, limbs >> 32], axis=1).astype(np.uint32).reshape(-1, len(seeds))
    # The hash steps of each group, by row; 0 stands in on src's own row.
    pool_rows = range(_POOL_WORDS)
    groups = [pool_rows]
    for src in pool_rows:
        first = _POOL_WORDS + (_POOL_WORDS - 1) * src
        groups.append([first + dst - (dst > src) if dst != src else 0 for dst in pool_rows])
    for j in range(_POOL_WORDS, len(words)):
        groups.append(range(_POOL_WORDS * j, _POOL_WORDS * (j + 1)))
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * len(words))
    b = _hash_constants(_INIT_B, _MULT_B, _POOL_WORDS)
    constants = [[[a[k] for k in steps], [a[k + 1] for k in steps]] for steps in groups]
    constants = np.array([*constants, [b[:-1], b[1:]]], np.uint32)[..., np.newaxis]
    pool = _hashmix(words[:_POOL_WORDS], constants[0])
    for src in range(_POOL_WORDS):
        mixed = _mix(pool, _hashmix(pool[src], constants[1 + src]))
        mixed[src] = pool[src]
        pool = mixed
    if len(words) > _POOL_WORDS:
        # A seed has word j when it or a later word is nonzero.
        present = np.logical_or.accumulate(words[::-1] != 0)[::-1]
        for j in range(_POOL_WORDS, len(words)):
            mixed = _mix(pool, _hashmix(words[j], constants[1 + j]))
            pool = np.where(present[j], mixed, pool)
    # generate_state(2, np.uint64): four hashed pool words, paired little-endian.
    state = _hashmix(pool, constants[-1])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64).tolist()


def _rekey(bitgen: np.random.Philox, key: list[int]) -> None:
    """Set bitgen to the fresh state of the Philox(seed) whose key is [k0, k1]."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniform (x >> 11) * 2**-53 in [0, 1) of each uint64 draw x.

    Generator.random on Philox makes the same uniforms, bit for bit, from
    the draws it consumes; _simulate draws with it.
    """
    return (raw >> 11) * 2.0**-53


def _box_muller(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Normal pairs (r cos(2 pi v), r sin(2 pi v)) with r = sqrt(-2 log(1 - u)), shape (2, n)."""
    radius = np.sqrt(-2.0 * np.log1p(-u))
    angle = 2.0 * math.pi * v
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)])


# The largest |component| _box_muller gives the engine: its radius at the largest uniform.
_NORMAL_EXTENT = float(_box_muller(_uniforms(np.array([2**64 - 1], np.uint64)), np.zeros(1))[0, 0])


class _Buffers(threading.local):
    """Each thread's (rounds, 8) chunk draw buffer and kernel scratch, kept across passes.

    Fresh arrays of 128 KiB or more come from memory the allocator maps
    for them and hands back to the system when they are freed, so a pass
    that allocates them faults them in again every time; a kept buffer is
    faulted in once per thread. The draw buffer grows to the largest chunk
    a pass needs and never shrinks: at most 256 KiB per thread at
    4096-round chunks.

    The kernel scratch holds the (4, ...) temporaries of _attack_batch on
    a chunk of several sessions, whose settings are gathered per round:
    the (4, 2, n) residual gather, then the (4, n) offset gather, log
    priors, logits and weights, 24 doubles per attacked round. It grows to
    the most attacked rounds of such a chunk and never shrinks: at most
    768 KiB per thread at 4096-round chunks. Freed after every chunk, those
    temporaries let glibc trim the top of the heap, and the next pass
    faulted its pages in again.
    """

    def __init__(self) -> None:
        self.draws = np.empty((0, _BLOCK))
        self.kernel = np.empty(0)

    def take(self, rounds: int) -> np.ndarray:
        """The thread's draw buffer, grown to at least `rounds` rounds."""
        if len(self.draws) < rounds:
            self.draws = np.empty((rounds, _BLOCK))
        return self.draws

    def scratch(self, rounds: int) -> tuple[np.ndarray, ...]:
        """The thread's kernel scratch: C-contiguous (4, 2, rounds), then four (4, rounds) views."""
        if len(self.kernel) < 24 * rounds:
            self.kernel = np.empty(24 * rounds)
        residuals = self.kernel[: 8 * rounds].reshape(4, 2, rounds)
        return residuals, *self.kernel[8 * rounds : 24 * rounds].reshape(4, 4, rounds)


_buffers = _Buffers()


def _simulate(n_rounds: int, seeds, table=None, transcript=None) -> np.ndarray:
    """Run len(seeds) sessions of n_rounds rounds in one chunked pass; returns (P, 14) counts.

    Session p reads Philox(seeds[p]) (see run_session) and faces Eve with
    row p of table, an _AttackTable, or no Eve when table is None. The pass
    is one run of P * n_rounds rounds, session after session, cut every
    _CHUNK_VARIATES // _BLOCK rounds (4096) into chunks; every chunk but the
    last is full, so a chunk may hold several sessions or parts of them,
    and a session may span two chunks or more. The pass draws from one
    Philox, built from seeds[0] and re-keyed (_rekey) to the key
    (_hashed_keys) of each later session at its first round; the rounds are
    drawn in order, so each stream is entered once. Before the first round,
    _check_table checks every row for the largest normal the engine can
    draw, so a setting that could overflow Eve's scores fails whatever the
    seeds, n_rounds and attack fraction. The rounds run as array operations
    on independent rows, so every session's counts and transcript rows are
    those it has alone. Each session's part of a chunk is drawn as floats
    (Generator.random, bit for bit _uniforms of its _round_draws) into the
    chunk's rows of an (n, 8) draw buffer from _Buffers.take, and each
    stream (_ALICE to _NOISE_V) is read in place, as a column of it.
    _box_muller gives Eve's normals as (2, n), handed to _attack_batch as
    its (n, 2) .T view. Per session, the counts are the sifted rounds'
    (error, Alice's bit, Eve's guess) table, 2 x 2 x 3 cells, then the
    attacked rounds whose inference was wrong and right. The transcript, if
    given, receives the rounds of all sessions in order. Nothing returned or
    written to the transcript is a view of the buffer or of the scratch.

    A chunk holds 4096 rounds, with Eve or without. An attacked chunk
    carries a fixed cost of numpy calls in _attack_batch whatever its size
    (a 10-round Eve pass takes over three times an honest one), so a
    2000-round Eve session pays it once. Every chunk draws into the buffer
    its thread keeps, so a pass does not page-fault it in anew. A chunk of
    several sessions also scores Eve's rounds in the kernel scratch its
    thread keeps (_Buffers.scratch); a chunk of one session, whose settings
    are scalars, allocates its temporaries afresh.
    """
    n_points = len(seeds)
    block = max(1, _CHUNK_VARIATES // _BLOCK)
    counts = np.zeros((n_points, 14), dtype=np.int64)
    cells, hits = counts[:, :12], counts[:, 12:]
    if table is not None:
        _check_table(table, _NORMAL_EXTENT)
    if not n_points:
        return counts
    bitgen = np.random.Philox(int(seeds[0]))
    generator = np.random.Generator(bitgen)
    keys = _hashed_keys(seeds) if n_points > 1 else None
    total = n_points * n_rounds
    draws = _buffers.take(min(block, total))
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        sessions = slice(lo // n_rounds, (hi - 1) // n_rounds + 1)
        n_sessions = sessions.stop - sessions.start
        for point in range(sessions.start, sessions.stop):
            start = point * n_rounds
            if point and start >= lo:
                _rekey(bitgen, keys[point])
            generator.random(out=draws[max(start, lo) - lo : min(start + n_rounds, hi) - lo])
        uniforms = draws[: hi - lo].T
        # The session of each round within the chunk; with one session, that is 0 for all.
        # Kept: the per-round-settings path on every chunk made a 2000-round Eve
        # session 38% to 47% slower (552 -> 762 and 559 -> 820 us, in-process
        # best of 15, two prototypes).
        owner = 0
        if n_sessions > 1:
            owner = np.arange(lo, hi) // n_rounds - sessions.start
        alice = (4.0 * uniforms[_ALICE]).astype(np.intp)
        state = alice.copy()
        # Eve's guess per round: her inferred bit when its basis is Alice's, else no guess.
        guess = np.full(len(alice), _NO_GUESS)
        if table is not None:
            attacked = np.flatnonzero(uniforms[_COIN] < table.fraction[sessions.start + owner])
            attacked_owner, scratch = 0, None
            # Kept: with fresh kernel temporaries a 72-point, 50-round sweep
            # pass took ~100 minor faults (0.1 with the scratch; ru_minflt over
            # 200 benchmark units). The residual gather and the scores alone
            # left 20 of 48 fresh-interpreter heap states faulting; all five, none.
            if n_sessions > 1:
                attacked_owner, scratch = owner[attacked], _buffers.scratch(len(attacked))
            at = sessions.start + attacked_owner
            prepared = alice.take(attacked)
            outcome, inferred, posterior, resent = _attack_batch(
                prepared,
                table,
                at,
                uniforms[_EVE_OUTCOME].take(attacked),
                _box_muller(uniforms[_NOISE_U].take(attacked), uniforms[_NOISE_V].take(attacked)).T,
                uniforms[_TIE_BREAK].take(attacked),
                scratch,
            )
            state[attacked] = resent
            same_basis = inferred >> 1 == prepared >> 1
            guess[attacked] = np.where(same_basis, inferred & 1, _NO_GUESS)
            # Per session: attacked rounds whose inference was wrong, then right.
            scored = 2 * attacked_owner + (inferred == prepared)
            hits[sessions] += np.bincount(scored, minlength=2 * n_sessions).reshape(-1, 2)
        bob_basis = (2.0 * uniforms[_BOB_BASIS]).astype(np.intp)
        bob_bit = (uniforms[_BOB_BIT] >= _BOB_P0[state, bob_basis]).astype(np.intp)
        sifted = bob_basis == alice >> 1
        error = sifted & (bob_bit != alice & 1)
        # Per session: the sifted rounds' (error, Alice's bit, Eve's guess) cells.
        cell = 6 * error + 3 * (alice & 1) + guess + 12 * owner
        cells[sessions] += np.bincount(cell[sifted], minlength=12 * n_sessions).reshape(-1, 12)
        if transcript is not None:
            rows = transcript[lo:hi]
            rows["alice"], rows["bob_basis"], rows["bob_bit"] = alice, bob_basis, bob_bit
            rows["sifted"], rows["error"] = sifted, error
            if table is not None:
                rows["attacked"][attacked] = True
                rows["outcome"][attacked] = outcome
                rows["inferred"][attacked] = inferred
                rows["resent"][attacked] = resent
                rows["posterior"][attacked] = posterior
    return counts


def _session_rows(n_rounds: int, counts: np.ndarray, with_eve: bool) -> list[tuple]:
    """The SessionStats fields (STAT_COLUMNS) of each session, from its row of _simulate's counts.

    The integer marginals of all sessions are taken at once; the ratios
    and the mutual information are computed on Python ints, so that
    c * n is exact however many rounds a session has.
    """
    # Alice's bit against Eve's guess, over correct and erroneous sifted rounds.
    tables = (counts[:, :6] + counts[:, 6:12]).reshape(-1, 2, 3)
    marginals = zip(
        counts[:, :12].sum(axis=1).tolist(),
        counts[:, 6:12].sum(axis=1).tolist(),
        (counts[:, 12] + counts[:, 13]).tolist(),
        counts[:, 13].tolist(),
        tables.tolist(),
        tables.sum(axis=2).tolist(),
        tables.sum(axis=1).tolist(),
    )
    rows = []
    for sifted, errors, attacked, correct, table, row_sums, col_sums in marginals:
        eve_accuracy = correct / attacked if attacked else None
        info = None
        if with_eve and sifted:
            info = _plug_in_information(table, sifted, row_sums, col_sums)
        if sifted:
            qber = errors / sifted
            theory, attack_rate = _key_rates(qber, info if info is not None else 0.0)
        else:
            qber = theory = attack_rate = None
        aborted = qber is None or qber > ABORT_QBER
        rows.append((n_rounds, sifted, qber, eve_accuracy, info, theory, attack_rate, aborted))
    return rows


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
    and seed. Rounds are simulated in vectorised chunks of 4096 rounds
    (see _simulate), with Eve's attack
    (_attack_batch) and Bob's Born-rule measurement (_BOB_P0) applied to
    whole arrays; the chunking never changes a result.

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
    (stats,) = _session_rows(n_rounds, counts, eve_config is not None)
    return SessionStats(*stats), transcript
