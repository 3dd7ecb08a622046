"""Eve's attack round: interception, mass placement, field sensing, and inference.

One round runs the pipeline prepare -> dual-basis measurement of the split
qubit (outcome s) -> mass moved to site s -> noisy field sensing ->
Gaussian maximum-likelihood inference of Alice's preparation -> resend.
The field Eve senses carries the nonlinear mixture term, so its residual
after subtracting her own configuration field identifies the preparation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_flag, check_integer, check_number
from .gravity import Geometry, NonlinearParams, config_field, decay_factor, general_field
from .qubits import (
    _EVE_CUMULATIVE,
    BRANCH_WEIGHTS,
    SYMBOLS,
    Bb84Symbol,
    as_symbol,
    eve_dual_basis_measure,
    prepare,
)

POSTERIOR_TOLERANCE = 1e-9

CHANCE_LEVEL = 0.25

DEFAULT_SIGMA = 2.5e-12


@dataclass(frozen=True)
class SensorModel:
    """Gaussian field sensor: per-component noise sigma (m/s^2) and reading count."""

    sigma: float = DEFAULT_SIGMA
    samples: int = 1

    def __post_init__(self) -> None:
        sigma = check_number(self.sigma, "sensor.sigma", above=0.0)
        samples = check_integer(self.samples, "sensor.samples", minimum=1)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "samples", samples)


class StrategyMode(enum.Enum):
    """How Eve chooses the state she forwards to Bob."""

    CLONE_INFERRED = "CloneInferred"
    RESEND_MEASURED = "ResendMeasured"
    THRESHOLD = "Threshold"


@dataclass(frozen=True)
class EveStrategy:
    """Resend policy plus the posterior confidence threshold used by Threshold mode."""

    mode: StrategyMode = StrategyMode.CLONE_INFERRED
    tau: float = 0.9

    def __post_init__(self) -> None:
        if not isinstance(self.mode, (str, StrategyMode)):
            raise ValidationError(f"eve.strategy: expected a string, got {self.mode!r}")
        try:
            mode = StrategyMode(self.mode)
        except ValueError:
            names = [m.value for m in StrategyMode]
            raise ValidationError(
                f"eve.strategy: unknown strategy {self.mode!r}; expected one of {names}"
            ) from None
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "tau", check_number(self.tau, "eve.tau", above=0.0, high=1.0))


def _attack_fraction(value) -> float:
    """The share of rounds Eve attacks, checked to lie in [0, 1]."""
    return check_number(value, "eve.attackFraction", low=0.0, high=1.0)


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
        if not isinstance(self.strategy, EveStrategy):
            raise ValidationError(f"eve.strategy: expected an EveStrategy, got {self.strategy!r}")
        object.__setattr__(self, "attack_fraction", _attack_fraction(self.attack_fraction))
        object.__setattr__(self, "born_factor", check_flag(self.born_factor, "eve.bornFactor"))

    @cached_property
    def _table(self) -> _AttackTable:
        """The _AttackTable of this configuration alone, built on first use.

        Cached: rebuilding it on every run_session call made a 2000-round
        Eve session 4% slower (2141 -> 2228 us, interleaved medians).
        """
        return _attack_table([self])


@dataclass(frozen=True)
class EveRecord:
    """Eve's per-round transcript: outcome, inference, and what she resent."""

    outcome: Bb84Symbol
    inferred: Bb84Symbol
    posterior: tuple[float, float, float, float]
    resent: Bb84Symbol
    cloned: bool

    def __post_init__(self) -> None:
        values = tuple(float(p) for p in self.posterior)
        if (
            len(values) != 4
            or any(p < 0.0 for p in values)
            or abs(sum(values) - 1.0) > POSTERIOR_TOLERANCE
        ):
            raise ValidationError(
                f"posterior must be non-negative and sum to 1: {self.posterior!r}"
            )
        object.__setattr__(self, "posterior", values)


# Row s, column h: log P(outcome s | preparation h). Zero-probability pairs
# get -inf so they can never be inferred.
with np.errstate(divide="ignore"):
    _OUTCOME_LOG_LIKELIHOOD = np.log(BRANCH_WEIGHTS.T)
_OUTCOME_LOG_LIKELIHOOD.setflags(write=False)

# The log prior of each hypothesis given the outcome: [0] without the Born
# factor, [1] with it.
_LOG_PRIORS = np.stack([np.zeros((4, 4)), _OUTCOME_LOG_LIKELIHOOD])

# eve_dual_basis_measure's thresholds as a (4, 4) array, row per preparation.
_EVE_EDGES = np.array(_EVE_CUMULATIVE)


def sense(true_field, sensor: SensorModel, rng: np.random.Generator) -> np.ndarray:
    """Noisy sensor readings of a field, shape (samples, field_dim).

    Each reading is the true field plus independent zero-mean Gaussian noise
    of standard deviation sensor.sigma per component; a huge sigma may
    overflow readings to inf, which the inference rejects.
    """
    field = np.asarray(true_field, dtype=np.float64)
    if field.ndim != 1:
        raise ValidationError("sense: true field must be a flat vector")
    noise = rng.standard_normal((sensor.samples, field.shape[0]))
    with np.errstate(over="ignore"):
        return field + sensor.sigma * noise


def hypothesis_residuals(params: NonlinearParams, geom: Geometry) -> np.ndarray:
    """Expected nonlinear residual per preparation hypothesis, shape (4, field_dim).

    Row h is decay_factor(params) * mix_field(branch_weights(h)); this is what
    remains of the sensed field once Eve subtracts the configuration field of
    her own outcome.
    """
    return decay_factor(params) * geom.mix_matrix


def _logits(statistic, residuals, offsets, sigma, log_prior=0.0) -> np.ndarray:
    """Hypothesis log-posteriors up to a shared constant, (..., dim) -> (..., 4).

    statistic is the sum of `count` readings minus count times Eve's
    configuration field; residuals are the (4, dim) hypothesis residuals
    r_h, or one such table per statistic row, and offsets their _offsets in
    the same layout; sigma is a number or a column of one per row. Every
    caller first passes the statistic through _check_scores, which rejects
    a sigma that overflows it. The Gaussian scores S.r_h - count * |r_h|^2 / 2
    are shifted in field units so that the best hypothesis the prior allows
    is exactly 0 (one the prior rules out is capped at 0 and keeps its -inf
    prior), and only then divided by sigma, once per factor: no sigma > 0
    gives NaN, a hypothesis the data rule out scores -inf, and exact ties
    stay exact. The dot products go through einsum rather than BLAS, which
    sums every row in the same order whatever the batch shape, so a row's
    logits depend neither on the rows beside it nor on whether its residuals
    are shared with them.
    """
    score = np.einsum("...d,...hd->...h", statistic, residuals)
    score -= offsets
    best = score.max(axis=-1, keepdims=True, where=log_prior != -np.inf, initial=-np.inf)
    with np.errstate(over="ignore"):  # overflowing to -inf is the intended limit
        return np.minimum(score - best, 0.0) / sigma / sigma + log_prior


def _offsets(residuals, count) -> np.ndarray:
    """count * |r_h|^2 / 2 per hypothesis, (..., 4, dim) -> (..., 4).

    A residual too large to square gives inf; _check_scores rejects every
    statistic that would be scored against it.
    """
    with np.errstate(over="ignore"):
        return 0.5 * count * (residuals * residuals).sum(axis=-1)


def _check_scores(span: float, reach: float, count: int, sigma: float, dim: int) -> None:
    """Raise ValidationError unless _logits can score a batch of Eve's statistics.

    span is the largest |component| of the batch's statistics, dim their
    length, and reach the largest |component| of its residuals. A
    non-finite span means sigma overflowed the readings. Otherwise
    2 * dim * reach * (span + count * reach) bounds the spread of the scores
    S.r_h - count * |r_h|^2 / 2, so where it is finite no score overflows.
    """
    if not math.isfinite(span):
        raise ValidationError(f"sensor.sigma: {sigma!r} overflows the sensor readings")
    if not math.isfinite(2 * dim * reach * (span + count * reach)):
        raise ValidationError(
            f"geometry.testMass, sensor.sigma: a residual field of {reach!r} m/s^2 sensed "
            f"with sigma {sigma!r} overflows Eve's scores"
        )


class _AttackTable(NamedTuple):
    """Eve's constants for P EveConfigs, stacked on axis 0 for _attack_batch.

    Row p holds what attack_round derives from configuration p, computed as
    it computes it, so that a round gathering row p is scored bit for bit as
    in a batch of that configuration alone: residuals decay_factor *
    geom.plane (P, 4, 2) and their _offsets (P, 4) for the scores, and per
    configuration (P,): count (the number of readings), sigma, scale =
    sigma * sqrt(count), reach (the largest |residual|), born (1 where the
    outcome's likelihood weighs in), resend_from, the posterior peak from
    which Eve forwards her inference rather than her outcome (-inf for
    CloneInferred, tau for Threshold and inf for ResendMeasured), and
    fraction, the share of rounds she attacks.
    """

    residuals: np.ndarray
    offsets: np.ndarray
    count: np.ndarray
    sigma: np.ndarray
    scale: np.ndarray
    reach: np.ndarray
    born: np.ndarray
    resend_from: np.ndarray
    fraction: np.ndarray


def _attack_table(eves) -> _AttackTable:
    """The _AttackTable of a sequence of EveConfigs, one row each, in order."""
    residuals = np.array(
        [decay_factor(eve.params) * eve.geometry.plane for eve in eves]
    ).reshape(-1, 4, 2)
    fixed = {StrategyMode.CLONE_INFERRED: -math.inf, StrategyMode.RESEND_MEASURED: math.inf}
    columns = np.array(
        [
            (
                eve.sensor.samples,
                eve.sensor.sigma,
                eve.sensor.sigma * math.sqrt(eve.sensor.samples),
                fixed.get(eve.strategy.mode, eve.strategy.tau),
                eve.attack_fraction,
                eve.born_factor,
            )
            for eve in eves
        ]
    ).reshape(-1, 6)
    count, sigma, scale, resend_from, fraction, born = columns.T
    return _AttackTable(
        residuals=residuals,
        offsets=_offsets(residuals, count[:, np.newaxis]),
        count=count,
        sigma=sigma,
        scale=scale,
        reach=np.abs(residuals).max(axis=(1, 2)),
        born=born.astype(np.intp),
        resend_from=resend_from,
        fraction=fraction,
    )


def _column(values, at):
    """values[at]: one number for one setting, else a column against per-row arrays."""
    return values[at] if np.ndim(at) == 0 else values[at][:, np.newaxis]


def _plane_statistic(table, at, truth, normals, runs=None) -> np.ndarray:
    """Eve's statistic in plane coordinates, (n,) true hypotheses and (n, 2) normals -> (n, 2).

    Row i is under setting at[i] of the _AttackTable, or `at` for every
    row. The sum of `count` readings minus count times Eve's configuration
    field, projected on the plane, is count * residuals[truth] plus noise of
    standard deviation sigma * sqrt(count) per axis, and the scores depend
    on the readings through that projection alone. runs lists (setting,
    start, stop) row ranges that _check_scores checks as one batch each, in
    order; a range may be empty, and by default all rows form one batch.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        statistic = (
            _column(table.count, at) * table.residuals[at, truth]
            + _column(table.scale, at) * normals
        )
    for p, start, stop in [(at, 0, len(statistic))] if runs is None else runs:
        _check_scores(
            float(np.abs(statistic[start:stop]).max(initial=0.0)),
            float(table.reach[p]),
            int(table.count[p]),
            float(table.sigma[p]),
            2,
        )
    return statistic


def _break_ties(logits, peak, u) -> np.ndarray:
    """Index of each row's maximum, (n, 4) -> (n,); a tie goes to peak floor(u * ties) of the row.

    peak holds each row's maximum, (n, 1). u holds one uniform draw per
    row, so the stream position never depends on the data.
    """
    is_peak = logits == peak
    ties = np.cumsum(is_peak, axis=1)
    n_ties = ties[:, -1]
    pick = np.minimum((u * n_ties).astype(np.int64), n_ties - 1)
    return (is_peak & (ties - 1 == pick[:, np.newaxis])).argmax(axis=1)


def infer_alice_state(
    readings,
    eve_outcome: Bb84Symbol,
    geom: Geometry,
    params: NonlinearParams,
    sensor: SensorModel,
    rng: np.random.Generator,
    born_factor: bool = True,
) -> tuple[Bb84Symbol, np.ndarray]:
    """Gaussian maximum-likelihood identification of Alice's preparation.

    Subtracts the configuration field of Eve's own outcome from the readings,
    scores the four preparation hypotheses against their expected nonlinear
    residuals under the sensor's Gaussian noise, and optionally multiplies in
    the probability of Eve's outcome under each hypothesis (born_factor).
    Ties in the maximum are broken uniformly at random; one uniform draw is
    consumed on every call so the stream position never depends on the data.

    Returns (inferred symbol, posterior over the four preparations).
    """
    data = np.asarray(readings, dtype=np.float64)
    if data.ndim == 1:
        data = data[np.newaxis, :]
    if data.size == 0:
        raise ValidationError("infer_alice_state: readings must be non-empty")
    if data.ndim != 2 or data.shape[1] != geom.field_dim:
        raise ValidationError(
            f"infer_alice_state: readings must have shape (k, {geom.field_dim}), got {data.shape}"
        )
    outcome = as_symbol(eve_outcome, "infer_alice_state")
    count = data.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        statistic = data.sum(axis=0) - count * config_field(outcome, geom)
    residuals = hypothesis_residuals(params, geom)
    _check_scores(
        float(np.abs(statistic).max()),
        float(np.abs(residuals).max()),
        count,
        sensor.sigma,
        geom.field_dim,
    )
    logits = _logits(
        statistic,
        residuals,
        _offsets(residuals, count),
        sensor.sigma,
        _OUTCOME_LOG_LIKELIHOOD[outcome] if born_factor else 0.0,
    )
    peak = logits.max()
    weights = np.exp(logits - peak)
    posterior = weights / weights.sum()
    ties = np.flatnonzero(logits == peak)
    u = rng.random()
    inferred = SYMBOLS[int(ties[min(int(u * ties.size), ties.size - 1)])]
    return inferred, posterior


def attack_round(
    prepared: Bb84Symbol,
    geom: Geometry,
    params: NonlinearParams,
    sensor: SensorModel,
    strategy: EveStrategy,
    rng: np.random.Generator,
    born_factor: bool = True,
) -> tuple[Bb84Symbol, EveRecord]:
    """One full interception; returns (symbol resent to Bob, EveRecord).

    Draw order from `rng`: one uniform for the dual-basis outcome, the sensor
    noise block, one uniform for inference tie-breaking. Resend rule:
    CloneInferred forwards the inferred preparation, ResendMeasured forwards
    Eve's measured outcome, Threshold forwards the inferred preparation only
    when the posterior peak reaches tau and the outcome otherwise.
    """
    prepared = prepare(prepared)
    if not isinstance(strategy, EveStrategy):
        raise ValidationError(f"attack_round: strategy must be an EveStrategy, got {strategy!r}")
    outcome = eve_dual_basis_measure(prepared, rng)
    true_field = general_field(outcome, prepared, params, geom)
    readings = sense(true_field, sensor, rng)
    inferred, posterior = infer_alice_state(
        readings, outcome, geom, params, sensor, rng, born_factor
    )
    if strategy.mode is StrategyMode.CLONE_INFERRED:
        resent = inferred
    elif strategy.mode is StrategyMode.RESEND_MEASURED:
        resent = outcome
    else:
        resent = inferred if float(posterior.max()) >= strategy.tau else outcome
    record = EveRecord(
        outcome=outcome,
        inferred=inferred,
        posterior=tuple(float(p) for p in posterior),
        resent=resent,
        cloned=resent == prepared,
    )
    return prepare(resent), record


def _attack_batch(
    prepared: np.ndarray,
    table: _AttackTable,
    at,
    outcome_draws: np.ndarray,
    noise: np.ndarray,
    tie_draws: np.ndarray,
    runs=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """attack_round over n interceptions at once, fed its variates explicitly.

    Interception i runs setting at[i] of the _AttackTable, or `at` for all
    of them. prepared holds symbol indices, outcome_draws and tie_draws one
    uniform per round, noise (n, 2) standard normals: the sensor noise in
    the coordinates of geom.plane_basis, summed over the readings and
    divided by sqrt(samples). The scores, posteriors and choices are
    attack_round's for readings whose noise has that projection (see
    _plane_statistic, which also checks the runs). Returns (outcome,
    inferred, posterior, resent) as arrays of symbol indices and an (n, 4)
    posterior; every posterior row is checked to be a distribution, as
    EveRecord does.
    """
    outcome = (outcome_draws[:, np.newaxis] >= _EVE_EDGES[prepared]).sum(axis=1)
    statistic = _plane_statistic(table, at, prepared, noise, runs)
    logits = _logits(
        statistic,
        table.residuals[at],
        table.offsets[at],
        _column(table.sigma, at),
        _LOG_PRIORS[table.born[at], outcome],
    )
    peak = logits.max(axis=1, keepdims=True)
    weights = np.exp(logits - peak)
    total = weights.sum(axis=1, keepdims=True)
    posterior = weights / total
    normalized = abs(posterior.sum(axis=1) - 1.0) <= POSTERIOR_TOLERANCE
    if not ((posterior >= 0.0).all() and normalized.all()):
        raise ValidationError("posterior must be non-negative and sum to 1")
    inferred = _break_ties(logits, peak, tie_draws)
    # The peak weight is exp(0) = 1, so 1 / total is each row's largest posterior.
    resent = np.where(1.0 / total[:, 0] >= table.resend_from[at], inferred, outcome)
    return outcome, inferred, posterior, resent


@dataclass(frozen=True)
class AccuracyEstimate:
    """Analytic accuracy summary for the four-hypothesis field classifier.

    per_hypothesis holds a union-bound lower bound on the accuracy for each
    true preparation; mean averages them over a uniform preparation. The
    closest hypothesis pair is reported with its separation d_min and the
    exact two-hypothesis accuracy Phi(d_min / 2). chance is the
    four-hypothesis guessing level.
    """

    per_hypothesis: tuple[float, float, float, float]
    mean: float
    chance: float
    closest_pair: tuple[Bb84Symbol, Bb84Symbol]
    d_min: float
    two_hypothesis_exact: float


def _normal_tail(x: float) -> float:
    """Standard normal upper tail Q(x) = 1 - Phi(x), accurate in both tails."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def analytic_accuracy(
    params: NonlinearParams, geom: Geometry, sensor: SensorModel
) -> AccuracyEstimate:
    """Analytic accuracy estimate for the field classifier.

    Pairwise separations d = sqrt(samples) * |r_i - r_j| / sigma between the
    hypothesis residuals feed a union bound: the accuracy for true hypothesis
    i is at least 1 - min(1, sum over j != i of Q(d_ij / 2)), with Q the
    standard normal tail. The residuals differ only within the plane of
    geom.plane, so |r_i - r_j| is taken there, with math.dist, which cannot
    overflow. Opposite sides of their parallelogram are equally long, so
    the closest pair is a tie; the later pair in (i, j) order is reported.
    All separations are zero in the degenerate decay_factor = 0 case, where
    the bound collapses to 0 and only the chance level 1/4 remains
    informative.
    """
    residuals = (decay_factor(params) * geom.plane).tolist()
    scale = math.sqrt(sensor.samples) / sensor.sigma
    separations = np.zeros((4, 4))
    closest = None
    for i in range(4):
        for j in range(i + 1, 4):
            d = scale * math.dist(residuals[i], residuals[j])
            separations[i, j] = separations[j, i] = d
            if closest is None or d <= closest[0]:
                closest = (d, i, j)
    bounds = []
    for i in range(4):
        tail_sum = sum(_normal_tail(separations[i, j] / 2.0) for j in range(4) if j != i)
        bounds.append(max(0.0, 1.0 - min(1.0, tail_sum)))
    d_min, a, b = closest
    return AccuracyEstimate(
        per_hypothesis=tuple(bounds),
        mean=float(np.mean(bounds)),
        chance=CHANCE_LEVEL,
        closest_pair=(SYMBOLS[a], SYMBOLS[b]),
        d_min=d_min,
        two_hypothesis_exact=_normal_tail(-d_min / 2.0),
    )


def monte_carlo_accuracy(
    params: NonlinearParams,
    geom: Geometry,
    sensor: SensorModel,
    n_trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo accuracy of the field classifier over uniform preparations.

    Vectorized over trials with infer_alice_state's scoring kernel: the
    sufficient statistic is sampled directly from its Gaussian law in the
    plane of the hypotheses (geom.plane), so the outcome-based factor plays
    no role (matching analytic_accuracy). Ties are broken uniformly at
    random. Draw order from `rng`: rng.integers(4, n) for the truths, an
    (n, 2) standard normal block for the noise in the plane and n uniforms
    for the tie-breaks.
    """
    n_trials = check_integer(n_trials, "monte_carlo_accuracy.n_trials", minimum=1)
    table = _attack_table([EveConfig(geom, params, sensor, EveStrategy(), born_factor=False)])
    truths = rng.integers(4, size=n_trials)
    noise = rng.standard_normal((n_trials, 2))
    statistic = _plane_statistic(table, 0, truths, noise)
    logits = _logits(statistic, table.residuals[0], table.offsets[0], table.sigma[0])
    chosen = _break_ties(logits, logits.max(axis=1, keepdims=True), rng.random(n_trials))
    return float(np.mean(chosen == truths))


def cloning_fidelity(
    strategy: EveStrategy,
    params: NonlinearParams,
    geom: Geometry,
    sensor: SensorModel,
    n_trials: int,
    rng: np.random.Generator,
    born_factor: bool = True,
) -> float:
    """Average |<prepared|resent>|^2, twice the resent symbol's branch weight, over preparations.

    The trials run through the session engine's attack. Draw order from
    `rng`: rng.integers(4, n) for the preparations, n uniforms for Eve's
    outcomes, an (n, 2) standard normal block for the sensor noise in the
    plane of the hypotheses and n uniforms for the tie-breaks.
    """
    n = check_integer(n_trials, "cloning_fidelity.n_trials", minimum=1)
    table = _attack_table([EveConfig(geom, params, sensor, strategy, born_factor=born_factor)])
    prepared = rng.integers(4, size=n)
    outcome_draws = rng.random(n)
    noise = rng.standard_normal((n, 2))
    tie_draws = rng.random(n)
    *_, resent = _attack_batch(prepared, table, 0, outcome_draws, noise, tie_draws)
    return float(np.mean(2.0 * BRANCH_WEIGHTS[prepared, resent]))
