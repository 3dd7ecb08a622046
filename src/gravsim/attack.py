"""Eve's attack: interception, field sensing, inference of Alice's preparation, and resend.

Eve measures the split qubit in both bases (outcome s), moves her mass to
site s and senses the field with Gaussian noise. The field carries the
nonlinear mixture term, so its residual after subtracting her own
configuration field identifies the preparation by Gaussian maximum
likelihood; she then resends by her strategy. infer_alice_state scores
measured readings on the full field; the session engine and cloning
fidelity (_attack_batch) and Monte Carlo score whole batches in the plane
of the hypotheses. All of them share one scoring kernel, _logits; Monte
Carlo decides most trials from their critical amplitudes instead, exactly
as the kernel would, and scores the rest with it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ValidationError,
    check_flag,
    check_generator,
    check_instance,
    check_integer,
    check_number,
    is_number,
)
from .gravity import Geometry, NonlinearParams, _Plane, decay_factor
from .qubits import BRANCH_WEIGHTS, SYMBOLS, Bb84Symbol, as_symbol

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
        check_number(samples, "sensor.samples")  # the engine counts readings in floats
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
        check_instance(self.geometry, Geometry, "geometry")
        check_instance(self.params, NonlinearParams, "nonlinear")
        check_instance(self.sensor, SensorModel, "sensor")
        check_instance(self.strategy, EveStrategy, "eve.strategy")
        object.__setattr__(self, "attack_fraction", _attack_fraction(self.attack_fraction))
        object.__setattr__(self, "born_factor", check_flag(self.born_factor, "eve.bornFactor"))

    @cached_property
    def _table(self) -> _AttackTable:
        """The _AttackTable of this configuration alone, built on first use.

        Cached: rebuilding it on every run_session call made the eve-session
        benchmark 3% to 8% slower per round (0.725 -> 0.748 and 0.715 ->
        0.775 us, medians of 8 alternating 5-s pairs, two prototypes).
        """
        return self._columns()

    def _columns(self, **columns) -> _AttackTable:
        """The _AttackTable of this configuration, with P checked values per field in columns.

        A field the columns give takes one value per row, every other one
        this configuration's own; a name not in fields fails to unpack. A
        row's residuals are its decay b * exp(-lam * delta_t), formed as
        decay_factor forms it, times geometry.plane, with their _offsets and
        reach, their largest |component|. Its count is the float of samples,
        so a count beyond int64 runs as any other.
        """
        fields = {
            "b": self.params.b,
            "lam": self.params.lam,
            "delta_t": self.params.delta_t,
            "samples": self.sensor.samples,
            "sigma": self.sensor.sigma,
            "mode": self.strategy.mode,
            "tau": self.strategy.tau,
            "attack_fraction": self.attack_fraction,
            "born_factor": self.born_factor,
        }
        n_rows = max(map(len, columns.values()), default=1)
        values = {name: [value] * n_rows for name, value in fields.items()} | columns
        rows = [
            (b * math.exp(-lam * t), float(n), s, s * math.sqrt(n), _RESEND_FROM.get(m, tau), f, bf)
            for b, lam, t, n, s, m, tau, f, bf in zip(*values.values(), strict=True)
        ]
        decay, count, sigma, scale, resend_from, fraction, born = np.array(rows).T
        residuals = decay[:, np.newaxis, np.newaxis] * self.geometry.plane
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


# The log prior of hypothesis h (row) given Eve's outcome s: column s
# without the Born factor (all 0), column 4 + s with it, log P(outcome s | h).
# Zero-probability pairs get -inf so they can never be inferred.
with np.errstate(divide="ignore"):
    _LOG_PRIORS = np.hstack([np.zeros((4, 4)), np.log(BRANCH_WEIGHTS)])
_LOG_PRIORS.setflags(write=False)

# Eve's outcome thresholds, row per preparation: the cumulative branch
# weights, exact multiples of 1/4 that end at 1. A uniform u gives the
# outcome that counts the thresholds at or below u.
_EVE_EDGES = np.cumsum(BRANCH_WEIGHTS, axis=1)

# That outcome for preparation p and quarter q = floor(4u) of [0, 1), at
# 4 * p + q: every threshold e is a quarter and 4u is exact, so u >= e
# exactly when q >= 4e.
_EVE_OUTCOMES = (np.arange(4)[:, np.newaxis] >= 4.0 * _EVE_EDGES[:, np.newaxis]).sum(axis=2).ravel()
_EVE_OUTCOMES.setflags(write=False)


def _eve_outcome(prepared: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Eve's outcomes for prepared symbol indices and uniforms in [0, 1), as in _EVE_EDGES."""
    return _EVE_OUTCOMES.take(4 * prepared + (4.0 * draws).astype(np.intp))


def _logits(statistic, residuals, offsets, sigma, log_prior) -> np.ndarray:
    """Hypothesis log-posteriors up to a shared constant, (dim, n) -> (4, n).

    The kernel is hypothesis-major: axis 0 of the logits is the hypothesis
    and the rows of a batch lie along the last axis, so each hypothesis is
    one contiguous row. statistic is the sum of `count` readings minus count
    times Eve's configuration field, a (dim, n) batch (n = 1 for
    infer_alice_state); residuals are the (4, dim) hypothesis residuals r_h,
    or a (4, dim, n) table with one per statistic, and offsets their
    _offsets as (4, 1) or (4, n); sigma and log_prior broadcast against the
    (4, n) logits. Every caller first checks with _check_scores that the
    statistic's scores cannot overflow.
    The Gaussian scores S.r_h - count * |r_h|^2 / 2 are shifted in field
    units so that the best hypothesis the prior allows is exactly 0 (one the
    prior rules out is capped at 0 and keeps its -inf prior), and only then
    divided by sigma, once per factor: no sigma > 0 gives NaN, a hypothesis
    the data rule out scores -inf, and exact ties stay exact. The dot
    products go through einsum rather than BLAS, which sums every row in
    the same order whatever the batch shape, so a row's logits depend
    neither on the rows beside it nor on whether its residuals are shared
    with them.
    """
    score = np.einsum("d...,hd...->h...", statistic, residuals)
    score -= offsets
    best = np.where(log_prior == -np.inf, -np.inf, score).max(axis=0)
    with np.errstate(over="ignore"):  # overflowing to -inf is the intended limit
        return np.minimum(score - best, 0.0) / sigma / sigma + log_prior


def _offsets(residuals, count) -> np.ndarray:
    """count * |r_h|^2 / 2 per hypothesis, (..., 4, dim) -> (..., 4).

    A residual too large to square gives inf; _check_scores rejects every
    setting that would score a statistic against it.
    """
    with np.errstate(over="ignore"):
        return 0.5 * count * (residuals * residuals).sum(axis=-1)


def _check_scores(span: float, reach: float, count: float, sigma: float, dim: int) -> None:
    """Raise ValidationError unless _logits can score a batch of Eve's statistics.

    span bounds every |component| of the batch's statistics, dim is their
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

    Every table comes from EveConfig._columns and serves the session engine
    and cloning_fidelity; Monte Carlo reads the sensor itself (_mc_hits).
    Row p holds the constants of configuration p, so that a round gathering
    row p is scored bit for bit as in a batch of that configuration alone:
    residuals decay * geom.plane (P, 4, 2), with decay the decay_factor of
    its amplitude, and their _offsets (P, 4) for the scores, and per
    configuration (P,): count (the number of readings), sigma,
    scale = sigma * sqrt(count), reach (the largest |residual|), born (1
    where the outcome's likelihood weighs in), resend_from, the posterior
    peak from which Eve forwards her inference rather than her outcome
    (-inf for CloneInferred, tau for Threshold and inf for
    ResendMeasured), and fraction, the share of rounds she attacks.
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


# The posterior peak from which each strategy forwards Eve's inference
# rather than her outcome; Threshold's is its tau.
_RESEND_FROM = {StrategyMode.CLONE_INFERRED: -math.inf, StrategyMode.RESEND_MEASURED: math.inf}


def _gather(values, at) -> np.ndarray:
    """Rows `at` of an _AttackTable column, with the row axis moved last.

    (P, ...) -> (..., n) for an array of n rows, and (..., 1) for one row
    `at`, so that the result broadcasts against a hypothesis-major batch.
    """
    if np.ndim(at) == 0:
        return values[at, ..., np.newaxis]
    return np.moveaxis(values, 0, -1).take(at, axis=-1)


def _plane_statistic(table, at, truth, normals) -> np.ndarray:
    """Eve's statistic in plane coordinates, (n,) true hypotheses and (2, n) normals -> (2, n).

    Row i is under setting at[i] of the _AttackTable, or `at` for every
    row; the two plane axes are the rows of normals and of the result. The
    sum of `count` readings minus count times Eve's configuration field,
    projected on the plane, is count * residuals[truth] plus noise of
    standard deviation sigma * sqrt(count) per axis, and the scores depend
    on the readings through that projection alone. Callers first check the
    table with _check_table for an extent no normal exceeds. _mc_hits forms
    the same statistic from a sensor and its shared residuals.
    """
    # Row 4p + h of the flattened residuals is hypothesis h of setting p.
    residuals = table.residuals.reshape(-1, 2).T.take(4 * at + truth, axis=1)
    return _gather(table.count, at) * residuals + _gather(table.scale, at) * normals


def _check_table(table, extent: float) -> None:
    """Raise the error of the first row of the _AttackTable that _logits could not score.

    A row's statistics are count * residuals[truth] plus scale times normals
    (_plane_statistic), so for normals no larger than extent in size,
    count * reach + scale * extent bounds their components. The rule
    depends on the row alone, never on the rounds drawn.
    """
    columns = (table.count, table.reach, table.scale, table.sigma)
    for count, reach, scale, sigma in zip(*(column.tolist() for column in columns)):
        _check_scores(count * reach + scale * extent, reach, count, sigma, 2)


def _break_ties(logits, peak, u) -> np.ndarray:
    """Index of each column's maximum, (4, n) -> (n,); a tie goes to its peak floor(u * ties).

    peak holds each column's maximum, (n,). u holds one uniform draw per
    column, so the stream position never depends on the data. A column
    whose peak matches no entry (a NaN column) gives 0.
    """
    # rank_h counts the column's peaks at hypotheses 0 to h. The pick-th peak
    # is the first hypothesis whose rank exceeds pick, so its index is the
    # number of ranks at or below pick.
    is_peak = (logits == peak).view(np.int8)
    rank_0 = is_peak[0]
    rank_1 = rank_0 + is_peak[1]
    rank_2 = rank_1 + is_peak[2]
    n_ties = rank_2 + is_peak[3]
    pick = np.minimum((u * n_ties).astype(np.int64), n_ties - 1)
    return 0 + (rank_0 <= pick) + (rank_1 <= pick) + (rank_2 <= pick)


def _posterior(logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peaks, weight totals and posteriors of (4, n) logits; each posterior column is checked."""
    peak = logits.max(axis=0)
    weights = np.exp(logits - peak)
    total = weights.sum(axis=0)
    posterior = weights / total
    normalized = abs(posterior.sum(axis=0) - 1.0) <= POSTERIOR_TOLERANCE
    if not ((posterior >= 0.0).all() and normalized.all()):
        raise ValidationError("posterior must be non-negative and sum to 1")
    return peak, total, posterior


def _readings(readings) -> np.ndarray:
    """readings as a float64 array, each entry checked to be a finite number.

    Readings come from outside the program, so an array that is not of
    integers or floats is checked entry by entry (errors.is_number) rather
    than converted, which would read True as 1.0 or drop an imaginary part.
    """
    if isinstance(readings, np.ndarray) and readings.dtype.kind in "iuf":
        data = readings.astype(np.float64, copy=False)
    else:
        values = np.asarray(readings, dtype=object)
        for value in values.flat:
            if not is_number(value):
                raise ValidationError(
                    f"infer_alice_state: readings must be real numbers, got {value!r}"
                )
        try:
            data = values.astype(np.float64)
        except OverflowError:  # an int beyond double precision
            raise ValidationError(
                "infer_alice_state: readings must lie within double precision"
            ) from None
    bad = data[~np.isfinite(data)]
    if bad.size:
        raise ValidationError(f"infer_alice_state: readings must be finite, got {bad[0]}")
    return data


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

    readings holds k sensed fields, shape (k, field_dim) or one flat field;
    every entry and their sum must be finite numbers (never a bool, string
    or complex value). Subtracts the configuration field of Eve's own outcome
    from the readings, scores the four preparation hypotheses against their
    expected nonlinear residuals decay_factor(params) * geom.mix_matrix
    under the sensor's Gaussian noise, and optionally multiplies in
    the probability of Eve's outcome under each hypothesis (born_factor).
    The readings are scored as one column of the session engine's batch,
    with its tie-break and posterior check (_posterior): ties in the
    maximum are broken uniformly at random, and one uniform draw is
    consumed from rng, a numpy Generator, on every call so the stream
    position never depends on the data.

    Returns (inferred symbol, posterior over the four preparations).
    """
    check_instance(geom, Geometry, "infer_alice_state.geom")
    check_instance(params, NonlinearParams, "infer_alice_state.params")
    check_instance(sensor, SensorModel, "infer_alice_state.sensor")
    data = _readings(readings)
    if data.ndim == 1:
        data = data[np.newaxis, :]
    if data.size == 0:
        raise ValidationError("infer_alice_state: readings must be non-empty")
    if data.ndim != 2 or data.shape[1] != geom.field_dim:
        raise ValidationError(
            f"infer_alice_state: readings must have shape (k, {geom.field_dim}), got {data.shape}"
        )
    outcome = as_symbol(eve_outcome, "infer_alice_state")
    born_factor = check_flag(born_factor, "infer_alice_state.born_factor")
    rng = check_generator(rng, "infer_alice_state.rng")
    count = data.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        statistic = data.sum(axis=0) - count * geom.config_matrix[outcome]
    if not np.isfinite(statistic).all():
        raise ValidationError("infer_alice_state: readings overflow double precision when summed")
    residuals = decay_factor(params) * geom.mix_matrix
    span, reach = float(np.abs(statistic).max()), float(np.abs(residuals).max())
    _check_scores(span, reach, count, sensor.sigma, geom.field_dim)
    logits = _logits(
        statistic[:, np.newaxis],
        residuals,
        _offsets(residuals, count)[:, np.newaxis],
        sensor.sigma,
        _LOG_PRIORS[:, 4 * born_factor + outcome, np.newaxis],
    )
    peak, _, posterior = _posterior(logits)
    inferred = _break_ties(logits, peak, rng.random())
    return SYMBOLS[int(inferred[0])], posterior[:, 0]


def _attack_batch(
    prepared: np.ndarray,
    table: _AttackTable,
    at,
    outcome_draws: np.ndarray,
    noise: np.ndarray,
    tie_draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eve's attack on n rounds at once, fed its variates explicitly.

    Interception i runs setting at[i] of the _AttackTable, or `at` for all
    of them. prepared holds symbol indices, outcome_draws and tie_draws one
    uniform per round, noise (n, 2) standard normals: the sensor noise in
    the coordinates of geom.plane_basis, summed over the readings and
    divided by sqrt(samples). Eve's outcome is the count of the _EVE_EDGES
    of the preparation at or below its draw, read from the 16-entry
    _EVE_OUTCOMES by preparation and quarter of the draw (_eve_outcome).
    The scores, posteriors and choices are infer_alice_state's for readings
    whose noise has that projection (see _plane_statistic, and check the
    table first). Resend: CloneInferred forwards the inference,
    ResendMeasured the outcome, and Threshold the inference only when the
    posterior peak reaches tau.
    Returns (outcome, inferred, posterior, resent) as arrays of symbol
    indices and an (n, 4) posterior; every posterior row is checked to be
    a distribution. Inside, the kernel is hypothesis-major: noise.T, the
    logits and the weights are (2, n) and (4, n), and the posterior is
    returned as the .T view of its (4, n) array.
    """
    outcome = _eve_outcome(prepared, outcome_draws)
    statistic = _plane_statistic(table, at, prepared, noise.T)
    logits = _logits(
        statistic,
        _gather(table.residuals, at),
        _gather(table.offsets, at),
        table.sigma[at],
        _LOG_PRIORS.take(4 * table.born[at] + outcome, axis=1),
    )
    peak, total, posterior = _posterior(logits)
    inferred = _break_ties(logits, peak, tie_draws)
    # The peak weight is exp(0) = 1, so 1 / total is each round's largest posterior.
    resent = np.where(1.0 / total >= table.resend_from[at], inferred, outcome)
    return outcome, inferred, posterior.T, resent


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


_SQRT2 = math.sqrt(2.0)


def _normal_tail(x: float) -> float:
    """Standard normal upper tail Q(x) = 1 - Phi(x), accurate in both tails."""
    return 0.5 * math.erfc(x / _SQRT2)


# The hypothesis pairs (i, j), i < j, in order.
_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


def _union_bound(decay: float, rows, scale: float) -> tuple[list, list, float]:
    """The union bound of analytic_accuracy on the plane residuals decay * rows, unchecked.

    rows holds the (4, 2) plane as four [x, y] pairs of Python floats and
    scale is sqrt(samples) / sigma; each residual coordinate is decay times
    the plane's, as numpy's decay * plane rounds it. Returns the
    separations d_ij = scale * |r_i - r_j| of the _PAIRS in order, the
    per-hypothesis bounds 1 - min(1, sum over j != i of Q(d_ij / 2)),
    floored at 0, and their mean. |r_i - r_j| is math.hypot of the
    coordinate differences, bit for bit math.dist, and Q(d / 2) is
    _normal_tail's 0.5 * erfc(d / 2 / sqrt(2)). Both sums add their terms
    left to right: sum() of floats compensates from Python 3.12 on.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = rows
    x0, y0, x1, y1 = decay * x0, decay * y0, decay * x1, decay * y1
    x2, y2, x3, y3 = decay * x2, decay * y2, decay * x3, decay * y3
    separations = [
        scale * distance if distance else 0.0  # scale may be inf at a subnormal sigma
        for distance in (
            math.hypot(x0 - x1, y0 - y1),
            math.hypot(x0 - x2, y0 - y2),
            math.hypot(x0 - x3, y0 - y3),
            math.hypot(x1 - x2, y1 - y2),
            math.hypot(x1 - x3, y1 - y3),
            math.hypot(x2 - x3, y2 - y3),
        )
    ]
    t01, t02, t03, t12, t13, t23 = [0.5 * math.erfc(d / 2.0 / _SQRT2) for d in separations]
    bounds = [
        max(0.0, 1.0 - min(1.0, t01 + t02 + t03)),
        max(0.0, 1.0 - min(1.0, t01 + t12 + t13)),
        max(0.0, 1.0 - min(1.0, t02 + t12 + t23)),
        max(0.0, 1.0 - min(1.0, t03 + t13 + t23)),
    ]
    return separations, bounds, (bounds[0] + bounds[1] + bounds[2] + bounds[3]) / 4


def analytic_accuracy(
    params: NonlinearParams, geom: Geometry, sensor: SensorModel
) -> AccuracyEstimate:
    """Analytic accuracy estimate for the field classifier.

    Pairwise separations d = sqrt(samples) * |r_i - r_j| / sigma between the
    hypothesis residuals feed a union bound: the accuracy for true hypothesis
    i is at least 1 - min(1, sum over j != i of Q(d_ij / 2)), with Q the
    standard normal tail. The residuals differ only within the plane of
    geom.plane, so |r_i - r_j| is taken there, with math.hypot, which
    cannot overflow, by the union-bound core _union_bound that
    min_detectable_b's candidates share. Opposite sides of their
    parallelogram are equally long, so the closest pair is a tie; the
    later pair in (i, j) order is reported.
    All separations are zero in the degenerate decay_factor = 0 case, where
    the bound collapses to 0 and only the chance level 1/4 remains
    informative.
    """
    check_instance(params, NonlinearParams, "analytic_accuracy.params")
    check_instance(geom, Geometry, "analytic_accuracy.geom")
    check_instance(sensor, SensorModel, "analytic_accuracy.sensor")
    scale = math.sqrt(sensor.samples) / sensor.sigma
    separations, bounds, mean = _union_bound(decay_factor(params), geom.plane.tolist(), scale)
    closest = min(reversed(range(len(_PAIRS))), key=separations.__getitem__)  # the later on a tie
    d_min, (a, b) = separations[closest], _PAIRS[closest]
    return AccuracyEstimate(
        per_hypothesis=tuple(bounds),
        mean=mean,
        chance=CHANCE_LEVEL,
        closest_pair=(SYMBOLS[a], SYMBOLS[b]),
        d_min=d_min,
        two_hypothesis_exact=_normal_tail(-d_min / 2.0),
    )


class _Trials(NamedTuple):
    """One batch of Monte Carlo classifier trials on a _Plane, as _mc_trials draws it.

    truths holds the n true hypotheses as int8, normals the (2, n) plane
    noise (row k is plane axis k), ties n tie-break uniforms, and extent
    the largest |normal|, for the overflow check. critical holds the
    trials' critical amplitudes on the plane (_critical_amplitudes) in
    ascending order, not in the order of the draws, or is None when the
    plane leaves no decision certain (no weights). The plane's own
    constants stay with the _Plane, which _mc_hits takes beside the trials.
    """

    truths: np.ndarray
    normals: np.ndarray
    ties: np.ndarray
    extent: float
    critical: np.ndarray | None


def _critical_amplitudes(truths, normals, weights) -> np.ndarray:
    """Each trial's critical amplitude, from a _Plane's weights, in the order of the draws.

    A trial of true hypothesis t and plane noise N, scored at amplitude
    x = decay * sqrt(count) / sigma in noise units, has the truth strictly
    out-score hypothesis h exactly when x > tau_h = -2 N.(P_t - P_h) /
    |P_t - P_h|^2, so it is a hit for every x above its critical amplitude
    max over h != t of tau_h, and a miss for every x below it.
    """
    taus = np.einsum("kcn,cn->kn", weights.take(truths, axis=-1), normals)
    return np.maximum(np.maximum(taus[0], taus[1]), taus[2])


def _mc_trials(rng: np.random.Generator, n: int, plane: _Plane) -> _Trials:
    """n trials drawn from rng, in monte_carlo_accuracy's documented order, on the _Plane.

    rng.integers(4, n) gives the truths, an (n, 2) standard normal block
    the plane noise, stored transposed, and n uniforms the tie-breaks. The
    critical amplitudes are sorted in place, once per batch, so that
    _mc_hits finds a candidate's count by binary search. extent is
    max(normals.max(), -normals.min()), the largest |normal| exactly.
    """
    truths = rng.integers(4, size=n).astype(np.int8)
    noise = rng.standard_normal((n, 2))
    ties = rng.random(n)
    normals = np.ascontiguousarray(noise.T)
    critical = None
    if plane.weights is not None:
        critical = _critical_amplitudes(truths, normals, plane.weights)
        critical.sort()
    extent = float(max(normals.max(), -normals.min()))
    return _Trials(truths, normals, ties, extent, critical)


# The half width of the rounding band, relative to the scores: a score and a
# critical amplitude round off within a few units of 2**-52 of them.
_BAND_WIDTH = 2.0**-30
# Scores below this magnitude lie within 2**122 of underflow, where the
# rounding of a product is no longer relative to it.
_TINY_SCORES = 2.0**-900


def _rounding_band(
    decay: float, count: float, sigma: float, plane: _Plane, trials: _Trials
) -> tuple[float, float] | None:
    """The amplitudes [x - tol, x + tol] about x; a trial within it sends _mc_hits to the kernel.

    decay, count and sigma are the candidate's, as floats, and x = decay *
    sqrt(count) / sigma. tol = 2**-30 * (x * pmax^2 + sqrt(2) * extent *
    pmax) / dmin^2, with pmax and dmin the _Plane's, bounds, many times
    over, how far the rounding of the kernel's scores and of a critical
    amplitude can move a decision. None, for a band that covers every
    trial, when no decision can be certain: x is 0 or not finite, the
    trials carry no critical amplitudes, or the scores' magnitude, the
    squared residual (decay * pmax)^2 or the logits' x * (x * pmax^2 +
    sqrt(2) * extent * pmax), lies below 2**-900.
    """
    if trials.critical is None:
        return None
    x = decay * math.sqrt(count) / sigma
    spread = x * plane.pmax * plane.pmax + math.sqrt(2.0) * trials.extent * plane.pmax
    tol = _BAND_WIDTH * spread / (plane.dmin * plane.dmin)
    residual = decay * plane.pmax
    if not (0.0 < x and tol < math.inf) or min(residual * residual, x * spread) < _TINY_SCORES:
        return None
    return x - tol, x + tol


def _mc_hits(sensor: SensorModel, decay: float, plane: _Plane, trials: _Trials) -> int:
    """How many trials on the _Plane the classifier at amplitude decay, on the sensor, gets right.

    decay (>= 0, a float) is the candidate's, and its residuals decay *
    plane.rows. The sensor gives count = float(samples), sigma and scale =
    sigma * sqrt(samples), the numbers EveConfig._columns computes. The
    overflow check is _check_table's on those residuals, from the scalar
    reach decay * plane.reach, which equals their largest |component| bit
    for bit (rounding is monotone), so it raises the same error at the same
    candidate. Then, when the rounding band holds no critical amplitude, a
    trial whose amplitude lies below it is a hit and one above it a miss,
    counted by binary search in the sorted amplitudes. Otherwise, or where
    no decision can be certain (_rounding_band None: x is 0 or not finite,
    two plane rows coincide, or the scores lie within 2**-900 of underflow),
    the kernel scores every trial against the shared (4, 2) residuals. It
    samples each statistic from its Gaussian law in the plane of the
    hypotheses, count * residuals[truth] + scale * normals as
    _plane_statistic forms it, and scores it hypothesis-major, as a (2, n)
    statistic and (4, n) logits, and ties are broken by the trials'
    uniforms. Every trial's decision, and so the count, is the kernel's bit
    for bit.
    """
    count, sigma = float(sensor.samples), sensor.sigma
    scale = sigma * math.sqrt(sensor.samples)
    reach = decay * plane.reach
    _check_scores(count * reach + scale * trials.extent, reach, count, sigma, 2)
    band = _rounding_band(decay, count, sigma, plane, trials)
    if band is not None:
        hits = int(trials.critical.searchsorted(band[0], "left"))
        if trials.critical.searchsorted(band[1], "right") == hits:
            return hits
    residuals = decay * plane.rows
    statistic = count * residuals.T.take(trials.truths, axis=1) + scale * trials.normals
    logits = _logits(statistic, residuals, _offsets(residuals, count)[:, np.newaxis], sigma, 0.0)
    chosen = _break_ties(logits, logits.max(axis=0), trials.ties)
    return int(np.count_nonzero(chosen == trials.truths))


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
    random. Draw order from `rng`, which must be a numpy Generator:
    rng.integers(4, n) for the truths, an (n, 2) standard normal block for
    the noise in the plane and n uniforms for the tie-breaks. _mc_hits
    counts the hits at decay_factor(params) on the sensor's readings, from
    the trials' critical amplitudes on the plane (geom.plane_constants,
    built once per layout), or by the kernel on every trial when one of
    them lies within the rounding band; the kernel scores hypothesis-major,
    the transposed noise as a (2, n) statistic and (4, n) logits against
    the residuals decay * geom.plane. The accuracy is the count over n,
    which is bit for bit the mean of the kernel's hits.
    """
    n_trials = check_integer(n_trials, "monte_carlo_accuracy.n_trials", minimum=1)
    rng = check_generator(rng, "monte_carlo_accuracy.rng")
    check_instance(params, NonlinearParams, "monte_carlo_accuracy.params")
    check_instance(geom, Geometry, "monte_carlo_accuracy.geom")
    check_instance(sensor, SensorModel, "monte_carlo_accuracy.sensor")
    plane = geom.plane_constants
    trials = _mc_trials(rng, n_trials, plane)
    return _mc_hits(sensor, decay_factor(params), plane, trials) / n_trials


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
    `rng`, which must be a numpy Generator: rng.integers(4, n) for the
    preparations, n uniforms for Eve's outcomes, an (n, 2) standard normal
    block for the sensor noise in the plane of the hypotheses and n
    uniforms for the tie-breaks.
    """
    n = check_integer(n_trials, "cloning_fidelity.n_trials", minimum=1)
    rng = check_generator(rng, "cloning_fidelity.rng")
    check_instance(strategy, EveStrategy, "cloning_fidelity.strategy")
    check_instance(params, NonlinearParams, "cloning_fidelity.params")
    check_instance(geom, Geometry, "cloning_fidelity.geom")
    check_instance(sensor, SensorModel, "cloning_fidelity.sensor")
    born_factor = check_flag(born_factor, "cloning_fidelity.born_factor")
    table = EveConfig(geom, params, sensor, strategy, born_factor=born_factor)._table
    prepared = rng.integers(4, size=n)
    outcome_draws = rng.random(n)
    noise = rng.standard_normal((n, 2))
    tie_draws = rng.random(n)
    _check_table(table, float(np.abs(noise).max()))
    *_, resent = _attack_batch(prepared, table, 0, outcome_draws, noise, tie_draws)
    return float(np.mean(2.0 * BRANCH_WEIGHTS[prepared, resent]))
