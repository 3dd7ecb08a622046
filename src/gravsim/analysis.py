"""Parameter sweeps, minimum-detectable-amplitude search, and exclusion limits.

The sweep runs one deterministic session per grid point. The exclusion
machinery asks the reverse question: given a sensor that saw no nonlinear
signal, how large an amplitude b could have hidden below the detection
threshold at each relaxation rate lambda.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .attack import (
    CHANCE_LEVEL,
    SensorModel,
    _attack_columns,
    _check_table,
    _mc_hits,
    _mc_settings,
    _mc_trials,
    _Trials,
    analytic_accuracy,
)
from .errors import (
    ValidationError,
    check_flag,
    check_instance,
    check_integer,
    check_number,
    check_numbers,
)
from .gravity import Geometry, NonlinearParams, decay_factor
from .protocol import STAT_COLUMNS  # noqa: F401 (re-exported)
from .protocol import _NORMAL_EXTENT, _session_stats, _simulate
from .qubits import Bb84Symbol, as_symbol

if TYPE_CHECKING:
    from .config import RunConfig, SweepSpec


def sweep(spec: SweepSpec, base_config: "RunConfig", max_workers: int | None = None) -> list[dict]:
    """Run one session per grid point; returns rows in grid order.

    Each row maps the swept parameter names to their values at that point
    followed by the session statistics (STAT_COLUMNS). Point k uses seed
    seed_base + k. All points run in one engine pass, and every row equals
    what run_session gives for its point alone; a grid that fails raises
    the error of its first failing point. max_workers is accepted for
    compatibility and has no effect.

    Each grid value is checked once, by base_config.with_overrides, and the
    points are columns of the checked values. Every field is checked on
    its own, so the first point that holds a rejected value is the first
    point that with_overrides rejects. Then no session runs: the settings
    of the points before it are checked as _simulate checks them, and
    then its with_overrides raises.
    """
    from .config import RunConfig, SweepSpec  # config imports this module

    check_instance(spec, SweepSpec, "sweep.spec")
    check_instance(base_config, RunConfig, "sweep.base_config")
    names = spec.parameter_names
    checked = [[_checked(base_config, name, v) for v in values] for name, values in spec.grids]
    points = list(itertools.product(*checked))
    valid = next((k for k, point in enumerate(points) if None in point), len(points))
    combos = list(itertools.product(*(values for _, values in spec.grids)))
    table = None
    if base_config.eve.enabled and valid > 0:
        columns = dict(zip(names, zip(*points[:valid])))
        settings = {**base_config.to_eve_config()._settings, **columns}
        table = _attack_columns(base_config.geometry.plane, settings)
    if valid < len(points):
        if table is not None:
            _check_table(table, _NORMAL_EXTENT)
        base_config.with_overrides(dict(zip(names, combos[valid])))  # raises
    seeds = range(spec.seed_base, spec.seed_base + valid)
    counts = _simulate(spec.rounds_per_point, seeds, table)
    rows = []
    for combo, point_counts in zip(combos, counts):
        row: dict = dict(zip(names, combo))
        row.update(_session_stats(spec.rounds_per_point, point_counts, table is not None).to_dict())
        rows.append(row)
    return rows


def _checked(base_config: "RunConfig", name: str, value):
    """Sweep parameter `name` at `value` as with_overrides checks it, or None if it rejects it."""
    try:
        return base_config.with_overrides({name: value})._setting(name)
    except ValidationError:
        return None


# The largest mc_rounds whose bisection steps _step_trials keeps: 16 steps of
# 2**15 trials hold 13 MB (int8 truths, float64 normals and tie uniforms).
_CACHED_TRIALS_MAX = 2**15


@functools.lru_cache(maxsize=16)
def _step_trials(seed: int, step: int, mc_rounds: int) -> _Trials:
    """The read-only trials of Monte Carlo bisection step `step`, from default_rng([seed, step]).

    They depend on neither the amplitude nor the setting scored, so a scan
    over lambda scores every candidate of step k on one draw. 16 entries
    hold one bisection at the default tolerance: the b = 1 probe and 14
    halvings.
    """
    trials = _mc_trials(np.random.default_rng([seed, step]), mc_rounds)
    for array in (trials.truths, trials.normals, trials.ties):
        array.setflags(write=False)
    return trials


def min_detectable_b(
    lam: float,
    delta_t: float,
    sensor: SensorModel,
    geom: Geometry,
    target_accuracy: float,
    tolerance: float = 1e-4,
    mc_rounds: int = 0,
    seed: int = 0,
) -> float | None:
    """Smallest amplitude b whose inference accuracy reaches the target.

    Bisection on b in [0, 1]. The objective is the mean analytic accuracy
    bound; with mc_rounds > 0 each candidate is scored by Monte Carlo
    instead: the candidate of bisection step k (0 for the b = 1 probe) gets
    monte_carlo_accuracy with mc_rounds trials from
    np.random.default_rng([seed, k]). Those trials do not depend on lambda,
    delta_t, the sensor or the geometry, so the calls of a lambda scan share
    them: up to mc_rounds = 2**15, the 16 steps drawn last are kept, keyed
    by (seed, k, mc_rounds), in at most 13 MB (0.8 MB at 2000 trials).
    Returns the upper bracket end (the smallest b found with accuracy >=
    target within tolerance), or None when the target is out of reach even
    at b = 1.
    """
    target_accuracy = check_number(
        target_accuracy, "min_detectable_b.targetAccuracy", above=CHANCE_LEVEL, below=1.0
    )
    tolerance = check_number(tolerance, "min_detectable_b.tolerance", above=0.0)
    mc_rounds = check_integer(mc_rounds, "min_detectable_b.mc_rounds", minimum=0)
    seed = check_integer(seed, "min_detectable_b.seed", minimum=0)
    params = NonlinearParams(lam=lam, delta_t=delta_t)
    check_instance(geom, Geometry, "min_detectable_b.geom")
    check_instance(sensor, SensorModel, "min_detectable_b.sensor")

    if mc_rounds > 0:
        settings = _mc_settings(params, sensor)
        draw = _step_trials if mc_rounds <= _CACHED_TRIALS_MAX else _step_trials.__wrapped__

        def score(b: float, step: int) -> float:
            table = _attack_columns(geom.plane, {**settings, "b": b})
            return _mc_hits(table, draw(seed, step, mc_rounds)) / mc_rounds

    else:

        def score(b: float, step: int) -> float:
            return analytic_accuracy(NonlinearParams(b, params.lam, params.delta_t), geom, sensor).mean

    if score(1.0, 0) < target_accuracy:
        return None
    lo, hi = 0.0, 1.0
    step = 0
    while hi - lo > tolerance:
        step += 1
        mid = 0.5 * (lo + hi)
        if score(mid, step) >= target_accuracy:
            hi = mid
        else:
            lo = mid
    return hi


def _nonnegative_floats(values, path: str, what: str) -> tuple[float, ...]:
    """values as a non-empty tuple of floats >= 0; messages name path and index."""
    floats = check_numbers(values, path, low=0.0)
    if not floats:
        raise ValidationError(f"{path}: must contain at least one {what}")
    return floats


def _lambda_grid(values) -> tuple[float, ...]:
    """The relaxation rates of an exclusion scan, checked."""
    return _nonnegative_floats(values, "limit.lambdaGrid", "value")


def _delay_schedule(values) -> tuple[float, ...]:
    """The observation delays of a null experiment, checked."""
    return _nonnegative_floats(values, "limit.deltaTSchedule", "delay")


def _confidence(value) -> float:
    """An exclusion confidence level, checked to lie in (0.5, 1)."""
    return check_number(value, "limit.confidence", above=0.5, below=1.0)


@dataclass(frozen=True)
class ExclusionExperiment:
    """A null-result search for the nonlinear field term.

    The sensor takes `samples` readings at each delay in delta_t_schedule
    after a mass movement sourced by the given preparation, and observes
    nothing above noise. null_observation must be True: a detection would
    call for a measurement, not a limit.
    """

    sensor: SensorModel
    geometry: Geometry
    delta_t_schedule: tuple[float, ...]
    preparation: Bb84Symbol = Bb84Symbol.Z1
    null_observation: bool = True

    def __post_init__(self) -> None:
        check_instance(self.sensor, SensorModel, "sensor")
        check_instance(self.geometry, Geometry, "geometry")
        object.__setattr__(self, "delta_t_schedule", _delay_schedule(self.delta_t_schedule))
        object.__setattr__(self, "preparation", as_symbol(self.preparation, "limit.preparation"))
        object.__setattr__(
            self, "null_observation", check_flag(self.null_observation, "limit.nullObservation")
        )


@dataclass(frozen=True)
class LimitResult:
    """Exclusion boundary on (lambda, b) at a stated confidence."""

    lambda_values: tuple[float, ...]
    b_upper: tuple[float, ...]
    confidence: float

    def __post_init__(self) -> None:
        if len(self.lambda_values) != len(self.b_upper):
            raise ValidationError("limit result: lambda and bound lists must have equal length")
        if any(not 0.0 <= b <= 1.0 for b in self.b_upper):
            raise ValidationError(f"limit result: bounds must lie in [0, 1], got {self.b_upper!r}")


def signal_to_noise(
    b: float,
    lam: float,
    delta_t: float,
    sensor: SensorModel,
    geom: Geometry,
    preparation: Bb84Symbol = Bb84Symbol.Z1,
) -> float:
    """Matched-filter separation of the nonlinear signal from zero, in noise units.

    d = sqrt(samples) * decay_factor * |mix| / sigma for one observation
    at delay delta_t, with mix the preparation's row of geom.mix_matrix;
    b, lam and delta_t are checked as NonlinearParams checks them.
    """
    factor = decay_factor(NonlinearParams(b=b, lam=lam, delta_t=delta_t))
    check_instance(sensor, SensorModel, "signal_to_noise.sensor")
    check_instance(geom, Geometry, "signal_to_noise.geom")
    mix = geom.mix_matrix[as_symbol(preparation, "limit.preparation")]
    return math.sqrt(sensor.samples) * (factor * float(np.linalg.norm(mix))) / sensor.sigma


def exclusion_limit(
    experiment: ExclusionExperiment,
    lambda_grid,
    confidence: float = 0.95,
) -> LimitResult:
    """Upper bound on b versus lambda implied by a null observation.

    For each lambda, the bound is the b at which the signal-to-noise summed
    in quadrature over the observation schedule reaches z(confidence); any
    larger b would have been detected. Bounds are capped at 1, the top of
    b's physical range, which is where fast relaxation leaves no constraint.
    """
    check_instance(experiment, ExclusionExperiment, "exclusion_limit.experiment")
    if not experiment.null_observation:
        raise ValidationError(
            "limit.nullObservation: exclusion limits require a null observation"
        )
    grid = _lambda_grid(lambda_grid)
    confidence = _confidence(confidence)
    z = statistics.NormalDist().inv_cdf(confidence)
    mix_norm = float(np.linalg.norm(experiment.geometry.mix_matrix[experiment.preparation]))
    if mix_norm == 0.0:
        raise ValidationError(
            "limit: the geometry gives a vanishing mixture signal; no limit can be set"
        )
    root_samples = math.sqrt(experiment.sensor.samples)
    uppers = []
    for lam in grid:
        quadrature_sum = sum(math.exp(-2.0 * lam * t) for t in experiment.delta_t_schedule)
        snr_per_b = root_samples * mix_norm * math.sqrt(quadrature_sum) / experiment.sensor.sigma
        # a signal relaxed below double precision constrains nothing
        uppers.append(min(1.0, z / snr_per_b) if snr_per_b > 0.0 else 1.0)
    return LimitResult(grid, tuple(uppers), confidence)
