"""Parameter sweeps, minimum-detectable-amplitude search, and exclusion limits.

The sweep runs one deterministic session per grid point. The exclusion
machinery asks the reverse question: given a sensor that saw no nonlinear
signal, how large an amplitude b could have hidden below the detection
threshold at each relaxation rate lambda.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .attack import (
    CHANCE_LEVEL,
    SensorModel,
    _check_table,
    _mc_hits,
    _mc_trials,
    _Trials,
    _union_bound,
)
from .config import _KEYS, RunConfig, SweepSpec, _confidence, _delay_schedule, _lambda_grid
from .errors import ValidationError, check_flag, check_instance, check_integer, check_number
from .gravity import Geometry, NonlinearParams, decay_factor
from .protocol import _NORMAL_EXTENT, STAT_COLUMNS, _session_rows, _simulate
from .qubits import Bb84Symbol, as_symbol


def sweep(spec: SweepSpec, base_config: RunConfig, max_workers: int | None = None) -> list[dict]:
    """Run one session per grid point; returns rows in grid order.

    Each row maps the swept parameter names to their values at that point
    followed by the session statistics (STAT_COLUMNS). Point k uses seed
    seed_base + k. All points run in one engine pass, and every row equals
    what run_session gives for its point alone; a grid that fails raises
    the error of its first failing point. max_workers is accepted for
    compatibility and has no effect.

    Each grid value is checked once, by rebuilding the configuration
    section that owns it (_checked), as with_overrides would, and the
    points are columns of the checked values, which EveConfig._columns
    takes under the fields config._KEYS names. Every field is checked on
    its own, so the first point that holds a rejected value is the first
    point that with_overrides rejects. Then no session runs: the settings
    of the points before it are checked as _simulate checks them, and
    then its with_overrides raises.
    """
    check_instance(spec, SweepSpec, "sweep.spec")
    check_instance(base_config, RunConfig, "sweep.base_config")
    names = spec.parameter_names
    checked = [
        [_checked(base_config._owner(name), _KEYS[name][1], v) for v in values]
        for name, values in spec.grids
    ]
    points = list(itertools.product(*checked))
    valid = next((k for k, point in enumerate(points) if None in point), len(points))
    combos = list(itertools.product(*(values for _, values in spec.grids)))
    table = None
    if base_config.eve.enabled and valid > 0:
        columns = {_KEYS[name][1]: column for name, column in zip(names, zip(*points[:valid]))}
        table = base_config.to_eve_config()._columns(**columns)
    if valid < len(points):
        if table is not None:
            _check_table(table, _NORMAL_EXTENT)
        base_config.with_overrides(dict(zip(names, combos[valid])))  # raises
    seeds = range(spec.seed_base, spec.seed_base + valid)
    counts = _simulate(spec.rounds_per_point, seeds, table)
    stats = _session_rows(spec.rounds_per_point, counts, table is not None)
    columns = names + STAT_COLUMNS
    return [dict(zip(columns, combo + row)) for combo, row in zip(combos, stats)]


def _checked(section, field: str, value):
    """The sweep value of `field` of the config section, as with_overrides checks it, or None.

    Only the section that owns the field is rebuilt (the EveStrategy for
    strategy and tau), which checks what with_overrides checks: None means
    that with_overrides rejects the value.
    """
    try:
        return getattr(dataclasses.replace(section, **{field: value}), field)
    except ValidationError:
        return None


# Steps 0 to k of n trials are kept while (k + 1) * 33 * n bytes (int8 truths,
# float64 normals, ties and critical amplitudes) fit: 16 steps of 2**15 trials.
_KEPT_BYTES = 33 * 2**19  # 16.5 MiB

# The (mc_rounds, layout's _Plane) of the last scan, and step k -> (seed, its read-only _Trials).
_kept_steps: tuple = (None, {})


def _step_trials(seed: int, step: int, mc_rounds: int, geom: Geometry) -> _Trials:
    """The read-only trials of bisection step `step` on geom.plane, from default_rng([seed, step]).

    Slot k of _kept_steps holds step k of the last scan that drew it,
    tagged with its seed, while _KEPT_BYTES allows: a lambda scan scores
    every candidate of step k on one draw and its sorted critical
    amplitudes, which depend on geom.plane alone. A call with another
    mc_rounds, or on another layout (whose geom.plane_constants is another
    object), first empties the store; a new seed replaces one slot at a
    time. Threads read only their own key's trials: the store is swapped
    whole and each slot is one tuple.
    """
    global _kept_steps
    pair, slots = _kept_steps
    plane = geom.plane_constants
    if pair is None or pair[0] != mc_rounds or pair[1] is not plane:  # _Plane's == is ambiguous
        pair, slots = _kept_steps = ((mc_rounds, plane), {})
    slot = slots.get(step)
    if slot is not None and slot[0] == seed:
        return slot[1]
    trials = _mc_trials(np.random.default_rng([seed, step]), mc_rounds, plane)
    for array in (trials.truths, trials.normals, trials.ties, trials.critical):
        if array is not None:
            array.setflags(write=False)
    if (step + 1) * 33 * mc_rounds <= _KEPT_BYTES:
        slots[step] = (seed, trials)
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

    Bisection on b in [0, 1]. The objective is the mean of
    analytic_accuracy's bound; with mc_rounds > 0 each candidate is scored
    by Monte Carlo instead: the candidate of bisection step k (0 for the
    b = 1 probe) gets monte_carlo_accuracy with mc_rounds trials from
    np.random.default_rng([seed, k]). Those trials do not depend on lambda,
    delta_t, the sensor or the geometry, and each trial's critical amplitude
    (attack._critical_amplitudes) depends on geom.plane alone, so the calls
    of a lambda scan share both: a scan at the last mc_rounds and layout
    reuses step k, with its sorted critical amplitudes, while steps 0 to k
    hold at most 16.5 MiB (_step_trials). A candidate is then scalar work
    (attack._mc_hits): an overflow check on floats and a binary search for
    the trials whose critical amplitude lies below its amplitude in noise
    units, b * exp(-lambda * delta_t) * sqrt(samples) / sigma. When the
    rounding band about it holds a trial's critical amplitude, or covers
    every trial (at b = 0 and wherever no decision can be certain), the
    kernel scores every trial instead, against the residuals decay *
    geom.plane, and the count is the kernel's bit for bit. _mc_hits computes
    the sensor's count, sigma and scale from the SensorModel itself.
    An analytic candidate passes its decay and the rows of geom.plane,
    read as floats once per call, to analytic_accuracy's union-bound core
    (attack._union_bound), so it scores analytic_accuracy's mean at its b
    bit for bit. Arguments are checked once, and a candidate b is
    scored from the constants of the call: its decay is b * exp(-lambda *
    delta_t), the product decay_factor forms. Returns the upper bracket end
    (the smallest b found with accuracy >= target within tolerance), or None
    when the target is out of reach even at b = 1. The bisection also stops,
    and returns the upper end, when no float lies strictly between the two
    ends, so a tolerance below the float spacing at the crossing ends there.
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

    relax = math.exp(-params.lam * params.delta_t)
    if mc_rounds > 0:
        plane = geom.plane_constants

        def score(b: float, step: int) -> float:
            trials = _step_trials(seed, step, mc_rounds, geom)
            return _mc_hits(sensor, b * relax, plane, trials) / mc_rounds

    else:
        scale = math.sqrt(sensor.samples) / sensor.sigma
        rows = geom.plane.tolist()

        def score(b: float, step: int) -> float:
            return _union_bound(b * relax, rows, scale)[2]

    if score(1.0, 0) < target_accuracy:
        return None
    lo, hi = 0.0, 1.0
    step = 0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float lies strictly between lo and hi
            break
        step += 1
        if score(mid, step) >= target_accuracy:
            hi = mid
        else:
            lo = mid
    return hi


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


def _norm(row: np.ndarray) -> float:
    """|row| as np.linalg.norm gives it, or by math.hypot where its sum of squares could not hold.

    A row beyond about 1e154 squares to inf, and one below about 1e-150 may
    square into the subnormals; math.hypot scales rather than squares.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(row))
    return norm if 1e-150 <= norm < math.inf else math.hypot(*row.tolist())


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
    mix = geom.mix_matrix[as_symbol(preparation, "signal_to_noise.preparation")]
    return math.sqrt(sensor.samples) * (factor * _norm(mix)) / sensor.sigma


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

    The bounds are computed as columns over the grid, bit for bit as one
    lambda at a time: for each delay t, in schedule order, math.exp maps
    the grid's -2 lambda t (np.exp's kernels may round differently), and
    the columns are added left to right, so the sum does not depend on the
    Python version (sum() of floats compensates from Python 3.12 on). The
    square root, products, quotients and the cap at 1 are numpy array
    operations, which round exactly as their scalar forms.
    """
    check_instance(experiment, ExclusionExperiment, "exclusion_limit.experiment")
    if not experiment.null_observation:
        raise ValidationError(
            "limit.nullObservation: exclusion limits require a null observation"
        )
    grid = _lambda_grid(lambda_grid)
    confidence = _confidence(confidence)
    z = statistics.NormalDist().inv_cdf(confidence)
    mix_norm = _norm(experiment.geometry.mix_matrix[experiment.preparation])
    if mix_norm == 0.0:
        raise ValidationError(
            "limit: the geometry gives a vanishing mixture signal; no limit can be set"
        )
    root_samples = math.sqrt(experiment.sensor.samples)
    with np.errstate(all="ignore"):  # overflow, x / 0 and inf * 0 give what Python's floats give
        rates = -2.0 * np.array(grid)
        quadrature_sum = np.zeros(len(grid))
        for t in experiment.delta_t_schedule:
            quadrature_sum += np.fromiter(map(math.exp, (rates * t).tolist()), float, len(grid))
        snr_per_b = root_samples * mix_norm * np.sqrt(quadrature_sum) / experiment.sensor.sigma
        # a signal relaxed below double precision constrains nothing
        uppers = np.where(snr_per_b > 0.0, np.minimum(1.0, z / snr_per_b), 1.0)
    return LimitResult(grid, tuple(uppers.tolist()), confidence)
