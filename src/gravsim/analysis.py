"""Parameter sweeps, minimum-detectable-amplitude search, and exclusion limits.

The sweep runs one deterministic session per grid point. The exclusion
machinery asks the reverse question: given a sensor that saw no nonlinear
signal, how large an amplitude b could have hidden below the detection
threshold at each relaxation rate lambda.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .attack import SensorModel, analytic_accuracy, monte_carlo_accuracy
from .errors import ValidationError
from .gravity import Geometry, NonlinearParams
from .protocol import _attack_rows, _session_stats, _simulate
from .qubits import Bb84Symbol

if TYPE_CHECKING:
    from .config import RunConfig

SWEEP_PARAMETERS = (
    "b",
    "lambda",
    "deltaT",
    "sigma",
    "samples",
    "strategy",
    "tau",
    "attackFraction",
)

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
class SweepSpec:
    """Cartesian parameter grid driving repeated sessions.

    grids is an ordered sequence of (parameter name, values) pairs; names
    come from SWEEP_PARAMETERS. Point k of the product runs with seed
    seed_base + k.
    """

    grids: tuple[tuple[str, tuple], ...]
    rounds_per_point: int
    seed_base: int

    def __post_init__(self) -> None:
        if not self.grids:
            raise ValidationError("sweep.grids: at least one parameter grid is required")
        seen = set()
        normalized = []
        for entry in self.grids:
            try:
                name, values = entry
            except (TypeError, ValueError):
                raise ValidationError(
                    f"sweep.grids: each entry must be a (name, values) pair, got {entry!r}"
                ) from None
            if name not in SWEEP_PARAMETERS:
                raise ValidationError(
                    f"sweep.grids: unknown parameter {name!r}; expected one of {list(SWEEP_PARAMETERS)}"
                )
            if name in seen:
                raise ValidationError(f"sweep.grids: parameter {name!r} appears twice")
            seen.add(name)
            values = tuple(values)
            if not values:
                raise ValidationError(f"sweep.grids: grid for {name!r} is empty")
            normalized.append((name, values))
        if (
            not isinstance(self.rounds_per_point, (int, np.integer))
            or isinstance(self.rounds_per_point, bool)
            or self.rounds_per_point < 1
        ):
            raise ValidationError(
                f"sweep.roundsPerPoint: must be an integer >= 1, got {self.rounds_per_point!r}"
            )
        if (
            not isinstance(self.seed_base, (int, np.integer))
            or isinstance(self.seed_base, bool)
            or self.seed_base < 0
        ):
            raise ValidationError(
                f"sweep.seedBase: must be a non-negative integer, got {self.seed_base!r}"
            )
        object.__setattr__(self, "grids", tuple(normalized))
        object.__setattr__(self, "rounds_per_point", int(self.rounds_per_point))
        object.__setattr__(self, "seed_base", int(self.seed_base))

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.grids)

    @property
    def n_points(self) -> int:
        count = 1
        for _, values in self.grids:
            count *= len(values)
        return count


def sweep(spec: SweepSpec, base_config: "RunConfig", max_workers: int | None = None) -> list[dict]:
    """Run one session per grid point; returns rows in grid order.

    Each row maps the swept parameter names to their values at that point
    followed by the session statistics (STAT_COLUMNS). Point k uses seed
    seed_base + k. All points run in one engine pass, and every row equals
    what run_session gives for its point alone; a grid that fails raises
    the error of its first failing point. max_workers is accepted for
    compatibility and has no effect.
    """
    names = spec.parameter_names
    combos = list(itertools.product(*(values for _, values in spec.grids)))
    eves, failure = [], None
    for combo in combos:
        try:
            eves.append(base_config.with_overrides(dict(zip(names, combo))).to_eve_config())
        except ValidationError as exc:
            # The points before it still run: a session among them may fail first.
            failure = exc
            break
    with_eve = base_config.eve.enabled
    seeds = range(spec.seed_base, spec.seed_base + len(eves))
    counts = _simulate(spec.rounds_per_point, seeds, _attack_rows(eves) if with_eve else None)
    if failure is not None:
        raise failure
    rows = []
    for combo, point_counts in zip(combos, counts):
        row: dict = dict(zip(names, combo))
        row.update(_session_stats(spec.rounds_per_point, point_counts, with_eve).to_dict())
        rows.append(row)
    return rows


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
    instead, seeded deterministically per bisection step. Returns the upper bracket
    end (the smallest b found with accuracy >= target within tolerance), or
    None when the target is out of reach even at b = 1.
    """
    if (
        not isinstance(target_accuracy, (int, float))
        or not 0.25 < float(target_accuracy) < 1.0
    ):
        raise ValidationError(
            f"targetAccuracy: must lie strictly between chance 0.25 and 1, got {target_accuracy!r}"
        )
    if not isinstance(tolerance, (int, float)) or float(tolerance) <= 0.0:
        raise ValidationError(f"tolerance: must be positive, got {tolerance!r}")

    def score(b: float, step: int) -> float:
        params = NonlinearParams(b=b, lam=lam, delta_t=delta_t)
        if mc_rounds > 0:
            return monte_carlo_accuracy(
                params, geom, sensor, mc_rounds, np.random.default_rng([int(seed), step])
            )
        return analytic_accuracy(params, geom, sensor).mean

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


def _nonnegative_floats(values, path: str, empty: str, each: str) -> tuple[float, ...]:
    """values as a non-empty tuple of finite floats >= 0; messages name path and index."""
    floats = tuple(float(v) for v in values)
    if not floats:
        raise ValidationError(f"{path}: must contain at least one {empty}")
    for k, v in enumerate(floats):
        if not math.isfinite(v) or v < 0.0:
            raise ValidationError(f"{path}[{k}]: must be a finite {each} >= 0, got {v!r}")
    return floats


def _lambda_grid(values) -> tuple[float, ...]:
    """The relaxation rates of an exclusion scan, checked."""
    return _nonnegative_floats(values, "limit.lambdaGrid", "value", "rate")


def _delay_schedule(values) -> tuple[float, ...]:
    """The observation delays of a null experiment, checked."""
    return _nonnegative_floats(values, "limit.deltaTSchedule", "delay", "delay")


def _confidence(value) -> float:
    """An exclusion confidence level, checked to lie in (0.5, 1)."""
    if not isinstance(value, (int, float)) or not 0.5 < float(value) < 1.0:
        raise ValidationError(f"limit.confidence: must lie in (0.5, 1), got {value!r}")
    return float(value)


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
        object.__setattr__(self, "delta_t_schedule", _delay_schedule(self.delta_t_schedule))
        object.__setattr__(self, "preparation", Bb84Symbol(self.preparation))
        object.__setattr__(self, "null_observation", bool(self.null_observation))


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

    d = sqrt(samples) * b * exp(-lam * delta_t) * |mix_field| / sigma for one
    observation at delay delta_t.
    """
    signal = (
        float(b)
        * math.exp(-float(lam) * float(delta_t))
        * float(np.linalg.norm(geom.mix_matrix[Bb84Symbol(preparation)]))
    )
    return math.sqrt(sensor.samples) * signal / sensor.sigma


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
    if not isinstance(experiment, ExclusionExperiment):
        raise ValidationError(f"exclusion_limit: expected an ExclusionExperiment, got {experiment!r}")
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
