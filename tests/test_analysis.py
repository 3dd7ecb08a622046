"""Unit tests for sweeps, detectability search, and exclusion limits."""

import itertools
import math
import re
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gravsim.analysis
import gravsim.attack
import gravsim.gravity
import oracles
from conftest import gravsim_env
from gravsim import (
    STAT_COLUMNS,
    SWEEP_PARAMETERS,
    Bb84Symbol,
    ExclusionExperiment,
    Geometry,
    LimitResult,
    NonlinearParams,
    RunConfig,
    SensorModel,
    SweepSpec,
    ValidationError,
    analytic_accuracy,
    exclusion_limit,
    load_config,
    min_detectable_b,
    monte_carlo_accuracy,
    run_session,
    signal_to_noise,
    sweep,
)

MIX_NORM = 8.165808171600106e-10  # |mix row| for every preparation in the bundled geometry


@pytest.fixture(scope="module")
def geom():
    return Geometry()


@pytest.fixture(scope="module")
def base_config():
    return load_config("default.json")


def small_spec() -> SweepSpec:
    return SweepSpec(
        grids=(("b", (0.0, 0.1)), ("sigma", (2.5e-12, 1e-30))),
        rounds_per_point=600,
        seed_base=50,
    )


def test_sweep_spec_properties():
    spec = small_spec()
    assert spec.parameter_names == ("b", "sigma")
    assert set(spec.parameter_names) <= set(SWEEP_PARAMETERS)


def test_sweep_spec_validation():
    with pytest.raises(ValidationError, match="at least one"):
        SweepSpec(grids=(), rounds_per_point=10, seed_base=0)
    with pytest.raises(ValidationError, match="unknown parameter"):
        SweepSpec(grids=(("mass", (1.0,)),), rounds_per_point=10, seed_base=0)
    with pytest.raises(ValidationError, match="appears twice"):
        SweepSpec(grids=(("b", (0.0,)), ("b", (0.1,))), rounds_per_point=10, seed_base=0)
    with pytest.raises(ValidationError, match="is empty"):
        SweepSpec(grids=(("b", ()),), rounds_per_point=10, seed_base=0)
    with pytest.raises(ValidationError, match="pair"):
        SweepSpec(grids=("b",), rounds_per_point=10, seed_base=0)
    with pytest.raises(ValidationError, match="roundsPerPoint"):
        SweepSpec(grids=(("b", (0.0,)),), rounds_per_point=0, seed_base=0)
    with pytest.raises(ValidationError, match="roundsPerPoint"):
        SweepSpec(grids=(("b", (0.0,)),), rounds_per_point=True, seed_base=0)
    with pytest.raises(ValidationError, match="seedBase"):
        SweepSpec(grids=(("b", (0.0,)),), rounds_per_point=10, seed_base=-1)


@pytest.mark.parametrize(
    "name, value",
    [
        ("b", "0.1"),
        ("lambda", True),
        ("deltaT", math.inf),
        ("sigma", math.nan),
        ("tau", None),
        ("attackFraction", np.bool_(True)),
        ("samples", 2.0),
        ("samples", False),
        ("strategy", 0),
    ],
)
def test_sweep_spec_rejects_a_grid_value_its_field_does_not_take(name, value):
    with pytest.raises(ValidationError, match=rf"^sweep\.grids: expected .* for '{name}'"):
        SweepSpec(grids=((name, (value,)),), rounds_per_point=10, seed_base=0)


def null_experiment(geom, schedule=(1.0,)):
    return ExclusionExperiment(SensorModel(sigma=1e-12), geom, delta_t_schedule=schedule)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda geom: SweepSpec((("strategy", "Threshold"),), 10, 0),
         "sweep.grids: values for 'strategy' must be a list, got 'Threshold'"),
        (lambda geom: SweepSpec((("b", 5),), 10, 0),
         "sweep.grids: values for 'b' must be a list, got 5"),
        (lambda geom: null_experiment(geom, "12"),
         "limit.deltaTSchedule: expected a list of numbers, got '12'"),
        (lambda geom: exclusion_limit(null_experiment(geom), 5),
         "limit.lambdaGrid: expected a list of numbers, got 5"),
        (lambda geom: exclusion_limit(null_experiment(geom), "0.5"),
         "limit.lambdaGrid: expected a list of numbers, got '0.5'"),
    ],
    ids=["strategy-string", "b-scalar", "schedule-string", "lambda-scalar", "lambda-string"],
)
def test_a_list_of_values_is_not_a_string_or_a_scalar(geom, make, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make(geom)


def test_sweep_takes_numpy_scalars_as_grid_values(base_config):
    spec = SweepSpec(
        grids=(("b", (np.float32(0.25), np.int64(0))), ("samples", (np.int64(2),))),
        rounds_per_point=50,
        seed_base=3,
    )
    plain = replace(spec, grids=(("b", (float(np.float32(0.25)), 0)), ("samples", (2,))))
    stats = [{k: row[k] for k in STAT_COLUMNS} for row in sweep(spec, base_config)]
    assert stats == [{k: row[k] for k in STAT_COLUMNS} for row in sweep(plain, base_config)]


def test_sweep_rows_follow_grid_order(base_config):
    spec = small_spec()
    rows = sweep(spec, base_config)
    expected_combos = list(itertools.product((0.0, 0.1), (2.5e-12, 1e-30)))
    assert len(rows) == len(expected_combos)
    for row, (b, sigma) in zip(rows, expected_combos):
        assert list(row) == ["b", "sigma", *STAT_COLUMNS]
        assert row["b"] == b
        assert row["sigma"] == sigma
        assert row["rounds"] == spec.rounds_per_point


def test_sweep_rows_match_manual_sessions(base_config):
    spec = small_spec()
    rows = sweep(spec, base_config)
    for k, row in enumerate(rows):
        cfg = base_config.with_overrides({"b": row["b"], "sigma": row["sigma"]})
        stats, _ = run_session(
            spec.rounds_per_point, cfg.to_eve_config(), seed=spec.seed_base + k, with_records=False
        )
        assert row == {"b": row["b"], "sigma": row["sigma"], **stats.to_dict()}


def test_sweep_physics_endpoints(base_config):
    rows = sweep(small_spec(), base_config)
    by_point = {(row["b"], row["sigma"]): row for row in rows}
    noisy_no_signal = by_point[(0.0, 2.5e-12)]
    assert noisy_no_signal["aborted"]  # intercept-resend disturbance
    quiet_strong = by_point[(0.1, 1e-30)]
    assert quiet_strong["qber"] == 0.0
    assert not quiet_strong["aborted"]
    assert quiet_strong["eveAccuracy"] == 1.0


def test_sweep_is_deterministic_and_worker_independent(base_config):
    spec = small_spec()
    serial = sweep(spec, base_config)
    again = sweep(spec, base_config)
    assert serial == again


def test_sweep_without_eve_rows_equal_honest_sessions(base_config):
    honest = replace(base_config, eve=replace(base_config.eve, enabled=False))
    spec = replace(small_spec(), rounds_per_point=700)
    rows = sweep(spec, honest)
    for k, row in enumerate(rows):
        stats, _ = run_session(700, seed=spec.seed_base + k, with_records=False)
        assert row == {"b": row["b"], "sigma": row["sigma"], **stats.to_dict()}
        assert row["eveAccuracy"] is None and row["eveMutualInfo"] is None


@pytest.mark.filterwarnings("error")
def test_sweep_raises_the_error_of_its_first_failing_point(base_config, geom):
    # At 1e200 kg every b > 0 overflows Eve's scores, and tau 0 is invalid.
    huge = replace(base_config, geometry=Geometry(geom.sites, geom.probes, test_mass=1e200))
    spec = SweepSpec(
        grids=(("tau", (0.5, 0.0)), ("sigma", (1e190, 1e150)), ("b", (0.0, 0.05))),
        rounds_per_point=50,
        seed_base=3,
    )
    lone = huge.with_overrides({"tau": 0.5, "sigma": 1e190, "b": 0.05})
    with pytest.raises(ValidationError) as alone:
        run_session(50, lone.to_eve_config(), seed=spec.seed_base + 1)
    assert str(alone.value).startswith("geometry.testMass, sensor.sigma: ")
    assert "1e+190" in str(alone.value)
    with pytest.raises(ValidationError) as grid:
        sweep(spec, huge)
    assert str(grid.value) == str(alone.value)
    sigma_first = replace(spec, grids=spec.grids[1:])
    with pytest.raises(ValidationError) as grid:
        sweep(sigma_first, huge)
    assert str(grid.value) == str(alone.value)
    with pytest.raises(ValidationError, match="eve.tau"):
        sweep(replace(spec, grids=(("tau", (0.5, 0.0)),)), huge)
    # A lone session checks every block of rounds, also one Eve sits out.
    idle = replace(spec, grids=(("attackFraction", (0.0,)), ("sigma", (1e190, 1e150))))
    with pytest.raises(ValidationError) as grid:
        sweep(idle, huge.with_overrides({"b": 0.05}))
    assert str(grid.value) == str(alone.value)


@pytest.mark.filterwarnings("error")
def test_a_sweep_whose_first_point_is_rejected_raises_that_points_error(
    base_config, geom, monkeypatch
):
    # The base settings overflow Eve's scores, but no point runs them.
    huge = replace(base_config, geometry=Geometry(geom.sites, geom.probes, test_mass=1e200))
    huge = huge.with_overrides({"b": 0.05, "sigma": 1e190})
    spec = SweepSpec(grids=(("tau", (0.0, 0.5)),), rounds_per_point=50, seed_base=3)
    with pytest.raises(ValidationError, match=r"^eve\.tau: must lie in \(0, 1\], got 0\.0$"):
        sweep(spec, huge)
    loud = base_config.with_overrides({"sigma": 5e307, "b": 0.05})
    spec = SweepSpec(grids=(("sigma", (-1.0, 1e-12)),), rounds_per_point=50, seed_base=3)
    with pytest.raises(ValidationError, match=r"^sensor\.sigma: must be > 0, got -1\.0$"):
        sweep(spec, loud)
    # A rejected point runs no session, also for the valid points before it.
    monkeypatch.setattr(gravsim.analysis, "_simulate", None)
    spec = SweepSpec(grids=(("tau", (0.5, 0.0)),), rounds_per_point=50, seed_base=3)
    with pytest.raises(ValidationError, match=r"^eve\.tau: "):
        sweep(spec, base_config)


def test_sweep_over_strategy_strings(base_config):
    spec = SweepSpec(
        grids=(("strategy", ("CloneInferred", "ResendMeasured")),),
        rounds_per_point=200,
        seed_base=7,
    )
    rows = sweep(spec, base_config)
    assert [row["strategy"] for row in rows] == ["CloneInferred", "ResendMeasured"]


def lone_rows(spec, config):
    """What run_session gives for each point of spec alone, as sweep rows."""
    rows = []
    for k, combo in enumerate(itertools.product(*(values for _, values in spec.grids))):
        point = dict(zip(spec.parameter_names, combo))
        eve = config.with_overrides(point).to_eve_config()
        stats, _ = run_session(
            spec.rounds_per_point, eve, seed=spec.seed_base + k, with_records=False
        )
        rows.append({**point, **stats.to_dict()})
    return rows


@pytest.mark.parametrize(
    "grids, first",
    [
        (
            (("tau", (0.0, 0.5)), ("attackFraction", (2.0, 1.0))),
            {"tau": 0.0, "attackFraction": 2.0},
        ),
        (
            (("attackFraction", (2.0, 1.0)), ("tau", (0.0, 0.5))),
            {"attackFraction": 2.0, "tau": 0.0},
        ),
        (
            (("b", (0.1, 0.2)), ("tau", (0.5, 0.0)), ("attackFraction", (1.0, 2.0))),
            {"b": 0.1, "tau": 0.5, "attackFraction": 2.0},
        ),
    ],
    ids=["two-rejected-tau-first", "two-rejected-fraction-first", "after-a-good-point"],
)
def test_sweep_raises_what_with_overrides_raises_for_the_first_rejected_point(
    base_config, grids, first
):
    with pytest.raises(ValidationError) as alone:
        base_config.with_overrides(first)
    with pytest.raises(ValidationError) as grid:
        sweep(SweepSpec(grids=grids, rounds_per_point=50, seed_base=3), base_config)
    assert str(grid.value) == str(alone.value)


def test_sweep_with_eve_disabled_still_rejects_an_invalid_tau(base_config):
    honest = replace(base_config, eve=replace(base_config.eve, enabled=False))
    spec = SweepSpec(grids=(("tau", (0.5, 0.0)),), rounds_per_point=50, seed_base=3)
    with pytest.raises(ValidationError, match=r"^eve\.tau: must lie in \(0, 1\], got 0\.0$"):
        sweep(spec, honest)


def test_sweep_runs_a_repeated_grid_value_once_per_point(base_config):
    spec = SweepSpec(
        grids=(("b", (0.05, 0.05)), ("samples", (2, 2)), ("strategy", ("Threshold", "Threshold"))),
        rounds_per_point=60,
        seed_base=11,
    )
    rows = sweep(spec, base_config)
    assert len(rows) == 8
    assert rows == lone_rows(spec, base_config)


@pytest.mark.parametrize("failing", [False, True])
def test_sweep_calls_with_overrides_once_per_grid_value_plus_one(base_config, monkeypatch, failing):
    calls = []
    with_overrides = RunConfig.with_overrides

    def counted(self, overrides):
        calls.append(overrides)
        return with_overrides(self, overrides)

    monkeypatch.setattr(RunConfig, "with_overrides", counted)
    fractions = (0.5, 1.0, 2.0) if failing else (0.5, 1.0)
    spec = SweepSpec(
        grids=(
            ("b", (0.0, 0.05, 0.5)),
            ("sigma", (1e-30, 1e-12, 2.5e-12, 1e-11)),
            ("attackFraction", fractions),
            ("strategy", ("CloneInferred", "ResendMeasured", "Threshold")),
        ),
        rounds_per_point=20,
        seed_base=5,
    )
    grid_values = sum(len(values) for _, values in spec.grids)
    if failing:
        with pytest.raises(ValidationError, match=r"^eve\.attackFraction: "):
            sweep(spec, base_config)
    else:
        assert len(sweep(spec, base_config)) == 72
    assert len(calls) <= grid_values + 1


def test_min_detectable_b_validation(geom):
    sensor = SensorModel(sigma=2.5e-12)
    for bad_target in (0.25, 1.0, 1.2, 0.0):
        with pytest.raises(ValidationError, match="targetAccuracy"):
            min_detectable_b(0.0, 0.0, sensor, geom, bad_target)
    with pytest.raises(ValidationError, match="tolerance"):
        min_detectable_b(0.0, 0.0, sensor, geom, 0.8, tolerance=0.0)


def test_min_detectable_b_unreachable_target_returns_none(geom):
    sensor = SensorModel(sigma=1e-6)  # noise drowns the field even at b = 1
    assert min_detectable_b(0.0, 0.0, sensor, geom, 0.9) is None


def test_min_detectable_b_brackets_the_crossing(geom):
    sensor = SensorModel(sigma=2.5e-12)
    target = 0.8
    tol = 1e-4
    b_star = min_detectable_b(0.0, 0.0, sensor, geom, target, tolerance=tol)
    assert b_star is not None

    def mean_accuracy(b):
        return analytic_accuracy(NonlinearParams(b=b), geom, sensor).mean

    assert mean_accuracy(b_star) >= target
    assert mean_accuracy(b_star - tol) < target


def test_min_detectable_b_stops_where_no_float_lies_between_the_bracket_ends(geom):
    # A tolerance below the float spacing at the crossing once left the
    # bracket ends adjacent, with the midpoint equal to one of them, forever.
    code = (
        "from gravsim import Geometry, SensorModel, min_detectable_b\n"
        "for mc_rounds in (0, 50):\n"
        "    b = min_detectable_b(0.0, 0.0, SensorModel(), Geometry(), 0.8, tolerance=1e-20,"
        " mc_rounds=mc_rounds, seed=2)\n"
        "    print(repr(b))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=gravsim_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    analytic, monte_carlo = (float(line) for line in result.stdout.split())
    sensor = SensorModel()

    def mean_accuracy(b):
        return analytic_accuracy(NonlinearParams(b=b), geom, sensor).mean

    assert mean_accuracy(analytic) >= 0.8 > mean_accuracy(math.nextafter(analytic, 0.0))
    assert 0.0 < monte_carlo < 1.0


def test_min_detectable_b_scales_with_noise_and_samples(geom):
    target, tol = 0.8, 1e-4
    base = min_detectable_b(0.0, 0.0, SensorModel(sigma=2.5e-12), geom, target, tolerance=tol)
    doubled_noise = min_detectable_b(
        0.0, 0.0, SensorModel(sigma=5.0e-12), geom, target, tolerance=tol
    )
    assert doubled_noise == pytest.approx(2.0 * base, abs=3 * tol)
    four_samples = min_detectable_b(
        0.0, 0.0, SensorModel(sigma=2.5e-12, samples=4), geom, target, tolerance=tol
    )
    assert four_samples == pytest.approx(base / 2.0, abs=3 * tol)


def test_min_detectable_b_relaxation_raises_the_threshold(geom):
    sensor = SensorModel(sigma=2.5e-12)
    instant = min_detectable_b(0.0, 0.0, sensor, geom, 0.8)
    relaxed = min_detectable_b(1.0, 1.0, sensor, geom, 0.8)
    assert relaxed == pytest.approx(instant * math.e, rel=1e-2)


def test_min_detectable_b_monte_carlo_mode(geom):
    sensor = SensorModel(sigma=2.5e-12)
    analytic = min_detectable_b(0.0, 0.0, sensor, geom, 0.8)
    mc = min_detectable_b(0.0, 0.0, sensor, geom, 0.8, mc_rounds=4000, seed=3)
    assert mc == pytest.approx(analytic, abs=5e-3)
    assert mc == min_detectable_b(0.0, 0.0, sensor, geom, 0.8, mc_rounds=4000, seed=3)


# A geometry whose plane rows Z0 and Xp coincide, and Z1 and Xm: with one probe
# at the origin, sites Xp = -Z1 and Xm = -Z0 give equal diagonals exactly.
COINCIDENT = Geometry(
    [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, -0.5, 0.0], [-0.5, 0.0, 0.0]], [[0.0, 0.0, 0.0]]
)
SHIFTS = st.lists(st.floats(-0.05, 0.05), min_size=12, max_size=12)
GEOMETRIES = st.builds(
    lambda shifts, exponent: Geometry(
        (Geometry().sites + np.reshape(shifts, (4, 3))).tolist(),
        Geometry().probes,
        test_mass=10.0**exponent,
    ),
    SHIFTS,
    st.floats(-30.0, 30.0),
)


def analytic_bisection(lam, delta_t, sensor, geom, target, tolerance):
    """min_detectable_b's bisection written out over analytic_accuracy: the means it scores."""

    def mean(b):
        params = NonlinearParams(b=b, lam=lam, delta_t=delta_t)
        means.append(analytic_accuracy(params, geom, sensor).mean)
        return means[-1]

    means = []
    if mean(1.0) < target:
        return means
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mean(mid) >= target:
            hi = mid
        else:
            lo = mid
    return means


@st.composite
def analytic_settings(draw):
    """A geometry, lambda, deltaT, sigma, sample count and target for an analytic bisection.

    Most sigmas put the bisection's crossing within [0, 1], where the
    candidates' means are neither 0 nor 1: their plane's largest row, at
    the crossing's decay, lies a few noise units from the origin.
    """
    geom = draw(st.one_of(st.just(Geometry()), st.just(COINCIDENT), GEOMETRIES))
    lam, delta_t = draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 2.0))
    samples = draw(st.integers(1, 10**6))
    crossing, separation = draw(st.floats(0.01, 1.0)), draw(st.floats(0.5, 6.0))
    unit = float(np.abs(geom.plane).max()) * math.exp(-lam * delta_t) * math.sqrt(samples)
    sigma = draw(st.sampled_from([5e-324, crossing * unit / separation]))
    return geom, lam, delta_t, sigma, samples, draw(st.floats(0.3, 0.99))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=analytic_settings())
@example(case=(Geometry(), 1e3, 1.0, 2.5e-12, 1, 0.8))  # decay 0
@example(case=(COINCIDENT, 0.0, 0.0, 2.5e-12, 1, 0.3))
@example(case=(Geometry(), 0.5, 1.0, 5e-324, 1, 0.9))  # scale inf
def test_analytic_candidates_score_the_mean_of_analytic_accuracy(case):
    # Each candidate's score is analytic_accuracy's mean at its b, bit for bit.
    geom, lam, delta_t, sigma, samples, target = case
    sensor = SensorModel(sigma=sigma, samples=samples)
    scored = []

    def core(*args):
        scored.append(gravsim.attack._union_bound(*args)[2])
        return [None, None, scored[-1]]

    with mock.patch.object(gravsim.analysis, "_union_bound", core):
        min_detectable_b(lam, delta_t, sensor, geom, target, tolerance=1e-3)
    expected = analytic_bisection(lam, delta_t, sensor, geom, target, 1e-3)
    assert [mean.hex() for mean in scored] == [mean.hex() for mean in expected]


STEP_TRIALS = gravsim.analysis._step_trials


def kept_steps():
    """The kept steps of analysis._kept_steps as step -> (seed, trials), and their bytes."""
    _, slots = gravsim.analysis._kept_steps
    arrays = [(t.truths, t.normals, t.ties, t.critical) for _, t in slots.values()]
    return slots, sum(array.nbytes for entry in arrays for array in entry if array is not None)


def test_kept_bisection_trials_reject_writes(step_draws):
    geom = Geometry()
    min_detectable_b(0.0, 0.0, SensorModel(), geom, 0.8, tolerance=0.1, mc_rounds=50, seed=2)
    assert step_draws.call_count == 5
    trials = STEP_TRIALS(2, 0, 50, geom)
    assert step_draws.call_count == 5  # kept
    for array in (trials.truths, trials.normals, trials.ties, trials.critical):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_kept_bisection_trials_hold_their_critical_amplitudes_sorted(geom, step_draws):
    # Kept and fresh trials hold the amplitudes of their draws in ascending
    # order, and the in-place sort leaves the kept arrays read-only.
    min_detectable_b(0.0, 0.0, SensorModel(), geom, 0.8, tolerance=0.1, mc_rounds=500, seed=6)
    kept = STEP_TRIALS(6, 2, 500, geom)
    assert step_draws.call_count == 5  # kept
    plane = geom.plane_constants
    fresh = gravsim.attack._mc_trials(np.random.default_rng([6, 2]), 500, plane)
    drawn = gravsim.attack._critical_amplitudes(fresh.truths, fresh.normals, plane.weights)
    assert not (np.diff(drawn) >= 0.0).all()  # the draws come in no order
    for trials in (kept, fresh):
        assert (np.diff(trials.critical) >= 0.0).all()
        assert np.array_equal(trials.critical, np.sort(drawn))
    for array in (kept.truths, kept.normals, kept.ties, kept.critical):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kept.critical.sort()


def test_kept_bisection_trials_of_another_geometry_are_drawn_anew(geom, step_draws):
    # The critical amplitudes are those of the plane of the geometry they are kept for.
    min_detectable_b(0.0, 0.0, SensorModel(), geom, 0.8, tolerance=0.1, mc_rounds=50, seed=2)
    kept = STEP_TRIALS(2, 0, 50, geom)
    other = Geometry(geom.sites, geom.probes, test_mass=2.0)
    min_detectable_b(0.0, 0.0, SensorModel(), other, 0.8, tolerance=0.1, mc_rounds=50, seed=2)
    assert step_draws.call_count == 10
    mc_rounds, plane = gravsim.analysis._kept_steps[0]
    assert mc_rounds == 50 and plane is other.plane_constants  # its steps replace geom's
    drawn = STEP_TRIALS(2, 0, 50, other)
    assert step_draws.call_count == 10
    assert np.array_equal(kept.normals, drawn.normals)
    assert np.array_equal(kept.critical, 2.0 * drawn.critical)  # twice the mass, twice the plane


def test_a_lambda_scan_builds_its_plane_constants_once(step_draws):
    # One _Plane per layout, whatever the lambda, the sensor, the caller or the Geometry object.
    gravsim.gravity._layout.cache_clear()
    constants = gravsim.gravity._plane_constants
    with mock.patch.object(gravsim.gravity, "_plane_constants", wraps=constants) as built:
        geom = Geometry()
        for lam in (0.0, 0.5, 1.0, 2.0):
            twin = Geometry()  # another object of geom's layout
            min_detectable_b(lam, 1.0, SensorModel(), twin, 0.8, tolerance=0.1, mc_rounds=50, seed=2)
        monte_carlo_accuracy(NonlinearParams(b=0.1), geom, SensorModel(), 10, np.random.default_rng(0))
        assert built.call_count == 1
        other = Geometry(geom.sites, geom.probes, test_mass=2.0)
        min_detectable_b(0.0, 1.0, SensorModel(), other, 0.8, tolerance=0.1, mc_rounds=50, seed=2)
        assert built.call_count == 2
    assert step_draws.call_count == 10  # five steps per layout
    planes = [call.args[0] for call in built.call_args_list]
    assert planes[0] is geom.plane and planes[1] is other.plane
    mine, theirs = geom.plane_constants, other.plane_constants
    assert mine.rows is geom.plane and theirs.rows is other.plane
    # Twice the mass, twice the plane: its lengths double and its weights halve, exactly.
    assert (theirs.reach, theirs.pmax, theirs.dmin) == (2 * mine.reach, 2 * mine.pmax, 2 * mine.dmin)
    assert np.array_equal(theirs.weights, mine.weights / 2.0)
    assert not mine.weights.flags.writeable
    kept, drawn = STEP_TRIALS(2, 0, 50, geom), STEP_TRIALS(2, 0, 50, other)
    assert np.array_equal(kept.critical, 2.0 * drawn.critical)


def test_a_geometry_whose_plane_rows_coincide_has_no_critical_amplitudes():
    plane = COINCIDENT.plane_constants
    assert plane.dmin == 0.0 and plane.weights is None
    rng = np.random.default_rng([1, 0])
    accuracy = monte_carlo_accuracy(NonlinearParams(b=0.5), COINCIDENT, SensorModel(), 400, rng)
    assert gravsim.attack._mc_trials(np.random.default_rng(0), 10, plane).critical is None
    assert 0.0 < accuracy < 1.0  # the kernel scores every trial, and the ties split


def test_kept_bisection_trials_at_the_cap_stay_within_their_documented_size(geom, step_draws):
    # 16 steps of 2**15 trials fill the store: truths, normals, ties and critical amplitudes.
    n = 2**15
    min_detectable_b(0.0, 0.0, SensorModel(), geom, 0.8, tolerance=2**-15, mc_rounds=n, seed=5)
    for step in range(16):
        STEP_TRIALS(5, step, n, geom)
    assert step_draws.call_count == 16  # every step kept
    slots, size = kept_steps()
    assert sorted(slots) == list(range(16))
    assert size == 16.5 * 2**20 == gravsim.analysis._KEPT_BYTES


def test_kept_bisection_trials_stay_within_their_bound(geom, step_draws):
    # Each seed's steps replace the last seed's, slot by slot.
    sensor = SensorModel()
    for seed in range(3):
        min_detectable_b(0.0, 0.0, sensor, geom, 0.8, tolerance=1e-6, mc_rounds=30, seed=seed)
        slots, _ = kept_steps()
        assert {step: tag for step, (tag, _) in slots.items()} == dict.fromkeys(range(21), seed)
    assert step_draws.call_count == 3 * 21  # the b = 1 probe and 20 halvings per seed, none reused


def test_steps_beyond_the_kept_bytes_are_drawn_afresh(geom, step_draws):
    # At 2**15 + 1 trials steps 0 to 14 fit in _KEPT_BYTES and step 15 does not.
    n = 2**15 + 1
    for scan in range(1, 4):
        min_detectable_b(0.0, 0.0, SensorModel(), geom, 0.8, tolerance=2**-15, mc_rounds=n, seed=4)
        assert step_draws.call_count == 16 + scan - 1
    slots, size = kept_steps()
    assert sorted(slots) == list(range(15))
    assert size <= gravsim.analysis._KEPT_BYTES


def test_scans_at_mixed_trial_counts_and_geometries_keep_at_most_the_kept_bytes(geom, step_draws):
    other = Geometry(geom.sites, geom.probes, test_mass=2.0)
    scans = [
        (geom, 2**15, 2**-20, 16),  # 21 steps, 16 kept
        (geom, 40_000, 1e-4, 13),  # 15 steps, 13 kept
        (other, 2**15, 1e-4, 15),
        (other, 2000, 1e-6, 21),
        (geom, 2**14 + 1, 2**-40, 31),  # 41 steps, 31 kept
    ]
    for g, n, tolerance, kept in scans:
        min_detectable_b(0.0, 0.0, SensorModel(), g, 0.8, tolerance=tolerance, mc_rounds=n, seed=9)
        slots, size = kept_steps()
        assert len(slots) == kept and size == 33 * n * kept
        assert size <= 16.5 * 2**20


def test_threads_scanning_at_once_return_their_sequential_results(geom):
    def scan(seed, n):
        sensor = SensorModel()
        return lambda: [
            min_detectable_b(lam, 1.0, sensor, geom, 0.8, tolerance=1e-5, mc_rounds=n, seed=seed)
            for lam in (0.0, 0.5, 1.0)
        ]

    rounds = [
        [scan(1, 400), scan(2, 400)],  # one store, two seeds
        [scan(3, 400), scan(3, 400)],  # one store, one seed
        [scan(4, 400), scan(4, 300)],  # each scan swaps the store
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for jobs in rounds:
                sequential = [job() for job in jobs]
                for _ in range(3):
                    futures = [pool.submit(job) for job in jobs]
                    assert [future.result(timeout=60) for future in futures] == sequential
    finally:
        sys.setswitchinterval(interval)


def test_an_overflowing_setting_raises_alike_on_fresh_and_kept_trials(step_draws):
    geom = Geometry(test_mass=1e150, grav_const=1e150)
    for lam in (0.0, 0.5):
        with pytest.raises(ValidationError) as probe:
            params = NonlinearParams(b=1.0, lam=lam, delta_t=1.0)
            monte_carlo_accuracy(params, geom, SensorModel(), 2000, np.random.default_rng([1, 0]))
        assert str(probe.value).startswith("geometry.testMass, sensor.sigma: ")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(probe.value))}$"):
            min_detectable_b(lam, 1.0, SensorModel(), geom, 0.8, mc_rounds=2000, seed=1)
        assert step_draws.call_count == 1  # the b = 1 probe's step, drawn at lambda 0 and then kept


def test_a_bad_relaxation_rate_is_rejected_before_any_draw(geom, monkeypatch, step_draws):
    # mc_rounds 0 scores each candidate by the union bound, which must not run either.
    scored = []
    monkeypatch.setattr(gravsim.analysis, "_union_bound", lambda *args: scored.append(args))
    for mc_rounds in (2000, 0):
        for lam in (-1.0, math.nan, True):
            with pytest.raises(ValidationError, match=r"^nonlinear\.lambda: "):
                min_detectable_b(lam, 1.0, SensorModel(), geom, 0.8, mc_rounds=mc_rounds, seed=1)
        with pytest.raises(ValidationError, match=r"^nonlinear\.deltaT: "):
            min_detectable_b(0.0, -1.0, SensorModel(), geom, 0.8, mc_rounds=mc_rounds, seed=1)
    assert step_draws.call_count == 0
    assert scored == []


def test_signal_to_noise_formula(geom):
    sensor = SensorModel(sigma=3e-12, samples=4)
    got = signal_to_noise(0.2, 0.5, 2.0, sensor, geom, Bb84Symbol.XP)
    mix_norm = float(np.linalg.norm(geom.mix_matrix[Bb84Symbol.XP]))
    want = 2.0 * 0.2 * math.exp(-1.0) * mix_norm / 3e-12
    assert got == pytest.approx(want, rel=1e-12)
    assert signal_to_noise(0.0, 0.0, 0.0, sensor, geom) == 0.0
    assert mix_norm == pytest.approx(MIX_NORM, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grav_const", [1e299, 1e-300])
def test_signal_to_noise_of_a_field_whose_squares_leave_double_precision(geom, grav_const):
    # The signal scales with gravConst, though the mix rows' squares overflow or underflow.
    sensor = SensorModel(sigma=1e-100)
    scaled = Geometry(geom.sites, geom.probes, grav_const=grav_const)
    got = signal_to_noise(1e-100, 0.0, 0.0, sensor, scaled)
    want = signal_to_noise(1e-100, 0.0, 0.0, sensor, geom) * grav_const / geom.grav_const
    assert got == pytest.approx(want, rel=1e-12)
    experiment = ExclusionExperiment(sensor, scaled, delta_t_schedule=(1.0,))
    (bound,) = exclusion_limit(experiment, [0.0]).b_upper
    z = statistics.NormalDist().inv_cdf(0.95)
    assert bound == pytest.approx(min(1.0, z / (want * 1e100)), rel=1e-12)


def test_exclusion_experiment_validation(geom):
    sensor = SensorModel(sigma=1e-12)
    with pytest.raises(ValidationError, match="deltaTSchedule"):
        ExclusionExperiment(sensor, geom, delta_t_schedule=())
    with pytest.raises(ValidationError, match=r"deltaTSchedule\[1\]"):
        ExclusionExperiment(sensor, geom, delta_t_schedule=(1.0, -2.0))
    experiment = ExclusionExperiment(sensor, geom, delta_t_schedule=(1.0,), preparation=1)
    assert experiment.preparation is Bb84Symbol.Z1


def test_exclusion_limit_requires_a_null_observation(geom):
    experiment = ExclusionExperiment(
        SensorModel(sigma=1e-12), geom, delta_t_schedule=(1.0,), null_observation=False
    )
    with pytest.raises(ValidationError, match="nullObservation"):
        exclusion_limit(experiment, [0.0])


def test_exclusion_limit_input_validation(geom):
    experiment = ExclusionExperiment(SensorModel(sigma=1e-12), geom, delta_t_schedule=(1.0,))
    with pytest.raises(ValidationError, match="ExclusionExperiment"):
        exclusion_limit("experiment", [0.0])
    with pytest.raises(ValidationError, match="lambdaGrid"):
        exclusion_limit(experiment, [])
    with pytest.raises(ValidationError, match=r"lambdaGrid\[1\]"):
        exclusion_limit(experiment, [0.0, -1.0])
    for bad_confidence in (0.5, 1.0, 0.2):
        with pytest.raises(ValidationError, match="confidence"):
            exclusion_limit(experiment, [0.0], confidence=bad_confidence)


def test_exclusion_limit_closes_on_the_detection_threshold(geom):
    sensor = SensorModel(sigma=4e-11, samples=2)
    schedule = (0.5, 1.0, 2.0)
    experiment = ExclusionExperiment(sensor, geom, delta_t_schedule=schedule)
    confidence = 0.9
    result = exclusion_limit(experiment, [0.0, 0.3, 1.0], confidence=confidence)
    assert isinstance(result, LimitResult)
    assert result.confidence == confidence
    z = None
    for lam, b_upper in zip(result.lambda_values, result.b_upper):
        if b_upper >= 1.0:
            continue
        total = math.sqrt(
            sum(signal_to_noise(b_upper, lam, t, sensor, geom) ** 2 for t in schedule)
        )
        if z is None:
            z = total
        assert total == pytest.approx(z, rel=1e-12)
    assert z is not None
    assert oracles.normal_cdf(z) == pytest.approx(confidence, abs=1e-12)


def test_exclusion_limit_is_monotone_and_capped(geom):
    experiment = ExclusionExperiment(
        SensorModel(sigma=4.964458866005237e-11), geom, delta_t_schedule=(1.0,)
    )
    result = exclusion_limit(experiment, [0.0, 0.5, 1.0, 2.0, 10.0, 100.0])
    uppers = result.b_upper
    assert all(a <= b + 1e-15 for a, b in zip(uppers, uppers[1:]))
    assert uppers[-1] == 1.0
    assert uppers[0] == pytest.approx(0.1, rel=1e-12)


def test_exclusion_limit_halving_noise_halves_the_bound(geom):
    schedule = (1.0, 3.0)
    grid = [0.0, 0.4]
    coarse = exclusion_limit(
        ExclusionExperiment(SensorModel(sigma=8e-11), geom, delta_t_schedule=schedule), grid
    )
    fine = exclusion_limit(
        ExclusionExperiment(SensorModel(sigma=4e-11), geom, delta_t_schedule=schedule), grid
    )
    for half, full in zip(fine.b_upper, coarse.b_upper):
        assert half == full / 2.0


def scalar_reference_bounds(experiment, grid, confidence):
    """The bounds of exclusion_limit, one lambda at a time, each sum added left to right."""
    z = statistics.NormalDist().inv_cdf(confidence)
    mix_norm = float(np.linalg.norm(experiment.geometry.mix_matrix[experiment.preparation]))
    root_samples = math.sqrt(experiment.sensor.samples)
    uppers = []
    for lam in grid:
        quadrature_sum = 0.0
        for t in experiment.delta_t_schedule:
            quadrature_sum += math.exp(-2.0 * lam * t)
        snr_per_b = root_samples * mix_norm * math.sqrt(quadrature_sum) / experiment.sensor.sigma
        uppers.append(min(1.0, z / snr_per_b) if snr_per_b > 0.0 else 1.0)
    return uppers


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    log10_sigma=st.floats(-323.0, -6.0),
    samples=st.integers(1, 1000),
    schedule=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
    grid=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40),
    preparation=st.sampled_from(list(Bb84Symbol)),
    confidence=st.floats(0.51, 0.999),
)
# Every exp underflows past the first lambda, so the bounds reach the cap at 1.
@example(
    log10_sigma=-11.0,
    samples=1,
    schedule=[1.0, 2.0],
    grid=[0.0, 1e3],
    preparation=Bb84Symbol.Z1,
    confidence=0.95,
)
# A subnormal sigma with several readings: the signal-to-noise overflows to inf, the bound is 0.
@example(
    log10_sigma=-323.5,
    samples=4,
    schedule=[0.0, 1.0],
    grid=[0.0, 3.0],
    preparation=Bb84Symbol.XP,
    confidence=0.9,
)
# Three delays, where sum() of floats differs from Python 3.12 on.
@example(
    log10_sigma=math.log10(2.5e-12),
    samples=1,
    schedule=[0.5, 1.5, 2.5],
    grid=[2.25],
    preparation=Bb84Symbol.Z1,
    confidence=0.95,
)
def test_exclusion_limit_equals_the_scalar_reference(
    geom, log10_sigma, samples, schedule, grid, preparation, confidence
):
    sensor = SensorModel(sigma=max(10.0**log10_sigma, 5e-324), samples=samples)
    experiment = ExclusionExperiment(sensor, geom, tuple(schedule), preparation)
    result = exclusion_limit(experiment, grid, confidence)
    expected = scalar_reference_bounds(experiment, grid, confidence)
    assert [b.hex() for b in result.b_upper] == [b.hex() for b in expected]
    assert all(type(b) is float for b in result.b_upper)


def test_exclusion_limit_adds_its_delays_left_to_right():
    # With sum() of floats, Python 3.12 and later give 0.015424954613428483 at lambda = 2.25.
    config = load_config(
        '{"session": {"seed": 1}, "limit": {"lambdaGrid": [0.0, 2.25], "deltaTSchedule": [0.5, 1.5, 2.5]}}'
    )
    experiment = ExclusionExperiment(
        config.sensor, config.geometry, config.limit.delta_t_schedule, config.limit.preparation
    )
    result = exclusion_limit(experiment, config.limit.lambda_grid, config.limit.confidence)
    assert result.b_upper[1] == 0.015424954613428484


def test_exclusion_limit_from_bundled_null_experiment():
    config = load_config("page_geilker.json")
    experiment = ExclusionExperiment(
        sensor=config.sensor,
        geometry=config.geometry,
        delta_t_schedule=config.limit.delta_t_schedule,
        preparation=config.limit.preparation,
        null_observation=config.limit.null_observation,
    )
    result = exclusion_limit(experiment, config.limit.lambda_grid, config.limit.confidence)
    assert 0.05 <= result.b_upper[0] <= 0.2


def test_limit_result_validation():
    with pytest.raises(ValidationError, match="equal length"):
        LimitResult(lambda_values=(0.0, 1.0), b_upper=(0.5,), confidence=0.95)
    with pytest.raises(ValidationError, match="bounds"):
        LimitResult(lambda_values=(0.0,), b_upper=(1.2,), confidence=0.95)
