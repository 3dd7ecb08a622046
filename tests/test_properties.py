"""Property tests: posterior, plane, exclusion limit, config round trips, sweeps and the CLI."""

import contextlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from gravsim import cli
from gravsim import (
    SWEEP_PARAMETERS,
    SYMBOLS,
    ExclusionExperiment,
    Geometry,
    NonlinearParams,
    SensorModel,
    StrategyMode,
    SweepSpec,
    config_from_dict,
    decay_factor,
    exclusion_limit,
    infer_alice_state,
    load_config,
    run_session,
    serialize_config,
    signal_to_noise,
    sweep,
)
from gravsim.attack import _EVE_EDGES, POSTERIOR_TOLERANCE
from gravsim.gravity import NEWTON_G

GEOM = Geometry()
SWEEP_BASE = load_config("default.json")

# Fixed example order, so a Tier-1 run is reproducible like the rest of the suite.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(
    log10_sigma=st.floats(-300.0, -6.0),
    b=st.floats(0.0, 1.0),
    samples=st.integers(1, 8),
    prepared=st.sampled_from(SYMBOLS),
    born_factor=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# b = 1e-16 puts the residuals below the rounding of the configuration field,
# so the field alone can favour the preparation that the outcome rules out.
@example(log10_sigma=-200.0, b=1e-16, samples=1, prepared=SYMBOLS[0], born_factor=True, seed=4)
def test_posterior_is_a_distribution(log10_sigma, b, samples, prepared, born_factor, seed):
    params = NonlinearParams(b=b)
    sensor = SensorModel(sigma=10.0**log10_sigma, samples=samples)
    rng = np.random.default_rng(seed)
    # Eve's outcome from one uniform, then her readings: the field plus sensor noise.
    outcome = int((rng.random() >= _EVE_EDGES[prepared]).sum())
    field = GEOM.config_matrix[outcome] + decay_factor(params) * GEOM.mix_matrix[prepared]
    readings = field + sensor.sigma * rng.standard_normal((samples, GEOM.field_dim))
    inferred, posterior = infer_alice_state(
        readings, outcome, GEOM, params, sensor, rng, born_factor
    )
    assert posterior.shape == (4,)
    assert np.all(np.isfinite(posterior))
    assert np.all(posterior >= 0.0)
    assert abs(posterior.sum() - 1.0) <= POSTERIOR_TOLERANCE
    assert posterior[inferred] == posterior.max()


@st.composite
def plane_geometries(draw):
    """Geometries with 1-4 probes; with spread 0 or small, every point lies near one line."""
    line = draw(st.sampled_from([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.3, -0.7, 1.9)]))
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]))
    n_probes = draw(st.integers(1, 4))
    points = [
        draw(st.floats(-2.0, 2.0)) * np.array(line)
        + spread * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        for _ in range(4 + n_probes)
    ]
    sites, probes = np.array(points[:4]), np.array(points[4:])
    assume(min(np.linalg.norm(a - b) for i, a in enumerate(sites) for b in sites[i + 1 :]) > 1e-3)
    assume(min(np.linalg.norm(site - probe) for site in sites for probe in probes) > 1e-3)
    test_mass = 10.0 ** draw(st.floats(-100.0, 200.0))
    return Geometry(sites, probes, test_mass=test_mass)


@PROPERTY_SETTINGS
@given(geom=plane_geometries())
def test_the_mix_rows_live_in_the_plane(geom):
    mix = geom.mix_matrix
    top = float(np.abs(mix).max())
    # the parallelogram identity mix[Z0] + mix[Z1] = mix[Xp] + mix[Xm], to rounding
    assert np.abs((mix[0] + mix[1]) - (mix[2] + mix[3])).max() <= 1e-14 * top
    # centred rows and plane coordinates share their Gram matrix (rows scaled to dodge overflow)
    scale = float(np.abs(geom.plane).max()) or 1.0
    centred = (mix - mix.mean(axis=0)) / scale
    gram = centred @ centred.T
    plane = geom.plane / scale
    assert np.abs(plane @ plane.T - gram).max() <= 1e-12 * np.abs(gram).max()
    # rows orthonormal, or zero where their coordinate vanishes
    basis = geom.plane_basis
    assert basis.shape == (2, geom.field_dim)
    live = [k for k in range(2) if basis[k].any()]
    for k in range(2):
        if k not in live:
            assert not plane[:, k].any()
    np.testing.assert_allclose(
        basis[live] @ basis[live].T, np.eye(len(live)), rtol=0.0, atol=1e-12
    )


def _experiment(sigma, samples, schedule):
    return ExclusionExperiment(SensorModel(sigma=sigma, samples=samples), GEOM, tuple(schedule))


@PROPERTY_SETTINGS
@given(
    lambdas=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8),
    schedule=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
    log10_sigma=st.floats(-14.0, -9.0),
    scale=st.floats(0.01, 100.0),
    samples=st.integers(1, 8),
    confidence=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
)
def test_exclusion_bound_is_monotone_in_lambda_and_linear_in_sigma(
    lambdas, schedule, log10_sigma, scale, samples, confidence
):
    grid = sorted(lambdas)
    sigma = 10.0**log10_sigma
    base = exclusion_limit(_experiment(sigma, samples, schedule), grid, confidence)
    scaled = exclusion_limit(_experiment(scale * sigma, samples, schedule), grid, confidence)
    for bounds in (base.b_upper, scaled.b_upper):
        assert all(0.0 < bound <= 1.0 for bound in bounds)
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    for bound, scaled_bound in zip(base.b_upper, scaled.b_upper):
        if bound < 1.0 and scaled_bound < 1.0:
            assert scaled_bound == pytest.approx(scale * bound, rel=1e-12)


@PROPERTY_SETTINGS
@given(confidence=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
def test_exclusion_bound_sits_at_the_confidence_quantile(confidence):
    sensor = SensorModel(sigma=1e-12)
    result = exclusion_limit(ExclusionExperiment(sensor, GEOM, (1.0,)), [0.0], confidence)
    (bound,) = result.b_upper
    assert bound < 1.0
    z = signal_to_noise(bound, 0.0, 1.0, sensor, GEOM)
    assert oracles.normal_cdf(z) == pytest.approx(confidence, abs=1e-12)


UNIT = st.floats(0.0, 1.0)
RATE = st.floats(0.0, 1e6)
POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
COORD = st.floats(-10.0, 10.0)
VEC3 = st.lists(COORD, min_size=3, max_size=3)
MODES = st.sampled_from([mode.value for mode in StrategyMode])
# README's extremes: a sigma so small the scores underflow, one that
# overflows them at a testMass of 1e200, and the largest that still runs;
# and sample counts beyond int64.
SIGMAS = st.one_of(POSITIVE, st.sampled_from([1e-170, 1e190, 1e300]))
SAMPLES = st.one_of(st.integers(1, 64), st.integers(2**63, 10**30))

# One valid value strategy per sweep parameter.
SWEEP_VALUES = {
    "b": UNIT,
    "lambda": RATE,
    "deltaT": RATE,
    "sigma": SIGMAS,
    "samples": SAMPLES,
    "strategy": MODES,
    "tau": st.floats(0.0, 1.0, exclude_min=True),
    "attackFraction": UNIT,
}


def _optional_keys(**fields):
    """A JSON object holding any subset of the given keys."""
    return st.fixed_dictionaries({}, optional=fields)


@st.composite
def geometry_sections(draw):
    sites = draw(st.lists(VEC3, min_size=4, max_size=4, unique_by=tuple))
    probes = draw(st.lists(VEC3, min_size=1, max_size=4))
    for probe in probes:
        assume(min(np.linalg.norm(np.subtract(site, probe)) for site in sites) > 1e-3)
    section = {"sites": dict(zip((s.label for s in SYMBOLS), sites)), "probes": probes}
    section.update(
        draw(_optional_keys(testMass=st.one_of(POSITIVE, st.just(1e200)), gravConst=POSITIVE))
    )
    # Probes sit at least 1e-3 m from every site, so this keeps the field finite.
    assume(section.get("testMass", 1.0) * section.get("gravConst", NEWTON_G) <= 1e300)
    return section


@st.composite
def sweep_grids(draw):
    names = draw(st.lists(st.sampled_from(SWEEP_PARAMETERS), min_size=1, max_size=3, unique=True))
    return [[name, draw(st.lists(SWEEP_VALUES[name], min_size=1, max_size=3))] for name in names]


SWEEP_SECTIONS = st.fixed_dictionaries(
    {
        "grids": sweep_grids(),
        "roundsPerPoint": st.integers(1, 10**6),
        "seedBase": st.integers(0, 2**63),
    }
)

LIMIT_SECTIONS = st.fixed_dictionaries(
    {"lambdaGrid": st.lists(RATE, min_size=1, max_size=4)},
    optional={
        "deltaTSchedule": st.lists(RATE, min_size=1, max_size=4),
        "confidence": st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        "preparation": st.sampled_from([s.label for s in SYMBOLS]),
        "nullObservation": st.booleans(),
    },
)

CONFIG_DOCUMENTS = st.fixed_dictionaries(
    {
        "session": st.fixed_dictionaries(
            {"seed": st.integers(0, 2**63)}, optional={"rounds": st.integers(1, 10**9)}
        )
    },
    optional={
        "geometry": geometry_sections(),
        "nonlinear": _optional_keys(b=UNIT, **{"lambda": RATE, "deltaT": RATE}),
        "sensor": _optional_keys(sigma=SIGMAS, samples=SAMPLES),
        "eve": _optional_keys(
            enabled=st.booleans(),
            strategy=MODES,
            tau=st.floats(0.0, 1.0, exclude_min=True),
            attackFraction=UNIT,
            bornFactor=st.booleans(),
        ),
        "sweep": SWEEP_SECTIONS,
        "limit": LIMIT_SECTIONS,
    },
)


@PROPERTY_SETTINGS
@given(document=CONFIG_DOCUMENTS)
def test_serialize_then_parse_is_the_identity(document):
    config = config_from_dict(document)
    serialized = serialize_config(config)
    reparsed = config_from_dict(json.loads(json.dumps(serialized)))
    # Geometry compares by identity, so its fields are checked one by one.
    assert replace(reparsed, geometry=config.geometry) == config
    assert np.array_equal(reparsed.geometry.sites, config.geometry.sites)
    assert np.array_equal(reparsed.geometry.probes, config.geometry.probes)
    assert reparsed.geometry.test_mass == config.geometry.test_mass
    assert reparsed.geometry.grav_const == config.geometry.grav_const
    assert serialize_config(reparsed) == serialized


# Every document that passes validation runs, or fails with a GravsimError
# and its exit code; cli.main turns any other exception into exit 4.
@PROPERTY_SETTINGS
@given(document=CONFIG_DOCUMENTS, command=st.sampled_from(["run", "sweep", "limit"]))
# Mix rows whose squares overflow: np.linalg.norm warned of it.
@example(
    document={
        "session": {"seed": 1},
        "geometry": {"gravConst": 1e299},
        "limit": {"lambdaGrid": [0.0]},
    },
    command="limit",
)
def test_every_config_document_runs_or_is_rejected_through_the_cli(document, command):
    argv = [command, "--config", json.dumps(document)]
    if command != "limit":
        argv += ["--rounds", "40"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 3), stderr.getvalue()
    assert "internal error" not in stderr.getvalue()
    if code == 0:
        json.loads(stdout.getvalue())


# A signal, so that the scores are not all ties, in a geometry where the
# hypotheses' residuals differ in length, so that count * |r_h|^2 / 2 counts.
SKEWED_SITES = GEOM.sites + [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, -0.03, 0.0]]
SESSION_SWEEP_BASE = replace(
    SWEEP_BASE,
    geometry=Geometry(SKEWED_SITES, GEOM.probes),
    nonlinear=replace(SWEEP_BASE.nonlinear, b=0.05),
)

SESSION_SWEEP_GRIDS = {
    "b": st.lists(UNIT, min_size=1, max_size=3),
    "sigma": st.lists(st.floats(-30.0, -10.0).map(lambda e: 10.0**e), min_size=1, max_size=3),
    "strategy": st.lists(MODES, min_size=1, max_size=3),
    "attackFraction": st.lists(UNIT, min_size=1, max_size=2),
    "samples": st.lists(st.integers(1, 4), min_size=1, max_size=2),
    "tau": st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=2),
    "lambda": st.lists(st.floats(0.0, 30.0), min_size=1, max_size=2),
}


@st.composite
def session_sweep_grids(draw):
    names = draw(
        st.lists(st.sampled_from(sorted(SESSION_SWEEP_GRIDS)), min_size=1, max_size=4, unique=True)
    )
    return tuple((name, draw(SESSION_SWEEP_GRIDS[name])) for name in names)


# Rounds per point below, at and above the engine's 4096-round chunks, so
# that a chunk holds several sessions, one session, or parts of two.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    grids=session_sweep_grids(),
    rounds=st.sampled_from([300, 37, 1, 4096, 4200]),
    seed_base=st.integers(0, 2**32),
)
@example(
    grids=(
        ("samples", [1, 3]),
        ("tau", [0.6, 0.95]),
        ("lambda", [0.0, 20.0]),
        ("strategy", ["Threshold", "CloneInferred", "ResendMeasured"]),
        ("attackFraction", [0.5, 1.0]),
    ),
    rounds=37,
    seed_base=9,
)
def test_sweep_rows_equal_lone_sessions(grids, rounds, seed_base):
    spec = SweepSpec(grids, rounds_per_point=rounds, seed_base=seed_base)
    rows = sweep(spec, SESSION_SWEEP_BASE)
    assert len(rows) == math.prod(len(values) for _, values in spec.grids)
    for k, row in enumerate(rows):
        point = {name: row[name] for name in spec.parameter_names}
        config = SESSION_SWEEP_BASE.with_overrides(point)
        stats, _ = run_session(
            rounds, config.to_eve_config(), seed=seed_base + k, with_records=False
        )
        assert row == {**point, **stats.to_dict()}
