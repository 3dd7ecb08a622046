"""The public API: every exported name resolves, once, removed names stay gone,
and every entry point checks its values by the same rule."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import gravsim
import gravsim.cli
import gravsim.errors
import gravsim.protocol
import gravsim.qubits
from gravsim import (
    EveConfig,
    EveSettings,
    EveStrategy,
    ExclusionExperiment,
    Geometry,
    LimitSettings,
    NonlinearParams,
    SensorModel,
    SweepSpec,
    ValidationError,
    binary_entropy,
    cloning_fidelity,
    config_field,
    exclusion_limit,
    general_field,
    infer_alice_state,
    key_rate,
    load_config,
    min_detectable_b,
    monte_carlo_accuracy,
    prepare,
    run_session,
    signal_to_noise,
)

REMOVED = (
    "QubitState",
    "BranchWeights",
    "state_overlap",
    "outcome_distribution",
    "RoundRecord",
    "eve_information",
    "UndefinedStatisticError",
)
# private helpers of the per-round record objects the columnar transcript replaced
REMOVED_PRIVATE = ("_record_row", "_rows", "_eve_guess_category")
MODULES = (gravsim.qubits, gravsim.protocol, gravsim.errors, gravsim.cli)


def test_every_exported_name_resolves_and_is_unique():
    assert len(gravsim.__all__) == len(set(gravsim.__all__))
    for name in gravsim.__all__:
        assert getattr(gravsim, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in gravsim.__all__
        assert not hasattr(gravsim, name)
        for module in MODULES:
            assert not hasattr(module, name), (module.__name__, name)
    for name in REMOVED_PRIVATE:
        for module in MODULES:
            assert not hasattr(module, name), (module.__name__, name)


BASE = load_config("default.json")
GEOM = BASE.geometry
SENSOR = SensorModel(sigma=2.5e-12)
STRATEGY = EveStrategy("CloneInferred")
EXPERIMENT = ExclusionExperiment(SENSOR, GEOM, delta_t_schedule=(1.0,))


def eve_config(**fields):
    return EveConfig(GEOM, BASE.nonlinear, SENSOR, STRATEGY, **fields)


def spec(**fields):
    return SweepSpec(**{"grids": (("b", (0.0,)),), "rounds_per_point": 10, "seed_base": 0} | fields)


def rng():
    return np.random.default_rng(0)


NUMBER = (True, math.nan)  # a bool and a NaN, never numbers
FLAG = (1, math.nan, "no")  # only true or false is a flag
SYMBOL = (True, 1.0, 4, "Q0")  # a symbol is a Bb84Symbol, its label or its index 0 to 3

# Each validated type and entry point: the key path its message starts with,
# the call, one numpy scalar it accepts and values it rejects.
BOUNDARY = [
    ("Geometry.test_mass", "geometry.testMass",
     lambda v: Geometry(GEOM.sites, GEOM.probes, test_mass=v), np.float32(2.0), NUMBER),
    ("Geometry.grav_const", "geometry.gravConst",
     lambda v: Geometry(GEOM.sites, GEOM.probes, grav_const=v), np.float32(1e-10), NUMBER),
    ("NonlinearParams.b", "nonlinear.b", lambda v: NonlinearParams(b=v), np.float32(0.25), NUMBER),
    ("NonlinearParams.lam", "nonlinear.lambda",
     lambda v: NonlinearParams(b=0.1, lam=v), np.int64(2), NUMBER),
    ("NonlinearParams.delta_t", "nonlinear.deltaT",
     lambda v: NonlinearParams(b=0.1, delta_t=v), np.float16(0.5), NUMBER),
    ("SensorModel.sigma", "sensor.sigma",
     lambda v: SensorModel(sigma=v), np.float32(1e-12), NUMBER),
    ("SensorModel.samples", "sensor.samples",
     lambda v: SensorModel(sigma=1e-12, samples=v), np.int64(3), NUMBER + (2.0,)),
    ("EveStrategy.tau", "eve.tau",
     lambda v: EveStrategy("Threshold", tau=v), np.float32(0.5), NUMBER),
    ("EveConfig.attack_fraction", "eve.attackFraction",
     lambda v: eve_config(attack_fraction=v), np.float32(0.5), NUMBER),
    ("EveConfig.born_factor", "eve.bornFactor",
     lambda v: eve_config(born_factor=v), np.bool_(False), FLAG),
    ("EveSettings.attack_fraction", "eve.attackFraction",
     lambda v: EveSettings(attack_fraction=v), np.float32(0.5), NUMBER),
    ("EveSettings.enabled", "eve.enabled", lambda v: EveSettings(enabled=v), np.bool_(False), FLAG),
    ("EveSettings.born_factor", "eve.bornFactor",
     lambda v: EveSettings(born_factor=v), np.bool_(False), FLAG),
    ("LimitSettings.lambda_grid", "limit.lambdaGrid[1]",
     lambda v: LimitSettings(lambda_grid=[0.0, v]), np.float32(1.5), NUMBER),
    ("LimitSettings.delta_t_schedule", "limit.deltaTSchedule[0]",
     lambda v: LimitSettings(lambda_grid=[0.0], delta_t_schedule=[v]), np.int64(2), NUMBER),
    ("LimitSettings.confidence", "limit.confidence",
     lambda v: LimitSettings(lambda_grid=[0.0], confidence=v), np.float32(0.9), NUMBER),
    ("LimitSettings.null_observation", "limit.nullObservation",
     lambda v: LimitSettings(lambda_grid=[0.0], null_observation=v), np.bool_(True), FLAG),
    ("RunConfig.rounds", "session.rounds", lambda v: replace(BASE, rounds=v), np.int64(10), NUMBER),
    ("RunConfig.seed", "session.seed", lambda v: replace(BASE, seed=v), np.uint32(3), NUMBER),
    ("with_overrides.b", "nonlinear.b",
     lambda v: BASE.with_overrides({"b": v}), np.float32(0.25), NUMBER + ("x",)),
    ("with_overrides.lambda", "nonlinear.lambda",
     lambda v: BASE.with_overrides({"lambda": v}), np.int64(2), NUMBER),
    ("with_overrides.deltaT", "nonlinear.deltaT",
     lambda v: BASE.with_overrides({"deltaT": v}), np.float32(0.5), NUMBER),
    ("with_overrides.sigma", "sensor.sigma",
     lambda v: BASE.with_overrides({"sigma": v}), np.float32(1e-12), NUMBER + ("1e-12",)),
    ("with_overrides.samples", "sensor.samples",
     lambda v: BASE.with_overrides({"samples": v}), np.int64(2), NUMBER),
    ("with_overrides.tau", "eve.tau",
     lambda v: BASE.with_overrides({"tau": v}), np.float32(0.5), NUMBER),
    ("with_overrides.attackFraction", "eve.attackFraction",
     lambda v: BASE.with_overrides({"attackFraction": v}), np.float32(0.5), NUMBER),
    ("SweepSpec.grids", "sweep.grids",
     lambda v: spec(grids=(("b", (v,)),)), np.float32(0.25), NUMBER),
    ("SweepSpec.rounds_per_point", "sweep.roundsPerPoint",
     lambda v: spec(rounds_per_point=v), np.int64(10), NUMBER),
    ("SweepSpec.seed_base", "sweep.seedBase", lambda v: spec(seed_base=v), np.int64(0), NUMBER),
    ("ExclusionExperiment.delta_t_schedule", "limit.deltaTSchedule[0]",
     lambda v: ExclusionExperiment(SENSOR, GEOM, delta_t_schedule=[v]), np.float32(1.0), NUMBER),
    ("ExclusionExperiment.null_observation", "limit.nullObservation",
     lambda v: ExclusionExperiment(SENSOR, GEOM, (1.0,), null_observation=v), np.bool_(True), FLAG),
    ("exclusion_limit.lambda_grid", "limit.lambdaGrid[0]",
     lambda v: exclusion_limit(EXPERIMENT, [v]), np.float32(0.5), NUMBER + ("x",)),
    ("exclusion_limit.confidence", "limit.confidence",
     lambda v: exclusion_limit(EXPERIMENT, [0.0], v), np.float32(0.9), NUMBER),
    ("min_detectable_b.target_accuracy", "min_detectable_b.targetAccuracy",
     lambda v: min_detectable_b(0.0, 0.0, SENSOR, GEOM, v), np.float32(0.8), NUMBER),
    ("min_detectable_b.tolerance", "min_detectable_b.tolerance",
     lambda v: min_detectable_b(0.0, 0.0, SENSOR, GEOM, 0.8, tolerance=v),
     np.float32(0.01), NUMBER + (math.inf,)),
    ("min_detectable_b.mc_rounds", "min_detectable_b.mc_rounds",
     lambda v: min_detectable_b(0.0, 0.0, SENSOR, GEOM, 0.8, tolerance=0.1, mc_rounds=v),
     np.int64(20), NUMBER),
    ("min_detectable_b.seed", "min_detectable_b.seed",
     lambda v: min_detectable_b(0.0, 0.0, SENSOR, GEOM, 0.8, tolerance=0.1, mc_rounds=20, seed=v),
     np.int64(3), NUMBER),
    ("monte_carlo_accuracy.n_trials", "monte_carlo_accuracy.n_trials",
     lambda v: monte_carlo_accuracy(BASE.nonlinear, GEOM, SENSOR, v, rng()), np.int64(10), NUMBER),
    ("cloning_fidelity.n_trials", "cloning_fidelity.n_trials",
     lambda v: cloning_fidelity(STRATEGY, BASE.nonlinear, GEOM, SENSOR, v, rng()),
     np.int64(10), NUMBER),
    ("cloning_fidelity.born_factor", "eve.bornFactor",
     lambda v: cloning_fidelity(STRATEGY, BASE.nonlinear, GEOM, SENSOR, 10, rng(), v),
     np.bool_(False), FLAG),
    ("key_rate.qber", "key_rate.qber", lambda v: key_rate(v, 0.0), np.float32(0.1), NUMBER),
    ("key_rate.eve_info", "key_rate.eveInfo", lambda v: key_rate(0.0, v), np.float32(0.5), NUMBER),
    ("binary_entropy.p", "binary_entropy.p", lambda v: binary_entropy(v), np.float32(0.25), NUMBER),
    ("run_session.n_rounds", "session.rounds",
     lambda v: run_session(v, seed=0), np.int64(5), NUMBER),
    ("run_session.seed", "session.seed", lambda v: run_session(5, seed=v), np.uint32(3), NUMBER),
    ("signal_to_noise.b", "nonlinear.b",
     lambda v: signal_to_noise(v, 0.0, 0.0, SENSOR, GEOM), np.float32(0.25), NUMBER + ("x",)),
    ("signal_to_noise.lam", "nonlinear.lambda",
     lambda v: signal_to_noise(0.1, v, 1.0, SENSOR, GEOM), np.int64(2), NUMBER + (-1,)),
    ("signal_to_noise.delta_t", "nonlinear.deltaT",
     lambda v: signal_to_noise(0.1, 1.0, v, SENSOR, GEOM), np.float32(0.5), NUMBER + (-1,)),
    ("signal_to_noise.preparation", "limit.preparation",
     lambda v: signal_to_noise(0.1, 0.0, 0.0, SENSOR, GEOM, v), np.int64(1), SYMBOL),
    ("ExclusionExperiment.preparation", "limit.preparation",
     lambda v: ExclusionExperiment(SENSOR, GEOM, (1.0,), preparation=v), np.int64(1), SYMBOL),
    ("LimitSettings.preparation", "limit.preparation",
     lambda v: LimitSettings(lambda_grid=[0.0], preparation=v), np.int64(1), SYMBOL),
    ("prepare", "prepare", lambda v: prepare(v), np.int64(1), SYMBOL),
    ("Geometry.site_position", "site_position", lambda v: GEOM.site_position(v), np.int64(1), SYMBOL),
    ("config_field", "config_field", lambda v: config_field(v, GEOM), np.int64(1), SYMBOL),
    ("general_field.prepared", "general_field",
     lambda v: general_field(0, v, NonlinearParams(), GEOM), np.int64(1), SYMBOL),
    ("infer_alice_state.eve_outcome", "infer_alice_state",
     lambda v: infer_alice_state(np.zeros(GEOM.field_dim), v, GEOM, BASE.nonlinear, SENSOR, rng()),
     np.int64(1), SYMBOL),
]


@pytest.mark.parametrize(
    "path, call, accepted, rejected",
    [row[1:] for row in BOUNDARY],
    ids=[row[0] for row in BOUNDARY],
)
def test_every_entry_point_checks_its_values_by_one_rule(path, call, accepted, rejected):
    call(accepted)
    for value in rejected:
        with pytest.raises(ValidationError, match=rf"^{re.escape(path)}: "):
            call(value)


SYMBOL_ROWS = [row for row in BOUNDARY if row[4] is SYMBOL]


@pytest.mark.parametrize("call", [row[2] for row in SYMBOL_ROWS], ids=[row[0] for row in SYMBOL_ROWS])
def test_every_symbol_entry_point_takes_a_label(call):
    call("Z1")
