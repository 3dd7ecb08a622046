"""Simulator for gravitational side-channel attacks on BB84 key exchange.

A hypothetical nonlinear gravitational coupling lets different branches of a
spatial superposition source distinguishable fields. This package models an
eavesdropper who splits each flying qubit, measures one arm, parks a test
mass at the measured site, and reads the resulting field with a noisy
sensor. It quantifies how much key material leaks as a function of the
coupling strength b and the decoherence-style suppression rate lambda, and
turns null sensing experiments into exclusion limits on (b, lambda).

Everything is deterministic given the configured seeds.
"""

from .analysis import (
    STAT_COLUMNS,
    ExclusionExperiment,
    LimitResult,
    exclusion_limit,
    min_detectable_b,
    signal_to_noise,
    sweep,
)
from .attack import (
    AccuracyEstimate,
    EveConfig,
    EveRecord,
    EveStrategy,
    SensorModel,
    StrategyMode,
    analytic_accuracy,
    attack_round,
    cloning_fidelity,
    hypothesis_residuals,
    infer_alice_state,
    monte_carlo_accuracy,
    sense,
)
from .config import (
    SWEEP_PARAMETERS,
    EveSettings,
    LimitSettings,
    RunConfig,
    SweepSpec,
    config_from_dict,
    default_geometry,
    load_config,
    parse_config,
    serialize_config,
)
from .errors import GeometryError, GravsimError, ValidationError
from .gravity import (
    Geometry,
    NonlinearParams,
    config_field,
    decay_factor,
    general_field,
    mix_field,
    point_mass_field,
)
from .protocol import (
    ABORT_QBER,
    SessionStats,
    binary_entropy,
    key_rate,
    run_session,
)
from .qubits import (
    SYMBOLS,
    Basis,
    Bb84Symbol,
    bob_measure,
    branch_weights,
    eve_dual_basis_measure,
    prepare,
)

__version__ = "0.1.0"

__all__ = [
    "ABORT_QBER",
    "AccuracyEstimate",
    "Basis",
    "Bb84Symbol",
    "EveConfig",
    "EveRecord",
    "EveSettings",
    "EveStrategy",
    "ExclusionExperiment",
    "Geometry",
    "GeometryError",
    "GravsimError",
    "LimitResult",
    "LimitSettings",
    "NonlinearParams",
    "RunConfig",
    "STAT_COLUMNS",
    "SWEEP_PARAMETERS",
    "SensorModel",
    "SessionStats",
    "StrategyMode",
    "SweepSpec",
    "SYMBOLS",
    "ValidationError",
    "analytic_accuracy",
    "attack_round",
    "binary_entropy",
    "bob_measure",
    "branch_weights",
    "cloning_fidelity",
    "config_field",
    "config_from_dict",
    "decay_factor",
    "default_geometry",
    "eve_dual_basis_measure",
    "exclusion_limit",
    "general_field",
    "hypothesis_residuals",
    "infer_alice_state",
    "key_rate",
    "load_config",
    "min_detectable_b",
    "mix_field",
    "monte_carlo_accuracy",
    "parse_config",
    "point_mass_field",
    "prepare",
    "run_session",
    "sense",
    "serialize_config",
    "signal_to_noise",
    "sweep",
]
