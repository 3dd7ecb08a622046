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
    EveStrategy,
    SensorModel,
    StrategyMode,
    analytic_accuracy,
    cloning_fidelity,
    infer_alice_state,
    monte_carlo_accuracy,
)
from .config import (
    SWEEP_PARAMETERS,
    EveSettings,
    LimitSettings,
    RunConfig,
    SweepSpec,
    config_from_dict,
    load_config,
    parse_config,
    serialize_config,
)
from .errors import GeometryError, GravsimError, ValidationError
from .gravity import Geometry, NonlinearParams, decay_factor
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
    branch_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ABORT_QBER",
    "AccuracyEstimate",
    "Basis",
    "Bb84Symbol",
    "EveConfig",
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
    "binary_entropy",
    "branch_weights",
    "cloning_fidelity",
    "config_from_dict",
    "decay_factor",
    "exclusion_limit",
    "infer_alice_state",
    "key_rate",
    "load_config",
    "min_detectable_b",
    "monte_carlo_accuracy",
    "parse_config",
    "run_session",
    "serialize_config",
    "signal_to_noise",
    "sweep",
]
