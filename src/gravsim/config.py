"""JSON configuration parsing and serialization.

A configuration is a single JSON document with nested sections (geometry,
nonlinear, sensor, eve, session, and optionally sweep and limit). The
parser checks the document's structure and rejects unknown keys; each
value goes as read to the type it configures, which checks it. Every
validation message carries the offending key path, for example
"nonlinear.b". Seeds are mandatory: nothing in the package ever falls back
to wall-clock entropy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import _SWEEP_FIELDS, SweepSpec, _confidence, _delay_schedule, _lambda_grid
from .attack import EveStrategy, SensorModel, StrategyMode
from .errors import ValidationError, check_flag, check_integer, check_numbers
from .gravity import NEWTON_G, Geometry, NonlinearParams
from .protocol import EveConfig, _attack_fraction
from .qubits import SYMBOLS, Bb84Symbol

DEFAULT_SIGMA = 2.5e-12
DEFAULT_SAMPLES = 1
DEFAULT_ROUNDS = 10000
DEFAULT_TAU = 0.9
DEFAULT_ATTACK_FRACTION = 1.0
DEFAULT_CONFIDENCE = 0.95

_HALF_DIAG = 0.3535533905932738  # 0.5 * cos(pi/4)

_DEFAULT_SITES = (
    (0.1, 0.1, 0.0),
    (0.1, -0.1, 0.0),
    (-0.1, 0.1, 0.0),
    (-0.1, -0.1, 0.0),
)
_DEFAULT_PROBES = (
    (0.5, 0.0, 0.0),
    (_HALF_DIAG, _HALF_DIAG, 0.0),
    (0.0, 0.5, 0.0),
    (-_HALF_DIAG, _HALF_DIAG, 0.0),
    (-0.5, 0.0, 0.0),
    (-_HALF_DIAG, -_HALF_DIAG, 0.0),
    (0.0, -0.5, 0.0),
    (_HALF_DIAG, -_HALF_DIAG, 0.0),
)


def default_geometry() -> Geometry:
    """Four mass sites on the corners of a 0.2 m square, eight probes on a 0.5 m ring."""
    return Geometry(
        sites=np.array(_DEFAULT_SITES),
        probes=np.array(_DEFAULT_PROBES),
        test_mass=1.0,
        grav_const=NEWTON_G,
    )


@dataclass(frozen=True)
class EveSettings:
    """Eavesdropper switches parsed from the `eve` config section."""

    enabled: bool = True
    strategy: EveStrategy = EveStrategy(StrategyMode.CLONE_INFERRED, DEFAULT_TAU)
    attack_fraction: float = DEFAULT_ATTACK_FRACTION
    born_factor: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "attack_fraction", _attack_fraction(self.attack_fraction))
        object.__setattr__(self, "enabled", check_flag(self.enabled, "eve.enabled"))
        object.__setattr__(self, "born_factor", check_flag(self.born_factor, "eve.bornFactor"))


@dataclass(frozen=True)
class LimitSettings:
    """Exclusion-scan settings parsed from the `limit` config section."""

    lambda_grid: tuple[float, ...]
    delta_t_schedule: tuple[float, ...] = (1.0,)
    confidence: float = DEFAULT_CONFIDENCE
    preparation: Bb84Symbol = Bb84Symbol.Z1
    null_observation: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_grid", _lambda_grid(self.lambda_grid))
        object.__setattr__(self, "delta_t_schedule", _delay_schedule(self.delta_t_schedule))
        object.__setattr__(self, "confidence", _confidence(self.confidence))
        object.__setattr__(
            self, "null_observation", check_flag(self.null_observation, "limit.nullObservation")
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated top-level configuration document."""

    geometry: Geometry
    nonlinear: NonlinearParams
    sensor: SensorModel
    eve: EveSettings
    rounds: int
    seed: int
    sweep: SweepSpec | None = None
    limit: LimitSettings | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", check_integer(self.rounds, "session.rounds", minimum=1))
        object.__setattr__(self, "seed", check_integer(self.seed, "session.seed", minimum=0))

    def to_eve_config(self) -> EveConfig | None:
        """The session-facing Eve configuration, or None when Eve is disabled."""
        if not self.eve.enabled:
            return None
        return EveConfig(
            geometry=self.geometry,
            params=self.nonlinear,
            sensor=self.sensor,
            strategy=self.eve.strategy,
            attack_fraction=self.eve.attack_fraction,
            born_factor=self.eve.born_factor,
        )

    def with_overrides(self, overrides: dict) -> "RunConfig":
        """A copy with sweep parameters applied; keys come from SWEEP_PARAMETERS.

        Values go to their configuration types as given, which check them.
        """
        sections: dict[str, dict] = {}
        for name, value in overrides.items():
            if name not in _SWEEP_FIELDS:
                raise ValidationError(f"sweep parameter {name!r} is not supported")
            section, field, _ = _SWEEP_FIELDS[name]
            sections.setdefault(section, {})[field] = value
        if "eve.strategy" in sections:
            strategy = replace(self.eve.strategy, **sections.pop("eve.strategy"))
            sections.setdefault("eve", {})["strategy"] = strategy
        changed = {name: replace(getattr(self, name), **fields) for name, fields in sections.items()}
        return replace(self, **changed)


def _as_object(value, path: str, keys: tuple[str, ...]) -> dict:
    """value as a JSON object whose keys all come from keys; path "" is the document."""
    if not isinstance(value, dict):
        raise ValidationError(f"{path or 'config'}: expected an object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValidationError(f"{path}{'.' if path else ''}{key}: unknown key")
    return value


def _as_vec3(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != 3:
        raise ValidationError(f"{path}: expected a 3-vector, got {value!r}")
    return check_numbers(value, path)


def _parse_geometry(section) -> Geometry:
    section = _as_object(section, "geometry", ("sites", "probes", "testMass", "gravConst"))
    labels = tuple(s.label for s in SYMBOLS)
    sites_obj = _as_object(section.get("sites", {}), "geometry.sites", labels)
    missing = [label for label in labels if label not in sites_obj]
    if missing:
        raise ValidationError(f"geometry.sites: missing site(s) {missing}")
    sites = [_as_vec3(sites_obj[label], f"geometry.sites.{label}") for label in labels]
    probes_list = section.get("probes")
    if not isinstance(probes_list, list) or not probes_list:
        raise ValidationError("geometry.probes: expected a non-empty list of 3-vectors")
    probes = [_as_vec3(p, f"geometry.probes[{k}]") for k, p in enumerate(probes_list)]
    return Geometry(
        sites=np.array(sites),
        probes=np.array(probes),
        test_mass=section.get("testMass", 1.0),
        grav_const=section.get("gravConst", NEWTON_G),
    )


def _parse_nonlinear(section) -> NonlinearParams:
    section = _as_object(section, "nonlinear", ("b", "lambda", "deltaT"))
    return NonlinearParams(
        b=section.get("b", 0.0),
        lam=section.get("lambda", 0.0),
        delta_t=section.get("deltaT", 0.0),
    )


def _parse_sensor(section) -> SensorModel:
    section = _as_object(section, "sensor", ("sigma", "samples"))
    return SensorModel(
        sigma=section.get("sigma", DEFAULT_SIGMA),
        samples=section.get("samples", DEFAULT_SAMPLES),
    )


def _parse_eve(section) -> EveSettings:
    keys = ("enabled", "strategy", "tau", "attackFraction", "bornFactor")
    section = _as_object(section, "eve", keys)
    strategy = EveStrategy(
        mode=section.get("strategy", StrategyMode.CLONE_INFERRED.value),
        tau=section.get("tau", DEFAULT_TAU),
    )
    return EveSettings(
        enabled=section.get("enabled", True),
        strategy=strategy,
        attack_fraction=section.get("attackFraction", DEFAULT_ATTACK_FRACTION),
        born_factor=section.get("bornFactor", True),
    )


def _parse_sweep(section) -> SweepSpec:
    section = _as_object(section, "sweep", ("grids", "roundsPerPoint", "seedBase"))
    grids_list = section.get("grids")
    if not isinstance(grids_list, list) or not grids_list:
        raise ValidationError("sweep.grids: expected a non-empty list of [name, values] pairs")
    grids = []
    for k, entry in enumerate(grids_list):
        if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[0], str):
            raise ValidationError(f"sweep.grids[{k}]: expected a [name, values] pair, got {entry!r}")
        name, values = entry
        if not isinstance(values, list) or not values:
            raise ValidationError(f"sweep.grids[{k}]: values for {name!r} must be a non-empty list")
        grids.append((name, tuple(values)))
    if "roundsPerPoint" not in section:
        raise ValidationError("sweep.roundsPerPoint: required")
    if "seedBase" not in section:
        raise ValidationError("sweep.seedBase: required")
    return SweepSpec(
        grids=tuple(grids),
        rounds_per_point=section["roundsPerPoint"],
        seed_base=section["seedBase"],
    )


def _parse_limit(section) -> LimitSettings:
    section = _as_object(
        section,
        "limit",
        ("lambdaGrid", "deltaTSchedule", "confidence", "preparation", "nullObservation"),
    )
    if "lambdaGrid" not in section:
        raise ValidationError("limit.lambdaGrid: required")
    preparation_label = section.get("preparation", Bb84Symbol.Z1.label)
    if not isinstance(preparation_label, str):
        raise ValidationError(f"limit.preparation: expected a symbol label, got {preparation_label!r}")
    try:
        preparation = Bb84Symbol.from_label(preparation_label)
    except ValidationError as exc:
        raise ValidationError(f"limit.preparation: {exc}") from None
    return LimitSettings(
        lambda_grid=section["lambdaGrid"],
        delta_t_schedule=section.get("deltaTSchedule", [1.0]),
        confidence=section.get("confidence", DEFAULT_CONFIDENCE),
        preparation=preparation,
        null_observation=section.get("nullObservation", True),
    )


def config_from_dict(
    document: dict,
    rounds_override: int | None = None,
    seed_override: int | None = None,
) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    document = _as_object(
        document, "", ("geometry", "nonlinear", "sensor", "eve", "session", "sweep", "limit")
    )
    geometry = (
        _parse_geometry(document["geometry"]) if "geometry" in document else default_geometry()
    )
    nonlinear = _parse_nonlinear(document.get("nonlinear", {}))
    sensor = _parse_sensor(document.get("sensor", {}))
    eve = _parse_eve(document.get("eve", {}))
    session = _as_object(document.get("session", {}), "session", ("rounds", "seed"))
    rounds = rounds_override if rounds_override is not None else session.get("rounds", DEFAULT_ROUNDS)
    seed = seed_override if seed_override is not None else session.get("seed")
    if seed is None:
        raise ValidationError(
            "session.seed: required; explicit seeds keep every run reproducible"
        )
    sweep_spec = _parse_sweep(document["sweep"]) if "sweep" in document else None
    limit_settings = _parse_limit(document["limit"]) if "limit" in document else None
    return RunConfig(
        geometry=geometry,
        nonlinear=nonlinear,
        sensor=sensor,
        eve=eve,
        rounds=rounds,
        seed=seed,
        sweep=sweep_spec,
        limit=limit_settings,
    )


def parse_config(
    source,
    rounds_override: int | None = None,
    seed_override: int | None = None,
) -> RunConfig:
    """Parse a JSON config from a file path or an inline JSON string.

    A string whose first non-space character is '{' is treated as inline
    JSON; anything else is a filesystem path. Errors carry the offending key
    path or, for malformed JSON, the line and column.
    """
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    else:
        text = str(source)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(document, rounds_override, seed_override)


def bundled_config_text(name: str) -> str | None:
    """The text of a bundled config file, or None if no such bundle exists."""
    if "/" in name or "\\" in name:
        return None
    candidate = resources.files("gravsim").joinpath("configs", name)
    if not candidate.is_file():
        return None
    return candidate.read_text(encoding="utf-8")


def load_config(
    source: str,
    rounds: int | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Resolve a --config value: a filesystem path first, then a bundled name.

    Inline JSON (a string starting with '{') is parsed directly. Optional
    rounds/seed values override the session section before validation.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        return parse_config(source, rounds, seed)
    if Path(source).is_file():
        return parse_config(Path(source), rounds, seed)
    bundled = bundled_config_text(str(source))
    if bundled is not None:
        try:
            return parse_config(bundled, rounds, seed)
        except ValidationError as exc:
            raise ValidationError(f"bundled config {source}: {exc}") from None
    raise ValidationError(f"config: no such file or bundled config: {source}")


def serialize_config(config: RunConfig) -> dict:
    """JSON-ready mapping that parses back to an equivalent RunConfig."""
    document = {
        "geometry": {
            "sites": {
                symbol.label: [float(x) for x in config.geometry.sites[symbol]]
                for symbol in SYMBOLS
            },
            "probes": [[float(x) for x in probe] for probe in config.geometry.probes],
            "testMass": config.geometry.test_mass,
            "gravConst": config.geometry.grav_const,
        },
        "nonlinear": {
            "b": config.nonlinear.b,
            "lambda": config.nonlinear.lam,
            "deltaT": config.nonlinear.delta_t,
        },
        "sensor": {"sigma": config.sensor.sigma, "samples": config.sensor.samples},
        "eve": {
            "enabled": config.eve.enabled,
            "strategy": config.eve.strategy.mode.value,
            "tau": config.eve.strategy.tau,
            "attackFraction": config.eve.attack_fraction,
            "bornFactor": config.eve.born_factor,
        },
        "session": {"rounds": config.rounds, "seed": config.seed},
    }
    if config.sweep is not None:
        document["sweep"] = {
            "grids": [[name, list(values)] for name, values in config.sweep.grids],
            "roundsPerPoint": config.sweep.rounds_per_point,
            "seedBase": config.sweep.seed_base,
        }
    if config.limit is not None:
        document["limit"] = {
            "lambdaGrid": list(config.limit.lambda_grid),
            "deltaTSchedule": list(config.limit.delta_t_schedule),
            "confidence": config.limit.confidence,
            "preparation": config.limit.preparation.label,
            "nullObservation": config.limit.null_observation,
        }
    return document
