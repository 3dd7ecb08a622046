"""JSON configuration parsing and serialization.

A configuration is a single JSON document with nested sections (geometry,
nonlinear, sensor, eve, session, and optionally sweep and limit). One
table, _KEYS, names every key of every section and the field it sets; the
parser, the serializer, RunConfig.with_overrides and SweepSpec all read
it. The parser checks the document's structure and rejects unknown keys;
each value goes as read to the type it configures, which checks it, and an
omitted key takes the default of its field. Every validation message
carries the offending key path, for example "nonlinear.b". Seeds are
mandatory: nothing in the package ever falls back to wall-clock entropy.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .attack import DEFAULT_SIGMA  # noqa: F401 (re-exported)
from .attack import EveConfig, EveStrategy, SensorModel, StrategyMode, _attack_fraction
from .errors import ValidationError, check_flag, check_integer, check_number, check_numbers, is_list
from .gravity import Geometry, NonlinearParams
from .qubits import _LABELS, Bb84Symbol, as_symbol

DEFAULT_ROUNDS = 10000


def _check_string(value, path: str) -> str:
    """value, checked to be a str."""
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {value!r}")
    return value


# Every key of a configuration document, in document order: the section
# that holds it, the field it sets there and, for a sweep parameter, the
# check of a grid value's type. A section is a RunConfig field, where
# "eve.strategy" is the EveStrategy within eve and "session" is RunConfig
# itself.
_KEYS = {
    "sites": ("geometry", "sites", None),
    "probes": ("geometry", "probes", None),
    "testMass": ("geometry", "test_mass", None),
    "gravConst": ("geometry", "grav_const", None),
    "b": ("nonlinear", "b", check_number),
    "lambda": ("nonlinear", "lam", check_number),
    "deltaT": ("nonlinear", "delta_t", check_number),
    "sigma": ("sensor", "sigma", check_number),
    "samples": ("sensor", "samples", check_integer),
    "enabled": ("eve", "enabled", None),
    "strategy": ("eve.strategy", "mode", _check_string),
    "tau": ("eve.strategy", "tau", check_number),
    "attackFraction": ("eve", "attack_fraction", check_number),
    "bornFactor": ("eve", "born_factor", None),
    "rounds": ("session", "rounds", None),
    "seed": ("session", "seed", None),
    "grids": ("sweep", "grids", None),
    "roundsPerPoint": ("sweep", "rounds_per_point", None),
    "seedBase": ("sweep", "seed_base", None),
    "lambdaGrid": ("limit", "lambda_grid", None),
    "deltaTSchedule": ("limit", "delta_t_schedule", None),
    "confidence": ("limit", "confidence", None),
    "preparation": ("limit", "preparation", None),
    "nullObservation": ("limit", "null_observation", None),
}

# The rows of _KEYS by the document section that holds their keys, in
# document order: the keys of "eve.strategy" sit in the eve section.
_SECTIONS = {
    name: {key: row for key, row in _KEYS.items() if row[0].partition(".")[0] == name}
    for name in dict.fromkeys(section.partition(".")[0] for section, _, _ in _KEYS.values())
}

SWEEP_PARAMETERS = tuple(key for key, (_, _, check) in _KEYS.items() if check is not None)

_GRID_TYPES = {
    check_number: "a finite number",
    check_integer: "an integer",
    _check_string: "a string",
}


def _check_grid_value(name: str, value) -> None:
    """Reject a grid value of a type its config field does not take.

    The field's check decides, without its range: the value's range is
    checked when its point's configuration is built.
    """
    check = _KEYS[name][2]
    try:
        check(value, name)
    except ValidationError:
        raise ValidationError(
            f"sweep.grids: expected {_GRID_TYPES[check]} for {name!r}, got {value!r}"
        ) from None


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
        if not is_list(self.grids) or len(self.grids) == 0:
            raise ValidationError(
                f"sweep.grids: expected at least one [name, values] pair, got {self.grids!r}"
            )
        grids = {}
        for k, entry in enumerate(self.grids):
            path = f"sweep.grids[{k}]"
            if not (is_list(entry) and len(entry) == 2 and isinstance(entry[0], str)):
                raise ValidationError(f"{path}: expected a [name, values] pair, got {entry!r}")
            name, values = entry
            if name not in SWEEP_PARAMETERS:
                raise ValidationError(
                    f"{path}: unknown parameter {name!r}; expected one of {list(SWEEP_PARAMETERS)}"
                )
            if name in grids:
                raise ValidationError(f"{path}: parameter {name!r} appears twice")
            if not is_list(values):
                raise ValidationError(
                    f"sweep.grids: values for {name!r} must be a list, got {values!r}"
                )
            if len(values) == 0:
                raise ValidationError(f"{path}: grid for {name!r} is empty")
            for value in values:
                _check_grid_value(name, value)
            grids[name] = tuple(values)
        rounds = check_integer(self.rounds_per_point, "sweep.roundsPerPoint", minimum=1)
        seed_base = check_integer(self.seed_base, "sweep.seedBase", minimum=0)
        object.__setattr__(self, "grids", tuple(grids.items()))
        object.__setattr__(self, "rounds_per_point", rounds)
        object.__setattr__(self, "seed_base", seed_base)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.grids)


@dataclass(frozen=True)
class EveSettings:
    """Eavesdropper switches parsed from the `eve` config section."""

    enabled: bool = True
    strategy: EveStrategy = EveStrategy()
    attack_fraction: float = 1.0
    born_factor: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "attack_fraction", _attack_fraction(self.attack_fraction))
        object.__setattr__(self, "enabled", check_flag(self.enabled, "eve.enabled"))
        object.__setattr__(self, "born_factor", check_flag(self.born_factor, "eve.bornFactor"))


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
class LimitSettings:
    """Exclusion-scan settings parsed from the `limit` config section."""

    lambda_grid: tuple[float, ...]
    delta_t_schedule: tuple[float, ...] = (1.0,)
    confidence: float = 0.95
    preparation: Bb84Symbol = Bb84Symbol.Z1
    null_observation: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_grid", _lambda_grid(self.lambda_grid))
        object.__setattr__(self, "delta_t_schedule", _delay_schedule(self.delta_t_schedule))
        object.__setattr__(self, "confidence", _confidence(self.confidence))
        object.__setattr__(self, "preparation", as_symbol(self.preparation, "limit.preparation"))
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

    def _owner(self, key: str):
        """The object whose field configuration key `key` sets; None when its section is absent."""
        owner = self
        for name in _KEYS[key][0].split("."):
            owner = owner if name == "session" else getattr(owner, name)
        return owner

    def _setting(self, key: str):
        """The value that configuration key `key` sets, or None when its section is absent."""
        owner = self._owner(key)
        return None if owner is None else getattr(owner, _KEYS[key][1])

    def with_overrides(self, overrides: dict) -> "RunConfig":
        """A copy with sweep parameters applied; keys come from SWEEP_PARAMETERS.

        Values go to their configuration types as given, which check them.
        """
        sections: dict[str, dict] = {}
        for name, value in overrides.items():
            if name not in SWEEP_PARAMETERS:
                raise ValidationError(f"sweep parameter {name!r} is not supported")
            section, field, _ = _KEYS[name]
            sections.setdefault(section, {})[field] = value
        if "eve.strategy" in sections:
            strategy = replace(self.eve.strategy, **sections.pop("eve.strategy"))
            sections.setdefault("eve", {})["strategy"] = strategy
        changed = {name: replace(getattr(self, name), **values) for name, values in sections.items()}
        return replace(self, **changed)


def _as_object(value, path: str, keys) -> dict:
    """value as a JSON object whose keys all come from keys; path "" is the document."""
    if not isinstance(value, dict):
        raise ValidationError(f"{path or 'config'}: expected an object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValidationError(f"{path}{'.' if path else ''}{key}: unknown key")
    return value


def _read_sites(value, path: str) -> list:
    """The sites object of a geometry section as one row per symbol, in symbol order."""
    sites = _as_object(value, path, _LABELS)
    missing = [label for label in _LABELS if label not in sites]
    if missing:
        raise ValidationError(f"{path}: missing site(s) {missing}")
    return [sites[label] for label in _LABELS]


# The keys whose JSON form is not their field's value: how each is read and written.
_CODECS = {"sites": (_read_sites, lambda sites: dict(zip(_LABELS, sites.tolist())))}


def _section(document: dict, name: str, cls):
    """cls built from section `name` of document.

    Each key the section holds sets its field, read by its _CODECS entry if
    it has one, and the keys of eve.strategy set an EveStrategy. An omitted
    key leaves its field to its default, and is required where the field
    has none.
    """
    keys = _SECTIONS[name]
    values = _as_object(document.get(name, {}), name, keys)
    required = {field.name for field in fields(cls) if field.default is MISSING}
    settings, strategy = {}, {}
    for key, (section, field, _) in keys.items():
        if key in values:
            value = values[key]
            if key in _CODECS:
                value = _CODECS[key][0](value, f"{name}.{key}")
            (strategy if section == "eve.strategy" else settings)[field] = value
        elif field in required:
            raise ValidationError(f"{name}.{key}: required")
    if strategy:
        settings["strategy"] = EveStrategy(**strategy)
    return cls(**settings)


def config_from_dict(
    document: dict,
    rounds_override: int | None = None,
    seed_override: int | None = None,
) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    document = _as_object(document, "", _SECTIONS)
    geometry = _section(document, "geometry", Geometry)
    nonlinear = _section(document, "nonlinear", NonlinearParams)
    sensor = _section(document, "sensor", SensorModel)
    eve = _section(document, "eve", EveSettings)
    session = _as_object(document.get("session", {}), "session", _SECTIONS["session"])
    rounds = rounds_override if rounds_override is not None else session.get("rounds", DEFAULT_ROUNDS)
    seed = seed_override if seed_override is not None else session.get("seed")
    if seed is None:
        raise ValidationError(
            "session.seed: required; explicit seeds keep every run reproducible"
        )
    return RunConfig(
        geometry=geometry,
        nonlinear=nonlinear,
        sensor=sensor,
        eve=eve,
        rounds=rounds,
        seed=seed,
        sweep=_section(document, "sweep", SweepSpec) if "sweep" in document else None,
        limit=_section(document, "limit", LimitSettings) if "limit" in document else None,
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
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(document, rounds_override, seed_override)


def load_config(source: str, rounds: int | None = None, seed: int | None = None) -> RunConfig:
    """Resolve a --config value: inline JSON or a file, as parse_config reads them, else a bundle.

    A name that is no existing path and holds no path separator is looked
    up among the bundled configs, so a local path, even an unreadable one,
    shadows a bundle of the same name. Optional rounds/seed values override
    the session section before validation.
    """
    try:
        return parse_config(source, rounds, seed)
    except ValidationError as exc:
        if not isinstance(exc.__cause__, OSError) or Path(source).exists():
            raise
    name = str(source)
    bundle = resources.files("gravsim").joinpath("configs", name)
    if "/" in name or "\\" in name or not bundle.is_file():
        raise ValidationError(f"config: no such file or bundled config: {source}")
    try:
        return parse_config(bundle.read_text(encoding="utf-8"), rounds, seed)
    except ValidationError as exc:
        raise ValidationError(f"bundled config {source}: {exc}") from None


def _to_json(value):
    """A field value as JSON: a symbol by label, a strategy by name, a tuple or array as a list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Bb84Symbol):
        return value.label
    if isinstance(value, StrategyMode):
        return value.value
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def serialize_config(config: RunConfig) -> dict:
    """JSON-ready mapping that parses back to an equivalent RunConfig."""
    document: dict = {}
    for key, (section, _, _) in _KEYS.items():
        value = config._setting(key)
        if value is not None:
            value = _CODECS[key][1](value) if key in _CODECS else _to_json(value)
            document.setdefault(section.partition(".")[0], {})[key] = value
    return document
