"""Unit tests for JSON config parsing, overrides, and serialization."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gravsim import (
    SWEEP_PARAMETERS,
    Bb84Symbol,
    EveConfig,
    Geometry,
    StrategyMode,
    ValidationError,
    config_from_dict,
    load_config,
    parse_config,
    serialize_config,
)
from gravsim.config import DEFAULT_ROUNDS, DEFAULT_SIGMA
from gravsim.errors import check_number, check_numbers


def minimal(**extra) -> dict:
    document = {"session": {"seed": 5}}
    document.update(extra)
    return document


def test_bundled_default_config():
    cfg = load_config("default.json")
    assert cfg.rounds == 10000
    assert cfg.seed == 7
    assert cfg.nonlinear.b == 0.0
    assert cfg.nonlinear.lam == 0.0
    assert cfg.nonlinear.delta_t == 0.0
    assert cfg.sensor.sigma == DEFAULT_SIGMA
    assert cfg.sensor.samples == 1
    assert cfg.eve.enabled
    assert cfg.eve.strategy.mode is StrategyMode.CLONE_INFERRED
    assert cfg.eve.strategy.tau == 0.9
    assert cfg.eve.attack_fraction == 1.0
    assert cfg.eve.born_factor
    assert cfg.geometry.n_probes == 8
    assert cfg.geometry.field_dim == 24
    assert cfg.sweep is not None
    assert cfg.sweep.parameter_names == ("b",)
    assert cfg.sweep.rounds_per_point == 2000
    assert cfg.sweep.seed_base == 100
    assert cfg.limit is not None
    assert cfg.limit.lambda_grid == (0.0, 0.5, 1.0, 2.0, 5.0)
    assert cfg.limit.confidence == 0.95
    assert cfg.limit.preparation is Bb84Symbol.Z1
    assert cfg.limit.null_observation


def test_bundled_null_experiment_config():
    cfg = load_config("page_geilker.json")
    assert not cfg.eve.enabled
    assert cfg.to_eve_config() is None
    assert cfg.sensor.sigma == 4.964458866005237e-11
    assert cfg.limit is not None
    assert cfg.limit.lambda_grid[0] == 0.0


def test_minimal_inline_config_uses_defaults():
    cfg = load_config('{"session": {"seed": 5}}')
    assert cfg.seed == 5
    assert cfg.rounds == DEFAULT_ROUNDS
    assert cfg.sensor.sigma == DEFAULT_SIGMA
    assert cfg.eve.enabled
    assert cfg.sweep is None
    assert cfg.limit is None
    default = Geometry()
    assert np.array_equal(cfg.geometry.sites, default.sites)
    assert np.array_equal(cfg.geometry.probes, default.probes)


def test_to_eve_config_carries_every_knob():
    cfg = load_config("default.json")
    eve = cfg.to_eve_config()
    assert isinstance(eve, EveConfig)
    assert eve.geometry is cfg.geometry
    assert eve.params is cfg.nonlinear
    assert eve.sensor is cfg.sensor
    assert eve.strategy is cfg.eve.strategy
    assert eve.attack_fraction == cfg.eve.attack_fraction
    assert eve.born_factor == cfg.eve.born_factor


@pytest.mark.parametrize("name", ["default.json", "page_geilker.json"])
def test_serialize_round_trips(name):
    cfg = load_config(name)
    document = serialize_config(cfg)
    json.dumps(document)  # JSON-ready
    reparsed = config_from_dict(document)
    assert serialize_config(reparsed) == document
    assert reparsed.rounds == cfg.rounds
    assert reparsed.seed == cfg.seed
    assert reparsed.sensor == cfg.sensor
    assert reparsed.nonlinear == cfg.nonlinear
    assert reparsed.eve == cfg.eve
    assert reparsed.sweep == cfg.sweep
    assert reparsed.limit == cfg.limit
    assert np.array_equal(reparsed.geometry.sites, cfg.geometry.sites)
    assert np.array_equal(reparsed.geometry.probes, cfg.geometry.probes)


def test_unknown_keys_are_rejected_with_paths():
    with pytest.raises(ValidationError, match="bogus: unknown key"):
        config_from_dict(minimal(bogus=1))
    with pytest.raises(ValidationError, match="nonlinear.q: unknown key"):
        config_from_dict(minimal(nonlinear={"q": 1}))
    with pytest.raises(ValidationError, match="session.extra: unknown key"):
        config_from_dict({"session": {"seed": 5, "extra": 1}})
    with pytest.raises(ValidationError, match="geometry.sites.Z9: unknown key"):
        config_from_dict(minimal(geometry={"sites": {"Z9": [0, 0, 0]}, "probes": [[1, 0, 0]]}))


def test_value_errors_carry_key_paths():
    with pytest.raises(ValidationError, match="nonlinear.b"):
        config_from_dict(minimal(nonlinear={"b": 2.0}))
    with pytest.raises(ValidationError, match="nonlinear.b: expected a number"):
        config_from_dict(minimal(nonlinear={"b": "strong"}))
    with pytest.raises(ValidationError, match="sensor.samples: expected an integer"):
        config_from_dict(minimal(sensor={"samples": 1.5}))
    with pytest.raises(ValidationError, match="eve.enabled: expected true or false"):
        config_from_dict(minimal(eve={"enabled": "yes"}))
    with pytest.raises(ValidationError, match="eve.strategy: expected a string"):
        config_from_dict(minimal(eve={"strategy": 5}))
    with pytest.raises(ValidationError, match="session.rounds"):
        config_from_dict({"session": {"seed": 5, "rounds": 0}})


def test_an_integer_beyond_double_precision_is_not_finite():
    with pytest.raises(ValidationError, match="nonlinear.b: must be finite"):
        config_from_dict(minimal(nonlinear={"b": 10**400}))
    with pytest.raises(ValidationError, match="nonlinear.b: must be finite"):
        parse_config('{"session": {"seed": 5}, "nonlinear": {"b": 1' + "0" * 400 + "}}")


def test_geometry_section_requirements():
    with pytest.raises(ValidationError, match="missing site"):
        config_from_dict(minimal(geometry={"sites": {"Z0": [0, 0, 0]}, "probes": [[1, 0, 0]]}))
    # sites without probes take the default ring
    cfg = config_from_dict(
        minimal(
            geometry={
                "sites": {
                    "Z0": [0.2, 0.2, 0],
                    "Z1": [0.2, -0.2, 0],
                    "Xp": [-0.2, 0.2, 0],
                    "Xm": [-0.2, -0.2, 0],
                }
            }
        )
    )
    assert np.array_equal(cfg.geometry.probes, Geometry().probes)
    assert cfg.geometry.sites.tolist()[0] == [0.2, 0.2, 0.0]
    with pytest.raises(ValidationError, match=r"geometry.sites.Z0\[2\]"):
        config_from_dict(
            minimal(
                geometry={
                    "sites": {
                        "Z0": [0.1, 0.1, "zero"],
                        "Z1": [0.1, -0.1, 0],
                        "Xp": [-0.1, 0.1, 0],
                        "Xm": [-0.1, -0.1, 0],
                    },
                    "probes": [[1, 0, 0]],
                }
            )
        )


def test_a_partial_geometry_section_takes_the_defaults():
    default = Geometry()
    cfg = config_from_dict(minimal(geometry={"testMass": 2.0}))
    assert cfg.geometry.test_mass == 2.0
    assert cfg.geometry.grav_const == default.grav_const
    assert np.array_equal(cfg.geometry.sites, default.sites)
    assert np.array_equal(cfg.geometry.probes, default.probes)
    assert np.array_equal(cfg.geometry.config_matrix, 2.0 * default.config_matrix)
    probes = config_from_dict(minimal(geometry={"probes": [[0.0, 0.0, 1.0]]})).geometry
    assert np.array_equal(probes.sites, default.sites)
    assert probes.probes.tolist() == [[0.0, 0.0, 1.0]]
    assert config_from_dict(minimal(geometry={})).geometry.config_matrix.tobytes() == (
        default.config_matrix.tobytes()
    )


def test_seed_is_required_and_overridable():
    with pytest.raises(ValidationError, match="session.seed: required"):
        config_from_dict({"session": {}})
    cfg = config_from_dict({"session": {}}, seed_override=3)
    assert cfg.seed == 3
    cfg = config_from_dict(minimal(), seed_override=9)
    assert cfg.seed == 9
    with pytest.raises(ValidationError, match="session.seed"):
        config_from_dict({"session": {"seed": -1}})


def test_rounds_override():
    cfg = config_from_dict(minimal(), rounds_override=77)
    assert cfg.rounds == 77
    with pytest.raises(ValidationError, match="session.rounds"):
        config_from_dict(minimal(), rounds_override=0)


def test_invalid_json_reports_position():
    with pytest.raises(ValidationError, match="config: invalid JSON at line 2"):
        parse_config('{\n  "nonlinear": }')


def test_sweep_section_parsing():
    document = minimal(
        sweep={"grids": [["b", [0.0, 0.1]]], "roundsPerPoint": 50, "seedBase": 4}
    )
    cfg = config_from_dict(document)
    assert cfg.sweep.grids == (("b", (0.0, 0.1)),)
    with pytest.raises(ValidationError, match="sweep.roundsPerPoint: required"):
        config_from_dict(minimal(sweep={"grids": [["b", [0.0]]], "seedBase": 4}))
    with pytest.raises(ValidationError, match="sweep.seedBase: required"):
        config_from_dict(minimal(sweep={"grids": [["b", [0.0]]], "roundsPerPoint": 50}))
    with pytest.raises(ValidationError, match=r"sweep.grids\[0\]"):
        config_from_dict(minimal(sweep={"grids": ["b"], "roundsPerPoint": 50, "seedBase": 4}))


def test_limit_section_parsing():
    with pytest.raises(ValidationError, match="limit.confidence"):
        config_from_dict(minimal(limit={"lambdaGrid": [0.0], "confidence": 0.5}))
    with pytest.raises(ValidationError, match="limit.preparation"):
        config_from_dict(minimal(limit={"lambdaGrid": [0.0], "preparation": "Q0"}))
    with pytest.raises(ValidationError, match="limit.lambdaGrid"):
        config_from_dict(minimal(limit={"lambdaGrid": []}))
    cfg = config_from_dict(minimal(limit={"lambdaGrid": [0.0, 1.0], "preparation": "Xp"}))
    assert cfg.limit.preparation is Bb84Symbol.XP
    assert cfg.limit.delta_t_schedule == (1.0,)


def test_with_overrides_applies_every_parameter():
    base = load_config("default.json")
    overridden = base.with_overrides(
        {
            "b": 0.5,
            "lambda": 1.0,
            "deltaT": 2.0,
            "sigma": 1e-12,
            "samples": 3,
            "strategy": "Threshold",
            "tau": 0.5,
            "attackFraction": 0.25,
        }
    )
    assert overridden.nonlinear.b == 0.5
    assert overridden.nonlinear.lam == 1.0
    assert overridden.nonlinear.delta_t == 2.0
    assert overridden.sensor.sigma == 1e-12
    assert overridden.sensor.samples == 3
    assert overridden.eve.strategy.mode is StrategyMode.THRESHOLD
    assert overridden.eve.strategy.tau == 0.5
    assert overridden.eve.attack_fraction == 0.25
    # the base config is untouched
    assert base.nonlinear.b == 0.0
    assert base.eve.strategy.mode is StrategyMode.CLONE_INFERRED


# Each sweep parameter's config section and a value other than the default's.
SWEPT = {
    "b": ("nonlinear", 0.5),
    "lambda": ("nonlinear", 1.0),
    "deltaT": ("nonlinear", 2.0),
    "sigma": ("sensor", 1e-12),
    "samples": ("sensor", 3),
    "strategy": ("eve", "Threshold"),
    "tau": ("eve", 0.5),
    "attackFraction": ("eve", 0.25),
}


@pytest.mark.parametrize("name", SWEEP_PARAMETERS)
def test_an_override_equals_the_config_parsed_with_its_key_set(name):
    base = load_config("default.json")
    section, value = SWEPT[name]
    document = serialize_config(base)
    document[section][name] = value
    parsed = config_from_dict(document)
    # Geometry compares by identity, and both keep the base's values.
    assert replace(parsed, geometry=base.geometry) == base.with_overrides({name: value})
    assert set(SWEPT) == set(SWEEP_PARAMETERS)


def test_with_overrides_revalidates_and_rejects_unknown_names():
    base = load_config("default.json")
    with pytest.raises(ValidationError, match="nonlinear.b"):
        base.with_overrides({"b": 1.5})
    with pytest.raises(ValidationError, match="not supported"):
        base.with_overrides({"mass": 2.0})


def test_load_config_resolution_order(tmp_path, monkeypatch):
    local = tmp_path / "default.json"
    local.write_text('{"session": {"seed": 123}}', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert load_config("default.json").seed == 123  # local file shadows the bundle
    assert load_config("page_geilker.json").seed == 11  # bundled fallback
    with pytest.raises(ValidationError, match="no such file or bundled config"):
        load_config("missing.json")


def test_load_config_names_an_existing_path_it_cannot_read(tmp_path, monkeypatch):
    (tmp_path / "dircfg").mkdir()
    (tmp_path / "default.json").mkdir()
    monkeypatch.chdir(tmp_path)
    for name in ("dircfg", "default.json"):  # a directory shadows a bundle, as a file does
        with pytest.raises(ValidationError, match=rf"^config: cannot read {name}: "):
            load_config(name)


def test_parse_config_names_a_path_it_cannot_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match=r"^config: cannot read missing\.json"):
        parse_config("missing.json")


def test_an_invalid_bundled_config_is_named_in_the_message(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError) as info:
        load_config("default.json", rounds=0)
    assert str(info.value).startswith("bundled config default.json: session.rounds")


@pytest.mark.parametrize("load", [parse_config, load_config])
def test_inline_json_may_open_with_whitespace_and_newlines(load):
    cfg = load(' \n  {"session": {"seed": 5,\n "rounds": 7}}')
    assert (cfg.seed, cfg.rounds) == (5, 7)


@pytest.mark.parametrize("load", [parse_config, load_config])
def test_a_path_object_is_read_as_a_file(load, tmp_path):
    path = tmp_path / "custom.json"
    path.write_text('{"session": {"seed": 42, "rounds": 9}}', encoding="utf-8")
    cfg = load(path)
    assert (cfg.seed, cfg.rounds) == (42, 9)


@pytest.mark.parametrize("load", [parse_config, load_config])
def test_a_path_with_a_nul_byte_is_a_validation_error(load):
    with pytest.raises(ValidationError, match="^config: cannot read .*embedded null byte"):
        load("a\x00b.json")


@pytest.mark.parametrize("name", ["sub/missing.json", "../configs/default.json"])
def test_a_name_with_a_slash_is_never_a_bundle(name, tmp_path, monkeypatch):
    # ../configs/default.json, joined to the bundle directory, names a bundle
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match="no such file or bundled config"):
        load_config(name)


def test_load_config_reads_explicit_paths(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text('{"session": {"seed": 42, "rounds": 9}}', encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.seed == 42
    assert cfg.rounds == 9
    cfg = load_config(str(path), rounds=20, seed=1)
    assert (cfg.rounds, cfg.seed) == (20, 1)


def per_element_check(values, path, **bounds):
    """What check_number gives element by element as path[k]: the floats or the message."""
    try:
        return tuple(check_number(v, f"{path}[{k}]", **bounds) for k, v in enumerate(values))
    except ValidationError as error:
        return str(error)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 2.5, 1e300],
        (0.5,),
        [-0.0, 5e-324],
        [],
        [0, 3, 10**400],
        [1, 2.5],
        np.array([0.0, 1.5, 3.0]),
        np.array([2, 1]),
        [np.float64(0.25), np.int64(3), np.float32(0.5)],
        [0.5, math.nan],
        [math.inf, 1.0],
        [1.0, -math.inf],
        [True, 1.0],
        [1.0, np.bool_(False)],
        [1.0, -1.0, math.nan],
        [0.5, 2.0, -3.0],
        [1.0, "2"],
        [1.0, None],
    ],
)
@pytest.mark.parametrize(
    "bounds",
    [{}, {"low": 0.0}, {"above": 0.0}, {"low": 0.0, "high": 2.5}, {"above": 0.5, "below": 3.0}],
)
def test_check_numbers_gives_what_check_number_gives_per_element(values, bounds):
    expected = per_element_check(values, "limit.lambdaGrid", **bounds)
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as error:
            check_numbers(values, "limit.lambdaGrid", **bounds)
        assert str(error.value) == expected
    else:
        got = check_numbers(values, "limit.lambdaGrid", **bounds)
        assert type(got) is tuple
        assert [type(v) for v in got] == [float] * len(expected)
        assert [v.hex() for v in got] == [v.hex() for v in expected]
