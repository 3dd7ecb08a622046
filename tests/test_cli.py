"""Unit tests for the command-line interface."""

import csv
import io
import itertools
import json
import math
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from conftest import gravsim_env
from gravsim import cli, protocol
from gravsim import (
    SYMBOLS,
    ExclusionExperiment,
    Geometry,
    ValidationError,
    config_from_dict,
    exclusion_limit,
    load_config,
    run_session,
    sweep,
)
from gravsim.analysis import STAT_COLUMNS
from gravsim.cli import RECORD_COLUMNS, main

MINIMAL = '{"session": {"seed": 3, "rounds": 120}}'
SWEEP_CFG = (
    '{"session": {"seed": 1, "rounds": 10},'
    ' "sweep": {"grids": [["b", [0.0, 0.1]]], "roundsPerPoint": 150, "seedBase": 9}}'
)


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_writes_stats_json_to_stdout(capsys):
    code, out, err = run_main(["run", "--config", MINIMAL], capsys)
    assert code == 0
    assert err == ""
    assert out.endswith("\n")
    stats = json.loads(out)
    assert list(stats) == list(STAT_COLUMNS)
    assert stats["rounds"] == 120


@pytest.mark.filterwarnings("error")
def test_run_and_sweep_at_a_sample_count_beyond_int64_exit_0(capsys):
    samples = 10**23
    config = {"session": {"seed": 1, "rounds": 3}, "sensor": {"samples": samples}}
    code, out, err = run_main(["run", "--config", json.dumps(config)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["rounds"] == 3
    config["sweep"] = {"grids": [["samples", [samples, 1]]], "roundsPerPoint": 5, "seedBase": 1}
    code, out, err = run_main(["sweep", "--config", json.dumps(config)], capsys)
    assert (code, err) == (0, "")
    assert [row["samples"] for row in json.loads(out)] == [samples, 1]


@pytest.mark.parametrize("sigma", [1e-160, 1e-170])
def test_run_at_tiny_sigma_exits_0(capsys, sigma):
    config = json.dumps(
        {"session": {"seed": 3, "rounds": 200}, "nonlinear": {"b": 0.05}, "sensor": {"sigma": sigma}}
    )
    code, out, err = run_main(["run", "--config", config], capsys)
    assert code == 0, err
    stats = json.loads(out)
    assert stats["qber"] == 0.0
    assert stats["eveAccuracy"] == 1.0


@pytest.mark.filterwarnings("error")
def test_run_at_overflowing_sigma_exits_3_with_one_line(capsys):
    config = (
        '{"session": {"seed": 4}, "sensor": {"sigma": 1e308, "samples": 8},'
        ' "nonlinear": {"b": 0.05}}'
    )
    code, out, err = run_main(["run", "--rounds", "50", "--config", config], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("gravsim: sensor.sigma: 1e+308")


@pytest.mark.filterwarnings("error")
def test_run_at_sigma_1e300_exits_0(capsys):
    config = (
        '{"session": {"seed": 4}, "sensor": {"sigma": 1e300, "samples": 8},'
        ' "nonlinear": {"b": 0.05}}'
    )
    code, out, err = run_main(["run", "--rounds", "50", "--config", config], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["rounds"] == 50


def test_unexpected_exception_exits_4_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_run", broken)
    code, out, err = run_main(["run", "--config", MINIMAL], capsys)
    assert code == 4
    assert out == ""
    assert err == "gravsim: internal error: RuntimeError: boom\n"


def test_run_without_sifted_rounds_reports_no_verdict(capsys):
    # the first seed whose single round goes unsifted (probability 1/2 per seed)
    for seed in range(100):
        code, out, _ = run_main(
            ["run", "--config", MINIMAL, "--rounds", "1", "--seed", str(seed)], capsys
        )
        assert code == 0
        stats = json.loads(out)
        if stats["siftedCount"] == 0:
            break
    assert stats["siftedCount"] == 0
    assert stats["qber"] is None
    assert stats["keyRateTheory"] is None
    assert stats["keyRateAttack"] is None
    assert stats["aborted"] is True


def test_run_flags_override_session(capsys):
    code, out, _ = run_main(["run", "--config", MINIMAL, "--rounds", "60", "--seed", "8"], capsys)
    assert code == 0
    assert json.loads(out)["rounds"] == 60
    expected, _ = run_session(60, load_config(MINIMAL).to_eve_config(), seed=8, with_records=False)
    assert json.loads(out) == json.loads(json.dumps(expected.to_dict()))


def test_run_json_out_file(tmp_path, capsys):
    target = tmp_path / "stats.json"
    code, out, _ = run_main(["run", "--config", MINIMAL, "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["rounds"] == 120


def test_run_csv_requires_out(capsys):
    code, out, err = run_main(["run", "--config", MINIMAL, "--format", "csv"], capsys)
    assert code == 3
    assert out == ""
    assert "requires --out" in err
    assert err.startswith("gravsim: ")


def test_run_csv_writes_round_table(tmp_path, capsys):
    target = tmp_path / "rounds.csv"
    code, out, _ = run_main(
        ["run", "--config", MINIMAL, "--rounds", "40", "--out", str(target), "--format", "csv"],
        capsys,
    )
    assert code == 0
    stats = json.loads(out)  # statistics still land on stdout
    assert stats["rounds"] == 40
    text = target.read_text(encoding="utf-8")
    assert "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(RECORD_COLUMNS)
    assert len(rows) == 41
    _, transcript = run_session(40, load_config(MINIMAL).to_eve_config(), seed=3)
    assert transcript["attacked"].all()
    for index, (row, record) in enumerate(zip(rows[1:], transcript)):
        assert int(row[0]) == index
        assert row[1] == SYMBOLS[record["alice"]].label
        assert row[4] == ("Z", "X")[record["bob_basis"]]
        assert row[6] == ("true" if record["sifted"] else "false")
        if record["sifted"]:
            assert row[7] == ("true" if record["error"] else "false")
        else:
            assert row[7] == ""
        assert row[9] == SYMBOLS[record["inferred"]].label
        assert float(row[12]) == record["posterior"][0]


def _reference_cell(value) -> str:
    """One CSV cell as the writer has always formatted it, cell by cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_line(index, record) -> str:
    alice = SYMBOLS[record["alice"]]
    sifted, attacked = bool(record["sifted"]), bool(record["attacked"])

    def eve(symbol):
        return SYMBOLS[symbol].label if symbol >= 0 else None

    cells = [
        index,
        alice.label,
        alice.basis.value,
        alice.bit,
        ("Z", "X")[record["bob_basis"]],
        int(record["bob_bit"]),
        sifted,
        bool(record["error"]) if sifted else None,
        eve(record["outcome"]),
        eve(record["inferred"]),
        eve(record["resent"]),
        bool(record["resent"] == record["alice"]) if attacked else None,
        *(record["posterior"].tolist() if attacked else [None] * 4),
    ]
    return ",".join(map(_reference_cell, cells))


def test_transcript_csv_formats_every_reachable_row_key():
    # every Alice symbol, Bob basis and bit, with no attack or with each of
    # Eve's outcome, inference and resent state: 16 * 65 = 1040 rows, so the
    # table also crosses the writer's 1024-row blocks
    eve_states = [(-1, -1, -1), *itertools.product(range(4), repeat=3)]
    combos = list(itertools.product(range(4), range(2), range(2), eve_states))
    transcript = np.zeros(len(combos), protocol._TRANSCRIPT)
    posteriors = (0.0, 5e-324, 1e-5, 1e16, 0.25)
    for index, (alice, bob_basis, bob_bit, (outcome, inferred, resent)) in enumerate(combos):
        row = transcript[index : index + 1]
        sifted = bob_basis == alice >> 1
        row["alice"], row["bob_basis"], row["bob_bit"] = alice, bob_basis, bob_bit
        row["sifted"], row["error"] = sifted, sifted and bob_bit != alice & 1
        row["outcome"], row["inferred"], row["resent"] = outcome, inferred, resent
        if outcome >= 0:
            row["attacked"] = True
            row["posterior"] = [posteriors[(index + k) % 5] for k in range(4)]
    lines = cli._transcript_csv(transcript).split("\n")
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert lines[-1] == ""
    assert len(lines) == len(combos) + 2
    for index, (line, record) in enumerate(zip(lines[1:], transcript)):
        assert line == _reference_line(index, record)


def _assert_reference_csv(transcript):
    text = cli._transcript_csv(transcript)
    assert "\0" not in text
    lines = text.split("\n")
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert lines[-1] == ""
    assert len(lines) == transcript.size + 2
    for index, (line, record) in enumerate(zip(lines[1:], transcript)):
        assert line == _reference_line(index, record)


def _synthetic_transcript(attacked, seed):
    """Random consistent rows: Eve's three symbols and a posterior exactly where attacked."""
    rng = np.random.default_rng(seed)
    size = attacked.size
    transcript = np.zeros(size, protocol._TRANSCRIPT)
    alice = rng.integers(0, 4, size)
    bob_basis, bob_bit = rng.integers(0, 2, (2, size))
    sifted = bob_basis == alice >> 1
    transcript["alice"], transcript["bob_basis"], transcript["bob_bit"] = alice, bob_basis, bob_bit
    transcript["sifted"], transcript["error"] = sifted, sifted & (bob_bit != alice & 1)
    eve = np.where(attacked[:, None], rng.integers(0, 4, (size, 3)), -1)
    transcript["outcome"], transcript["inferred"], transcript["resent"] = eve.T
    transcript["attacked"] = attacked
    # the writer must ignore the posterior of a round Eve sat out
    transcript["posterior"] = rng.random((size, 4))
    special = np.array([0.0, 5e-324, 1e-300, 1e-5, 0.1, 0.25, 1 / 3, 1.0, 1e16])
    pick = rng.random((size, 4)) < 0.5
    transcript["posterior"][pick] = rng.choice(special, pick.sum())
    return transcript


def test_transcript_csv_matches_the_reference_across_block_kinds_and_index_widths():
    # 10 241 rows: the index crosses 9999 -> 10000, and the 1024-row blocks
    # cycle through all honest, all attacked, and mixed with the block's last
    # row attacked; the final block is one attacked row
    block, row = np.divmod(np.arange(10 * cli._CSV_BLOCK_ROWS + 1), cli._CSV_BLOCK_ROWS)
    attacked = np.random.default_rng(5).random(block.size) < 0.5
    attacked |= row == cli._CSV_BLOCK_ROWS - 1
    attacked[block % 3 == 0] = False
    attacked[block % 3 == 1] = True
    assert 0 < attacked[block == 2].mean() < 1 and attacked[block == 2][-1]
    _assert_reference_csv(_synthetic_transcript(attacked, seed=11))


@pytest.mark.parametrize("attacked", [False, True])
def test_transcript_csv_of_one_row(attacked):
    _assert_reference_csv(_synthetic_transcript(np.array([attacked]), seed=3))


@pytest.mark.parametrize("rounds", [1, 9, 10, 1023, 1024, 1025, 3000])
def test_transcript_csv_matches_the_reference_on_engine_transcripts(rounds):
    for mode, fraction, born in itertools.product(
        ("CloneInferred", "ResendMeasured", "Threshold"), (0.0, 0.7, 1.0), (True, False)
    ):
        eve = {"strategy": mode, "attackFraction": fraction, "bornFactor": born}
        document = {"nonlinear": {"b": 0.02}, "eve": eve, "session": {"seed": rounds}}
        _, transcript = run_session(rounds, config_from_dict(document).to_eve_config(), seed=rounds)
        if rounds > 1000:
            assert transcript["attacked"].mean() == pytest.approx(fraction, abs=0.1)
        _assert_reference_csv(transcript)


def test_run_stdout_is_reproducible(capsys):
    first = run_main(["run", "--config", MINIMAL], capsys)
    second = run_main(["run", "--config", MINIMAL], capsys)
    assert first == second


def test_sweep_csv_table(capsys):
    code, out, _ = run_main(["sweep", "--config", SWEEP_CFG, "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["b", *STAT_COLUMNS]
    assert len(rows) == 3
    assert [row[0] for row in rows[1:]] == ["0.0", "0.1"]
    config = load_config(SWEEP_CFG)
    expected = sweep(config.sweep, config)
    for row, want in zip(rows[1:], expected):
        assert float(row[0]) == want["b"]
        assert int(row[1]) == want["rounds"]
        assert float(row[3]) == want["qber"]
        assert row[8] == ("true" if want["aborted"] else "false")


def test_sweep_json_rows(capsys):
    code, out, _ = run_main(["sweep", "--config", SWEEP_CFG], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert list(rows[0]) == ["b", *STAT_COLUMNS]


def test_sweep_respects_rounds_and_seed_flags(capsys):
    code, out, _ = run_main(
        ["sweep", "--config", SWEEP_CFG, "--rounds", "80", "--seed", "5"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert all(row["rounds"] == 80 for row in rows)
    from dataclasses import replace

    config = load_config(SWEEP_CFG)
    spec = replace(config.sweep, rounds_per_point=80, seed_base=5)
    assert rows == json.loads(json.dumps(sweep(spec, config)))


def test_sweep_requires_sweep_section(capsys):
    code, _, err = run_main(["sweep", "--config", MINIMAL], capsys)
    assert code == 3
    assert "no sweep section" in err


@pytest.mark.parametrize(
    "grid, message",
    [
        ('["b", ["x"]]', "expected a finite number for 'b', got 'x'"),
        ('["samples", [2.5]]', "expected an integer for 'samples', got 2.5"),
        ('["attackFraction", [true]]', "expected a finite number for 'attackFraction', got True"),
    ],
    ids=["non-numeric", "fractional-samples", "bool"],
)
def test_sweep_grid_value_of_the_wrong_type_exits_3_with_one_line(capsys, grid, message):
    config = (
        '{"session": {"seed": 1}, "sweep": {"grids": [' + grid + '],'
        ' "roundsPerPoint": 10, "seedBase": 1}}'
    )
    code, out, err = run_main(["sweep", "--config", config], capsys)
    assert code == 3
    assert out == ""
    assert err == f"gravsim: sweep.grids: {message}\n"


def test_limit_csv_curve(capsys):
    code, out, _ = run_main(
        ["limit", "--config", "page_geilker.json", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "bUpper"]
    assert float(rows[1][0]) == 0.0
    assert 0.05 <= float(rows[1][1]) <= 0.2
    uppers = [float(row[1]) for row in rows[1:]]
    assert uppers == sorted(uppers)


def test_limit_json_matches_library(capsys):
    code, out, _ = run_main(["limit", "--config", "page_geilker.json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["confidence", "lambdaValues", "bUpper"]
    config = load_config("page_geilker.json")
    experiment = ExclusionExperiment(
        sensor=config.sensor,
        geometry=config.geometry,
        delta_t_schedule=config.limit.delta_t_schedule,
        preparation=config.limit.preparation,
        null_observation=config.limit.null_observation,
    )
    result = exclusion_limit(experiment, config.limit.lambda_grid, config.limit.confidence)
    assert payload["confidence"] == result.confidence
    assert payload["bUpper"] == list(result.b_upper)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, bundled", [("run", "default.json"), ("limit", "page_geilker.json")]
)
def test_overflowing_geometry_exits_3_with_one_line(capsys, command, bundled):
    document = json.loads(resources.files("gravsim").joinpath("configs", bundled).read_text())
    document["geometry"].update(testMass=1e300, gravConst=1e300)
    document["nonlinear"] = {"b": 0.05}
    code, out, err = run_main([command, "--config", json.dumps(document)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("gravsim: geometry.testMass, geometry.gravConst: ")


@pytest.mark.filterwarnings("error")
def test_a_field_that_overflows_eves_scores_exits_3_with_one_line(capsys):
    bundled = resources.files("gravsim").joinpath("configs", "default.json")
    document = json.loads(bundled.read_text())
    document["geometry"]["testMass"] = 1e200
    document["nonlinear"] = {"b": 0.05}
    document["sensor"] = {"sigma": 1e190}
    code, out, err = run_main(["run", "--config", json.dumps(document)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("gravsim: geometry.testMass, sensor.sigma: ")


@pytest.mark.parametrize(
    "value", [True, "0.1", None, math.nan, 10**400], ids=["bool", "str", "None", "nan", "huge-int"]
)
@pytest.mark.parametrize(
    "row, column, path", [("Z0", 2, "geometry.sites.Z0[2]"), (1, 0, "geometry.probes[1][0]")]
)
def test_a_bad_coordinate_gives_one_error_from_every_entry_point(capsys, value, row, column, path):
    geom = Geometry()
    sites = dict(zip(("Z0", "Z1", "Xp", "Xm"), geom.sites.tolist()))
    probes = geom.probes.tolist()
    (sites if isinstance(row, str) else probes)[row][column] = value
    with pytest.raises(ValidationError) as direct:
        Geometry(list(sites.values()), probes)
    assert str(direct.value).startswith(f"{path}: ")
    document = {"session": {"seed": 1}, "geometry": {"sites": sites, "probes": probes}}
    with pytest.raises(ValidationError) as parsed:
        config_from_dict(document)
    assert str(parsed.value) == str(direct.value)
    code, out, err = run_main(["run", "--config", json.dumps(document)], capsys)
    assert (code, out, err) == (3, "", f"gravsim: {direct.value}\n")


def test_limit_requires_limit_section(capsys):
    code, _, err = run_main(["limit", "--config", MINIMAL], capsys)
    assert code == 3
    assert "no limit section" in err


def test_selftest_reports_all_checks(tmp_path, capsys):
    report_path = tmp_path / "selftest.txt"
    code, out, _ = run_main(["selftest", "--out", str(report_path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS ") for line in lines)
    assert report_path.read_text(encoding="utf-8") == out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--format", "xml"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    # each subcommand takes only the flags its handler reads
    for argv in (["selftest", "--rounds", "5"], ["limit", "--seed", "5"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_successive_main_calls_do_not_share_options(tmp_path, capsys):
    target = tmp_path / "rounds.csv"
    code, out, _ = run_main(
        ["run", "--config", MINIMAL, "--format", "csv", "--out", str(target)], capsys
    )
    assert code == 0
    table = target.read_bytes()
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--format", "xml"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, out, err = run_main(["run", "--config", MINIMAL], capsys)
    assert code == 0
    assert err == ""
    stats, _ = run_session(120, load_config(MINIMAL).to_eve_config(), seed=3, with_records=False)
    assert out == json.dumps(stats.to_dict(), indent=2) + "\n"
    assert target.read_bytes() == table


def test_invalid_config_value_exits_3(capsys):
    bad = '{"session": {"seed": 1}, "nonlinear": {"b": 2.0}}'
    code, _, err = run_main(["run", "--config", bad], capsys)
    assert code == 3
    assert err.startswith("gravsim: nonlinear.b")


def test_missing_config_exits_3(capsys):
    code, _, err = run_main(["run", "--config", "nope.json"], capsys)
    assert code == 3
    assert "no such file or bundled config" in err


def test_a_directory_as_config_exits_3_with_its_read_error(capsys, tmp_path, monkeypatch):
    (tmp_path / "dircfg").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(["run", "--config", "dircfg"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("gravsim: config: cannot read dircfg: ")
    assert err.count("\n") == 1


def test_unwritable_out_exits_4(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "stats.json"
    code, _, err = run_main(["run", "--config", MINIMAL, "--out", str(target)], capsys)
    assert code == 4
    assert err.startswith("gravsim: ")


def test_cli_import_loads_no_scipy(tmp_path):
    # the selftest runs on numpy alone: no scipy, nor a test-only package
    probe = (
        "import sys, gravsim.cli; code = gravsim.cli.main(['selftest']); "
        "print(code, sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'pytest', 'hypothesis')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=gravsim_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_import_loads_no_thread_pool(tmp_path):
    probe = "import sys, gravsim.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=gravsim_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gravsim", "run", "--config", MINIMAL, "--rounds", "30"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=gravsim_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rounds"] == 30
