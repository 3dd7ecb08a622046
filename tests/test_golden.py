"""Golden outputs: `gravsim run`, `sweep` and `limit` reproduce stored output byte for byte.

The files under tests/data were written by the CLI under random-stream
contract 3: the run transcripts by the commands in GOLDEN (the `.csv` from
--out, the `.json` from stdout) and the sweep and limit tables by the
commands in TABLES (stdout, in each format). A change of RNG_CONTRACT
changes which rounds a seed gives, so it regenerates the run and sweep
files; any other change must leave them untouched. The limit tables draw no
random numbers. The honest file was written under contract 2, and a session
without Eve reads the same draws under contract 3, so it must never change.
"""

from pathlib import Path

import pytest

from gravsim import cli, protocol

DATA = Path(__file__).parent / "data"

GOLDEN = {
    # Eve on 70% of rounds, Threshold at tau 0.6 with 3 samples: both resend
    # branches, blank Eve cells on the rounds she sat out
    "threshold_partial": (
        '{"nonlinear": {"b": 0.05}, "sensor": {"sigma": 2.5e-12, "samples": 3},'
        ' "eve": {"enabled": true, "strategy": "Threshold", "tau": 0.6, "attackFraction": 0.7},'
        ' "session": {"rounds": 300, "seed": 17}}'
    ),
    # b = 0 without the Born factor: four-way ties and a uniform posterior on every round
    "born_off_b0": (
        '{"nonlinear": {"b": 0.0}, "eve": {"enabled": true, "bornFactor": false},'
        ' "session": {"rounds": 300, "seed": 23}}'
    ),
    # Eve disabled: every round's block is six uniforms and an unused pair,
    # laid out as under contract 2, so this file predates contract 3
    "honest": '{"eve": {"enabled": false}, "session": {"rounds": 300, "seed": 29}}',
    # Eve on half of 2500 rounds: the table crosses the CSV writer's
    # 1024-row blocks; the engine runs it as one attacked chunk of 2500 rounds
    "partial_long": (
        '{"nonlinear": {"b": 0.05}, "eve": {"enabled": true, "strategy": "CloneInferred",'
        ' "attackFraction": 0.5}, "session": {"rounds": 2500, "seed": 31}}'
    ),
}

# Every sweep strategy against no and full attack on one round per point:
# strategy names, true/false and blank cells in one table
STRATEGY_FRACTION = (
    '{"nonlinear": {"b": 0.05}, "session": {"seed": 41}, "sweep": {"grids": [["strategy",'
    ' ["CloneInferred", "ResendMeasured", "Threshold"]], ["attackFraction", [0.0, 1.0]]],'
    ' "roundsPerPoint": 1, "seedBase": 5}}'
)

TABLES = {
    "sweep_default": ("sweep", "--config", "default.json", "--rounds", "300"),
    "limit_page_geilker": ("limit", "--config", "page_geilker.json"),
    "sweep_strategy_fraction": ("sweep", "--config", STRATEGY_FRACTION),
}


def test_golden_files_are_for_the_current_stream_contract():
    assert protocol.RNG_CONTRACT == 3


@pytest.mark.parametrize("name", GOLDEN)
def test_run_reproduces_the_golden_transcript(name, tmp_path, capsys):
    target = tmp_path / f"{name}.csv"
    argv = ["run", "--config", GOLDEN[name], "--format", "csv", "--out", str(target)]
    assert cli.main(argv) == 0
    assert target.read_bytes() == (DATA / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", TABLES)
def test_sweep_and_limit_reproduce_the_golden_tables(name, fmt, capsys):
    assert cli.main([*TABLES[name], "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == (DATA / f"{name}.{fmt}").read_bytes()
