"""Golden transcripts: `gravsim run --format csv` reproduces stored output byte for byte.

The files under tests/data were written by `gravsim run` under random-stream
contract 3. A change of RNG_CONTRACT changes which rounds a seed gives, so it
regenerates these files with the commands in GOLDEN (the `.csv` from --out,
the `.json` from stdout); any other change must leave them untouched. The
honest file is the exception: it was written under contract 2, and a session
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
