"""Command-line interface.

Subcommands:
  run       simulate one key-exchange session
  sweep     run a parameter grid and tabulate session statistics
  limit     compute exclusion limits from a null sensing experiment
  selftest  run built-in deterministic consistency checks

Exit codes: 0 success, 1 selftest failure, 2 usage error, 3 invalid
configuration or parameters, 4 runtime, I/O or internal failure. All file
output is UTF-8 with LF line endings; floats are written with repr so every
digit round-trips.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import STAT_COLUMNS, ExclusionExperiment, LimitResult, exclusion_limit, sweep
from .attack import (
    EveConfig,
    EveStrategy,
    SensorModel,
    StrategyMode,
    _attack_batch,
    _check_table,
    _eve_outcome,
)
from .config import load_config
from .errors import GravsimError, ValidationError
from .gravity import Geometry, NonlinearParams
from .protocol import binary_entropy, key_rate, run_session
from .qubits import SYMBOLS, Basis, Bb84Symbol, branch_weights

RECORD_COLUMNS = (
    "round",
    "aliceSymbol",
    "aliceBasis",
    "aliceBit",
    "bobBasis",
    "bobBit",
    "sifted",
    "error",
    "eveOutcome",
    "eveInferred",
    "eveResent",
    "eveCloned",
    "posteriorZ0",
    "posteriorZ1",
    "posteriorXp",
    "posteriorXm",
)


def _fmt(value) -> str:
    """One CSV cell: empty for None, true/false for bools, repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header, rows) -> str:
    """A header line and one line per row, each cell written by _fmt; no cell needs quoting."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in (header, *rows))


def _json_text(document) -> str:
    return json.dumps(document, indent=2) + "\n"


def _write_text(path_str: str, text: str) -> None:
    Path(path_str).write_text(text, encoding="utf-8", newline="")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


# Transcript rows per block: bounds the record array and the bytes of one block.
_CSV_BLOCK_ROWS = 1024
# The tail of a round Eve sat out: four blank posterior cells.
_BLANK_TAIL = b",,,\n"


def _row_keys(transcript) -> np.ndarray:
    """Each row's cells aliceSymbol..eveCloned packed into one integer key.

    The key holds Alice's symbol, Bob's basis and bit, and Eve's outcome,
    inference and resent state, Eve's three shifted by 1 so that the -1 of
    a round she sat out packs as 0. The other cells follow from these six.
    """
    key = transcript["alice"].astype(np.intp)
    for base, name in (
        (2, "bob_basis"), (2, "bob_bit"), (5, "outcome"), (5, "inferred"), (5, "resent")
    ):
        key *= base
        key += transcript[name]
    # Eve's three +1 shifts, packed: 1 * 25 + 1 * 5 + 1
    key += 31
    return key


# Bob's basis by index, and Eve's cell by index plus 1: blank for a round she sat out.
_BOB_BASES = tuple(Basis)
_EVE_LABELS = (None, *(s.label for s in SYMBOLS))


@functools.cache
def _row_cells(key: int) -> bytes:
    """The cells of a row key between round and posteriorZ0, with a comma on each side.

    Formatted once per process: there are 16 * 125 keys.
    """
    key, resent = divmod(key, 5)
    key, inferred = divmod(key, 5)
    key, outcome = divmod(key, 5)
    alice, bob = divmod(key, 4)
    bob_basis, bob_bit = divmod(bob, 2)
    symbol = SYMBOLS[alice]
    sifted = bob_basis == alice >> 1
    cells = (
        symbol.label,
        symbol.basis.value,
        symbol.bit,
        _BOB_BASES[bob_basis].value,
        bob_bit,
        sifted,
        bob_bit != symbol.bit if sifted else None,
        _EVE_LABELS[outcome],
        _EVE_LABELS[inferred],
        _EVE_LABELS[resent],
        resent - 1 == alice if resent else None,
    )
    return ("," + ",".join(map(_fmt, cells)) + ",").encode("ascii")


def _index_digits(size: int) -> np.ndarray:
    """The round indices 0..size-1 as right-aligned ASCII digit records, NUL for each leading zero.

    The digit in place p of consecutive integers runs through "0".."9", each
    repeated 10**p times, so every column is a tiled pattern. Each row of
    the digit table is one void record, copied whole into a block.
    """
    width = len(str(max(size - 1, 0)))
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    digits = np.empty((size, width), np.uint8)
    for place in range(width):
        period = 10**place
        pattern = np.repeat(ascii_digits[: -(-size // period)], period)
        column = np.tile(pattern, -(-size // pattern.size))[:size]
        if place:
            column[:period] = 0
        digits[:, width - 1 - place] = column
    return digits.view(f"V{width}").reshape(size)


def _transcript_csv_blocks(transcript):
    """The per-round table under RECORD_COLUMNS as ASCII byte blocks; floats are written with repr.

    The header comes first, then one block per _CSV_BLOCK_ROWS rows. A line
    is the round index, the cells of its row key and the posterior. Each
    block is an array of fixed-width records, one per line, with three
    NUL-padded fields: the index digits, the key's cells (a void record per
    key that occurs), and the tail (`repr` of the posterior on an attacked
    round, blanks otherwise). Dropping the NULs leaves the line; no cell
    contains one.
    """
    yield _csv_text(RECORD_COLUMNS, ()).encode("ascii")
    keys = _row_keys(transcript)
    counts = np.bincount(keys)
    present = np.flatnonzero(counts)
    found = np.array([_row_cells(key) for key in present.tolist()], dtype=bytes)
    cells = np.zeros(counts.size, f"V{found.itemsize}")
    cells[present] = found.view(cells.dtype)
    digits = _index_digits(transcript.size)
    for start in range(0, transcript.size, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, transcript.size)
        attacked = np.flatnonzero(transcript["attacked"][start:stop])
        posteriors = transcript["posterior"][start + attacked].tolist()
        # %r is the float repr of the byte contract; one format per row beats a join
        tails = np.array(
            ["%r,%r,%r,%r\n" % (z0, z1, xp, xm) for z0, z1, xp, xm in posteriors], dtype=bytes
        )
        # the tail field is as wide as the block's longest tail, NUL-padded
        tail = f"S{max(len(_BLANK_TAIL), tails.itemsize)}"
        fields = [("digits", digits.dtype), ("cells", cells.dtype), ("tail", tail)]
        block = np.empty(stop - start, fields)
        block["digits"] = digits[start:stop]
        block["cells"] = cells[keys[start:stop]]
        block["tail"] = _BLANK_TAIL
        block["tail"][attacked] = tails
        yield block.tobytes().translate(None, b"\0")


def _cmd_run(args) -> int:
    config = load_config(args.config, args.rounds, args.seed)
    want_records = args.format == "csv"
    if want_records and args.out is None:
        raise ValidationError(
            "run: --format csv requires --out; the per-round table goes to the file "
            "and session statistics go to stdout"
        )
    stats, transcript = run_session(
        config.rounds,
        config.to_eve_config(),
        seed=config.seed,
        with_records=want_records,
    )
    stats_text = _json_text(stats.to_dict())
    if want_records:
        with open(args.out, "wb") as file:
            file.writelines(_transcript_csv_blocks(transcript))
        sys.stdout.write(stats_text)
    else:
        _emit(stats_text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if config.sweep is None:
        raise ValidationError("sweep: the config has no sweep section")
    spec = config.sweep
    if args.rounds is not None:
        spec = replace(spec, rounds_per_point=args.rounds)
    if args.seed is not None:
        spec = replace(spec, seed_base=args.seed)
    rows = sweep(spec, config)
    if args.format == "csv":
        header = spec.parameter_names + STAT_COLUMNS
        text = _csv_text(header, ([row[name] for name in header] for row in rows))
    else:
        text = _json_text(rows)
    _emit(text, args.out)
    return 0


def _exclusion_result(config) -> LimitResult:
    """The exclusion limit of a config's sensor, geometry and limit section."""
    settings = config.limit
    experiment = ExclusionExperiment(
        sensor=config.sensor,
        geometry=config.geometry,
        delta_t_schedule=settings.delta_t_schedule,
        preparation=settings.preparation,
        null_observation=settings.null_observation,
    )
    return exclusion_limit(experiment, settings.lambda_grid, settings.confidence)


def _cmd_limit(args) -> int:
    config = load_config(args.config)
    if config.limit is None:
        raise ValidationError("limit: the config has no limit section")
    result = _exclusion_result(config)
    if args.format == "csv":
        text = _csv_text(("lambda", "bUpper"), zip(result.lambda_values, result.b_upper))
    else:
        text = _json_text(
            {
                "confidence": result.confidence,
                "lambdaValues": list(result.lambda_values),
                "bUpper": list(result.b_upper),
            }
        )
    _emit(text, args.out)
    return 0


def _check_branch_weight_table() -> None:
    expected = {
        Bb84Symbol.Z0: (0.5, 0.0, 0.25, 0.25),
        Bb84Symbol.Z1: (0.0, 0.5, 0.25, 0.25),
        Bb84Symbol.XP: (0.25, 0.25, 0.5, 0.0),
        Bb84Symbol.XM: (0.25, 0.25, 0.0, 0.5),
    }
    for prepared, weights in expected.items():
        got = tuple(branch_weights(prepared).tolist())
        if got != weights:
            raise AssertionError(f"{prepared.label}: {got} != {weights}")


def _check_measurement_frequencies() -> None:
    # Eve's outcomes for 100 000 uniforms, drawn by the engine's rule.
    rng = np.random.default_rng(12345)
    probs = branch_weights(Bb84Symbol.Z0)
    n = 100_000
    outcomes = _eve_outcome(np.full(n, Bb84Symbol.Z0), rng.random(n))
    counts = np.bincount(outcomes, minlength=4).tolist()
    for outcome in SYMBOLS:
        p = probs[outcome]
        freq = counts[outcome] / n
        if p == 0.0:
            if counts[outcome] != 0:
                raise AssertionError(f"impossible outcome {outcome.label} drawn")
            continue
        bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
        if abs(freq - p) > bound:
            raise AssertionError(f"{outcome.label}: freq {freq} vs p {p} (bound {bound})")


def _check_linear_limit_field() -> None:
    # At b = 0 the field Eve senses is her configuration field: no residual is left.
    params = NonlinearParams(b=0.0, lam=0.7, delta_t=3.0)
    table = EveConfig(Geometry(), params, SensorModel(), EveStrategy())._table
    for prepared in SYMBOLS:
        if table.residuals[0, prepared].any() or table.offsets[0, prepared] != 0.0:
            raise AssertionError(f"b=0 residual is not zero for {prepared.label}")


def _break_regime_config() -> EveConfig:
    return EveConfig(
        geometry=Geometry(),
        params=NonlinearParams(b=0.5),
        sensor=SensorModel(sigma=1e-30, samples=1),
        strategy=EveStrategy(StrategyMode.CLONE_INFERRED),
    )


def _check_break_regime_session() -> None:
    stats, _ = run_session(400, _break_regime_config(), seed=3, with_records=False)
    if stats.qber != 0.0:
        raise AssertionError(f"qber {stats.qber} != 0")
    if stats.eve_accuracy != 1.0:
        raise AssertionError(f"eve accuracy {stats.eve_accuracy} != 1")
    if stats.aborted:
        raise AssertionError("session aborted")


def _check_intercept_resend_session() -> None:
    eve_config = EveConfig(
        geometry=Geometry(),
        params=NonlinearParams(b=0.0),
        sensor=SensorModel(sigma=2.5e-12, samples=1),
        strategy=EveStrategy(StrategyMode.RESEND_MEASURED),
    )
    stats, _ = run_session(20_000, eve_config, seed=5, with_records=False)
    bound = 4.0 * math.sqrt(0.25 * 0.75 / stats.sifted_count)
    if abs(stats.qber - 0.25) > bound:
        raise AssertionError(f"qber {stats.qber} vs 0.25 (bound {bound})")
    if not stats.aborted:
        raise AssertionError("session with 25% error rate did not abort")


def _check_key_rate_endpoints() -> None:
    if key_rate(0.0, 0.0) != (1.0, 1.0):
        raise AssertionError("clean channel should give unit rates")
    theory, _ = key_rate(0.25, 0.0)
    if theory != 0.0:
        raise AssertionError(f"rate at 25% errors is {theory}, expected 0")
    if binary_entropy(0.5) != 1.0 or binary_entropy(0.0) != 0.0:
        raise AssertionError("entropy endpoints are off")


def _check_replay_determinism() -> None:
    first_stats, first_transcript = run_session(500, _break_regime_config(), seed=21)
    second_stats, second_transcript = run_session(500, _break_regime_config(), seed=21)
    if first_stats != second_stats:
        raise AssertionError("session statistics differ between replays")
    if not np.array_equal(first_transcript, second_transcript):
        raise AssertionError("transcripts differ between replays")


def _check_posterior_normalization() -> None:
    geom = Geometry()
    rng = np.random.default_rng(99)
    prepared = np.arange(4)
    for b, sigma in ((0.05, 1e-10), (0.3, 1e-11), (1.0, 1e-12)):
        sensor = SensorModel(sigma=sigma, samples=3)
        table = EveConfig(geom, NonlinearParams(b=b), sensor, EveStrategy())._table
        outcome_draws, noise, tie_draws = rng.random(4), rng.standard_normal((4, 2)), rng.random(4)
        _check_table(table, float(np.abs(noise).max()))
        _, _, posterior, _ = _attack_batch(prepared, table, 0, outcome_draws, noise, tie_draws)
        for row in posterior.tolist():
            if abs(sum(row) - 1.0) > 1e-9 or min(row) < 0.0:
                raise AssertionError(f"posterior {row} is not a distribution")


def _check_exclusion_anchor() -> None:
    config = load_config("page_geilker.json")
    result = _exclusion_result(config)
    anchor = result.b_upper[config.limit.lambda_grid.index(0.0)]
    if not 0.05 <= anchor <= 0.2:
        raise AssertionError(f"lambda=0 bound {anchor} outside [0.05, 0.2]")


_SELFTEST_CHECKS = (
    ("branch-weight-table", _check_branch_weight_table),
    ("measurement-frequencies", _check_measurement_frequencies),
    ("linear-limit-field", _check_linear_limit_field),
    ("break-regime-session", _check_break_regime_session),
    ("intercept-resend-session", _check_intercept_resend_session),
    ("key-rate-endpoints", _check_key_rate_endpoints),
    ("replay-determinism", _check_replay_determinism),
    ("posterior-normalization", _check_posterior_normalization),
    ("exclusion-anchor", _check_exclusion_anchor),
)


def _cmd_selftest(args) -> int:
    lines = []
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        try:
            check()
        except Exception as exc:  # report and continue; any failure fails the run
            failures += 1
            lines.append(f"FAIL {name}: {exc}")
        else:
            lines.append(f"PASS {name}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out is not None:
        _write_text(args.out, report)
    return 1 if failures else 0


# Each option's argparse settings; a subcommand takes only the options its handler reads.
_OPTIONS = {
    "--config": {
        "default": "default.json",
        "help": "config file path, bundled config name, or inline JSON (default: default.json)",
    },
    "--rounds": {"type": int, "help": "override the round count"},
    "--seed": {"type": int, "help": "override the base seed"},
    "--out": {"help": "write output to this file (selftest: as well as to stdout)"},
    "--format": {
        "choices": ("csv", "json"),
        "default": "json",
        "help": "output format (default: json)",
    },
}
_SESSION_OPTIONS = ("--config", "--rounds", "--seed", "--out", "--format")
_SUBCOMMANDS = (
    ("run", "simulate one key-exchange session", _SESSION_OPTIONS),
    ("sweep", "run a parameter grid of sessions", _SESSION_OPTIONS),
    ("limit", "compute exclusion limits on the coupling", ("--config", "--out", "--format")),
    ("selftest", "run built-in consistency checks", ("--out",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravsim",
        description="Simulate gravitational side-channel attacks on BB84 key exchange.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, summary, options in _SUBCOMMANDS:
        subparser = subparsers.add_parser(name, help=summary)
        for option in options:
            subparser.add_argument(option, **_OPTIONS[option])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built by the first main call and reused by the rest."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a rebound _cmd_<name> takes effect.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except ValidationError as exc:
        print(f"gravsim: {exc}", file=sys.stderr)
        return 3
    except (GravsimError, OSError) as exc:
        print(f"gravsim: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a defect, not bad input: one line, no traceback
        print(f"gravsim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
