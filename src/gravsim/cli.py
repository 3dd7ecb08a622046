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
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import STAT_COLUMNS, ExclusionExperiment, LimitResult, exclusion_limit, sweep
from .attack import EveStrategy, SensorModel, StrategyMode, infer_alice_state, sense
from .config import default_geometry, load_config
from .errors import GravsimError, ValidationError
from .gravity import NonlinearParams, config_field, general_field
from .protocol import (
    EveConfig,
    binary_entropy,
    key_rate,
    run_session,
)
from .qubits import SYMBOLS, Basis, Bb84Symbol, branch_weights, eve_dual_basis_measure, prepare

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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buffer.getvalue()


def _json_text(document) -> str:
    return json.dumps(document, indent=2) + "\n"


def _write_text(path_str: str, text: str) -> None:
    Path(path_str).write_text(text, encoding="utf-8", newline="")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


# Transcript rows formatted per block: bounds the Python strings alive at once.
_CSV_BLOCK_ROWS = 1024

# Cell text by index. Index -1 picks the blank: the transcript holds -1 for
# Eve's symbols on rounds she sat out, and an undefined flag is mapped to -1.
_SYMBOL_CELLS = np.array([symbol.label for symbol in SYMBOLS] + [""], dtype=object)
_BASIS_CELLS = np.array([basis.value for basis in Basis], dtype=object)
_BIT_CELLS = np.array(["0", "1"], dtype=object)
_FLAG_CELLS = np.array(["false", "true", ""], dtype=object)


def _transcript_csv(transcript) -> str:
    """The per-round table under RECORD_COLUMNS; floats are written with repr."""
    parts = [",".join(RECORD_COLUMNS) + "\n"]
    for start in range(0, transcript.size, _CSV_BLOCK_ROWS):
        rows = transcript[start : start + _CSV_BLOCK_ROWS]
        alice, sifted, attacked = rows["alice"], rows["sifted"], rows["attacked"]
        posterior = [
            ",".join(map(repr, p)) if hit else ",,,"
            for p, hit in zip(rows["posterior"].tolist(), attacked.tolist())
        ]
        columns = (
            map(str, range(start, start + rows.size)),
            _SYMBOL_CELLS[alice],
            _BASIS_CELLS[alice >> 1],
            _BIT_CELLS[alice & 1],
            _BASIS_CELLS[rows["bob_basis"]],
            _BIT_CELLS[rows["bob_bit"]],
            _FLAG_CELLS[sifted.astype(np.intp)],
            _FLAG_CELLS[np.where(sifted, rows["error"], -1)],
            _SYMBOL_CELLS[rows["outcome"]],
            _SYMBOL_CELLS[rows["inferred"]],
            _SYMBOL_CELLS[rows["resent"]],
            _FLAG_CELLS[np.where(attacked, rows["resent"] == alice, -1)],
            posterior,
        )
        parts.append("".join(",".join(cells) + "\n" for cells in zip(*columns)))
    return "".join(parts)


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
        _write_text(args.out, _transcript_csv(transcript))
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
    config = load_config(args.config, args.rounds, args.seed)
    if config.limit is None:
        raise ValidationError("limit: the config has no limit section")
    result = _exclusion_result(config)
    if args.format == "csv":
        text = _csv_text(
            ("lambda", "bUpper"),
            zip(result.lambda_values, result.b_upper),
        )
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
    rng = np.random.default_rng(12345)
    state = prepare(Bb84Symbol.Z0)
    probs = branch_weights(state)
    n = 100_000
    counts = [0, 0, 0, 0]
    for _ in range(n):
        counts[eve_dual_basis_measure(state, rng)] += 1
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
    geom = default_geometry()
    params = NonlinearParams(b=0.0, lam=0.7, delta_t=3.0)
    for prepared in SYMBOLS:
        for outcome in SYMBOLS:
            if branch_weights(prepared)[outcome] == 0.0:
                continue
            field = general_field(outcome.label, prepared, params, geom)
            base = config_field(outcome.label, geom)
            if not np.array_equal(field, base):
                raise AssertionError(f"b=0 field differs for {prepared.label}/{outcome.label}")


def _break_regime_config() -> EveConfig:
    return EveConfig(
        geometry=default_geometry(),
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
        geometry=default_geometry(),
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
    geom = default_geometry()
    rng = np.random.default_rng(99)
    for b, sigma in ((0.05, 1e-10), (0.3, 1e-11), (1.0, 1e-12)):
        params = NonlinearParams(b=b)
        sensor = SensorModel(sigma=sigma, samples=3)
        for prepared in SYMBOLS:
            outcome = eve_dual_basis_measure(prepare(prepared), rng)
            field = general_field(outcome.label, prepared, params, geom)
            readings = sense(field, sensor, rng)
            _, posterior = infer_alice_state(readings, outcome, geom, params, sensor, rng)
            if abs(sum(posterior) - 1.0) > 1e-9 or min(posterior) < 0.0:
                raise AssertionError(f"posterior {posterior} is not a distribution")


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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default="default.json",
        help="config file path, bundled config name, or inline JSON (default: default.json)",
    )
    common.add_argument("--rounds", type=int, default=None, help="override the round count")
    common.add_argument("--seed", type=int, default=None, help="override the base seed")
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default="json",
        help="output format (default: json)",
    )
    parser = argparse.ArgumentParser(
        prog="gravsim",
        description="Simulate gravitational side-channel attacks on BB84 key exchange.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    run_parser = subparsers.add_parser(
        "run", parents=[common], help="simulate one key-exchange session"
    )
    run_parser.set_defaults(handler=_cmd_run)
    sweep_parser = subparsers.add_parser(
        "sweep", parents=[common], help="run a parameter grid of sessions"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)
    limit_parser = subparsers.add_parser(
        "limit", parents=[common], help="compute exclusion limits on the coupling"
    )
    limit_parser.set_defaults(handler=_cmd_limit)
    selftest_parser = subparsers.add_parser(
        "selftest", parents=[common], help="run built-in consistency checks"
    )
    selftest_parser.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"gravsim: {exc}", file=sys.stderr)
        return 3
    except (GravsimError, OSError) as exc:
        print(f"gravsim: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a defect, not bad input: one line, no traceback
        print(f"gravsim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
