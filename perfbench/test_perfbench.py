"""Tests of the benchmark's own arithmetic and hygiene.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import gravsim.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
    value, percentile = run.tail(list(reversed(values[:37])))
    assert value == 27.0 and 10 == sum(v > value for v in values[:37])
    assert percentile == pytest.approx(100.0 * 27 / 37)


def test_tail_never_below_the_median():
    assert run.tail([5.0, 1.0, 3.0]) == (3.0, pytest.approx(200.0 / 3))
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([7.0]) == (7.0, 100.0)


def test_self_time_subtracts_nested_children():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),
        ("z", 4.0, 4.5, 0),
        ("late", 8.0, 12.0, 0),
    ]
    # Children cover [1, 7] and [8, 10] of the root's interval.
    assert spans.self_times(recorded)[0] == pytest.approx(2.0)


def test_tracer_records_nesting_and_self_times():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    result, recorded = tracer.run_unit(outer, 3)
    assert result == 8
    assert [(name, parent) for name, _, _, parent in recorded] == [
        ("unit", -1),
        ("outer", 0),
        ("inner", 1),
    ]
    selfs = spans.self_times(recorded)
    total = recorded[0][2] - recorded[0][1]
    assert sum(selfs) == pytest.approx(total)
    held = len(tracer.spans)
    assert inner(1) == 2 and len(tracer.spans) == held, "an inactive tracer records nothing"


def _gravsim_bindings() -> dict:
    return {
        (name, attribute): value
        for name, module in sys.modules.items()
        if module is not None and (name == "gravsim" or name.startswith("gravsim."))
        for attribute, value in vars(module).items()
    } | {("RunConfig", "with_overrides"): vars(gravsim.config.RunConfig)["with_overrides"]}


def test_rebinding_is_restored_after_a_traced_run(tmp_path):
    before = _gravsim_bindings()
    workload = workloads.SweepGrid(3, tmp_path)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.rebound(tracer) as sites:
            assert gravsim.protocol.attack_round is not before["gravsim.protocol", "attack_round"]
            assert gravsim.analysis.run_session is gravsim.protocol.run_session
            output, recorded = tracer.run_unit(workload.run, 0)
            raise RuntimeError("leave the block early")
    assert workload.check(0, output) == []
    names = {name for name, *_ in recorded}
    assert {"protocol.run_session", "config.with_overrides", "attack.attack_round"} <= names
    assert {site[3] for site in sites} >= {"cli.main", "config.with_overrides", "qubits.prepare"}
    after = _gravsim_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_target_is_skipped():
    targets = (("gravsim.attack", "no_such_function", "attack.none"), ("gravsim.nowhere", "f", "x.f"))
    assert spans.binding_sites(targets) == []


def test_exclusion_check_uses_an_independent_closed_form(tmp_path):
    workload = workloads.ExclusionScan(5, tmp_path)
    limit = workload.config.limit
    result = gravsim.analysis.exclusion_limit(workload.experiment, limit.lambda_grid, limit.confidence)
    bounds = list(result.b_upper)
    assert workload.expected == pytest.approx(bounds, rel=1e-9)
    assert max(bounds) == 1.0, "the generated grid reaches the cap"
    agree = ([0.05], [0.052])
    assert workloads.exclusion_problems(limit.lambda_grid, bounds, workload.expected, *agree, 0.1) == []
    bent = bounds[:]
    bent[3] *= 1.001
    assert workloads.exclusion_problems(limit.lambda_grid, bent, workload.expected, *agree, 0.1)
    assert workloads.exclusion_problems(limit.lambda_grid, bounds, workload.expected, [0.05], [0.06], 0.1)


def test_sweep_check_flags_a_leaky_break_regime_row(tmp_path):
    workload = workloads.SweepGrid(4, tmp_path)
    rows = workload.run(1)
    assert workload.check(1, rows) == []
    broken = next(
        j
        for j, row in enumerate(rows)
        if row["sigma"] == workloads.BREAK_SIGMA
        and row["strategy"] == "CloneInferred"
        and row["b"] > 0
        and row["attackFraction"] == 1.0
    )
    rows[broken] = dict(rows[broken], qber=0.01)
    assert any("break-regime" in p for p in workload.check(1, rows))


def test_honest_transcript_unit_checks_clean(tmp_path):
    workload = workloads.HonestTranscript(6, tmp_path)
    output = workload.run(0)
    assert workload.check(0, output) == []
    assert workload.transcript_bytes[0] == (tmp_path / "honest-transcript.csv").stat().st_size
