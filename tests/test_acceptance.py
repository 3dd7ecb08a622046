"""Acceptance gate: one test per release criterion, with a printed verdict each.

Every test runs the full stack at the stated scale and tolerance; the
conftest hook prints one PASS/FAIL line per criterion after the run.
"""

import csv
import io
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import gravsim_env, record_acceptance
from gravsim import (
    EveConfig,
    EveStrategy,
    Geometry,
    NonlinearParams,
    SYMBOLS,
    SensorModel,
    analytic_accuracy,
    cloning_fidelity,
    decay_factor,
    monte_carlo_accuracy,
    run_session,
)

GEOMETRY = Geometry()
SESSION_ROUNDS = 100_000
# The QBER tolerance of 0.005 is 2.6 standard errors at 10^5 rounds, so a fair
# seed misses it about 1% of the time; at 10^6 rounds it is 8 standard errors.
BASELINE_ROUNDS = 1_000_000
# Distance between the closest pair of mix rows, the residuals at b=1 (pinned in unit tests)
CLOSEST_PAIR_NORM = 1.2191467782674696e-10


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException as exc:
        record_acceptance(f"criterion {number:2d} FAIL {label} ({type(exc).__name__})")
        raise
    record_acceptance(f"criterion {number:2d} PASS {label}")


def eve_config(
    b: float,
    sigma: float,
    mode: str,
    lam: float = 0.0,
    delta_t: float = 0.0,
    born_factor: bool = True,
) -> EveConfig:
    return EveConfig(
        geometry=GEOMETRY,
        params=NonlinearParams(b=b, lam=lam, delta_t=delta_t),
        sensor=SensorModel(sigma=sigma),
        strategy=EveStrategy(mode),
        born_factor=born_factor,
    )


def gravsim_cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "gravsim", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=gravsim_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_1_interception_outcome_frequencies():
    with criterion(1, "interception outcome frequencies"):
        started = time.monotonic()
        # 10^6 interceptions: Eve attacks every round of the session.
        cfg = eve_config(b=0.0, sigma=2.5e-12, mode="ResendMeasured")
        _, transcript = run_session(1_000_000, cfg, seed=2024)
        assert transcript["attacked"].all()
        for prepared in SYMBOLS:
            outcomes = transcript["outcome"][transcript["alice"] == prepared]
            n = len(outcomes)
            counts = np.bincount(outcomes, minlength=4)
            law = oracles.eve_outcome_distribution(prepared.label)
            for symbol in SYMBOLS:
                p = float(law[symbol.label])
                if p == 0.0:
                    assert counts[symbol] == 0
                    continue
                bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
                assert counts[symbol] / n == pytest.approx(p, abs=bound)
        assert time.monotonic() - started < 30.0


def test_criterion_2_linear_limit_field_and_uniform_posterior():
    with criterion(2, "vanishing coupling: exact base field, uniform posterior"):
        # At b = 0 the field Eve senses is her configuration field: no residual is left.
        linear = eve_config(b=0.0, sigma=2.5e-12, mode="CloneInferred", lam=0.4, delta_t=2.0)
        assert not linear._table.residuals.any() and not linear._table.offsets.any()
        cfg = eve_config(b=0.0, sigma=2.5e-12, mode="CloneInferred", born_factor=False)
        _, transcript = run_session(10_000, cfg, seed=42)
        assert len(transcript) == 10_000
        assert transcript["attacked"].all()
        assert (transcript["posterior"] == 0.25).all()


def test_criterion_3_intercept_resend_baseline():
    with criterion(3, "intercept-resend baseline statistics"):
        cfg = eve_config(b=0.0, sigma=2.5e-12, mode="ResendMeasured")
        stats, _ = run_session(BASELINE_ROUNDS, cfg, seed=101, with_records=False)
        assert stats.qber == pytest.approx(float(oracles.intercept_resend_qber()), abs=0.005)
        assert stats.eve_mutual_info == pytest.approx(
            float(oracles.resend_mutual_information()), abs=0.02
        )
        assert stats.key_rate_theory == 0.0
        assert stats.aborted


def test_criterion_4_break_regime():
    with criterion(4, "noiseless strong coupling breaks the protocol"):
        cfg = eve_config(b=0.1, sigma=1e-30, mode="CloneInferred")
        stats, _ = run_session(SESSION_ROUNDS, cfg, seed=202, with_records=False)
        assert stats.eve_accuracy == 1.0
        assert stats.qber == 0.0
        assert stats.eve_mutual_info >= 0.99
        assert stats.key_rate_theory == 1.0
        # The attack rate is 1 - h(qber) - I(A;E) with a plug-in information
        # estimate; at 10^5 rounds that estimate sits a few 1e-5 bits under
        # its asymptotic value of 1, so the rate lands within 1e-3 of zero
        # rather than at exactly zero.
        assert stats.key_rate_attack <= 1e-3


def test_criterion_5_relaxation_equivalence():
    with criterion(5, "relaxed coupling matches its contracted amplitude"):
        sigma = 4e-12
        relaxed = eve_config(b=0.8, sigma=sigma, mode="CloneInferred", lam=1.0, delta_t=2.0)
        contracted_b = decay_factor(relaxed.params)
        assert contracted_b == pytest.approx(0.8 * math.exp(-2.0), rel=1e-15)
        contracted = eve_config(b=contracted_b, sigma=sigma, mode="CloneInferred")
        stats_relaxed, _ = run_session(SESSION_ROUNDS, relaxed, seed=303, with_records=False)
        stats_contracted, _ = run_session(SESSION_ROUNDS, contracted, seed=303, with_records=False)
        a, b = stats_relaxed.eve_accuracy, stats_contracted.eve_accuracy
        pooled = 0.5 * (a + b)
        noise = math.sqrt(2.0 * pooled * (1.0 - pooled) / SESSION_ROUNDS)
        assert abs(a - b) <= 3.0 * noise
        assert 0.5 < pooled < 1.0  # the comparison runs where accuracy is informative


def test_criterion_6_noise_scaling_invariance():
    with criterion(6, "accuracy invariant under joint (b, sigma) scaling"):
        for b, sigma, seed in ((0.05, 2e-12, 404), (0.1, 3e-12, 405), (0.2, 8e-12, 406)):
            base = eve_config(b=b, sigma=sigma, mode="CloneInferred")
            scaled = eve_config(b=2.0 * b, sigma=2.0 * sigma, mode="CloneInferred")
            stats_base, _ = run_session(SESSION_ROUNDS, base, seed=seed, with_records=False)
            stats_scaled, _ = run_session(SESSION_ROUNDS, scaled, seed=seed, with_records=False)
            x, y = stats_base.eve_accuracy, stats_scaled.eve_accuracy
            pooled = 0.5 * (x + y)
            noise = math.sqrt(2.0 * pooled * (1.0 - pooled) / SESSION_ROUNDS)
            assert abs(x - y) <= 3.0 * noise


def test_criterion_7_classifier_matches_quadrature():
    with criterion(7, "Monte Carlo matches the two-hypothesis quadrature value"):
        started = time.monotonic()
        b = 0.1
        for d, want_phi in sorted(oracles.PHI_HALF_D.items()):
            sensor = SensorModel(sigma=b * CLOSEST_PAIR_NORM / d)
            params = NonlinearParams(b=b)
            est = analytic_accuracy(params, GEOMETRY, sensor)
            assert est.d_min == pytest.approx(d, rel=1e-12)
            assert est.two_hypothesis_exact == pytest.approx(want_phi, abs=1e-9)
            residuals = decay_factor(params) * GEOMETRY.mix_matrix
            first, second = est.closest_pair
            mc = oracles.two_hypothesis_mc(
                residuals[first],
                residuals[second],
                sensor.sigma,
                sensor.samples,
                n_trials=100_000,
                seed=700 + int(2 * d),
            )
            assert mc == pytest.approx(est.two_hypothesis_exact, abs=0.02)
        assert time.monotonic() - started < 120.0


def test_criterion_8_null_experiment_anchor(tmp_path):
    with criterion(8, "historical null experiment pins the coupling near 0.1"):
        proc = gravsim_cli(
            "limit", "--config", "page_geilker.json", "--format", "csv", cwd=tmp_path
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == ["lambda", "bUpper"]
        by_lambda = {float(lam): float(upper) for lam, upper in rows[1:]}
        assert 0.05 <= by_lambda[0.0] <= 0.2


def test_criterion_9_cloning_fidelity():
    with criterion(9, "cloning fidelity: 0.75 baseline, 1.0 in the break regime"):
        baseline = cloning_fidelity(
            EveStrategy("ResendMeasured"),
            NonlinearParams(b=0.0),
            GEOMETRY,
            SensorModel(sigma=2.5e-12),
            30_000,
            np.random.default_rng(909),
        )
        assert baseline == pytest.approx(float(oracles.resend_measured_fidelity()), abs=0.01)
        perfect = cloning_fidelity(
            EveStrategy("CloneInferred"),
            NonlinearParams(b=0.1),
            GEOMETRY,
            SensorModel(sigma=1e-30),
            2_000,
            np.random.default_rng(910),
        )
        assert perfect == 1.0


def test_criterion_10_byte_identical_reruns(tmp_path):
    with criterion(10, "every subcommand reruns byte-identically"):
        invocations = {
            "run.json": ("run", "--config", "default.json", "--rounds", "2000"),
            "run.csv": (
                "run",
                "--config",
                "default.json",
                "--rounds",
                "2000",
                "--format",
                "csv",
            ),
            "sweep.csv": (
                "sweep",
                "--config",
                "default.json",
                "--rounds",
                "300",
                "--format",
                "csv",
            ),
            "limit.csv": ("limit", "--config", "page_geilker.json", "--format", "csv"),
            "selftest.txt": ("selftest",),
        }
        for name, argv in invocations.items():
            outputs = []
            for attempt in ("first", "second"):
                target = tmp_path / attempt / name
                target.parent.mkdir(exist_ok=True)
                gravsim_cli(*argv, "--out", str(target), cwd=tmp_path)
                outputs.append(target.read_bytes())
            first, second = outputs
            assert first == second, f"{name} differs between reruns"
            assert first.endswith(b"\n")
            assert b"\r" not in first
