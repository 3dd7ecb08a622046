"""Contract tests for the batch session engine and its counter-based random stream.

run_session simulates rounds in vectorised chunks and scores Eve's attack
on two plane coordinates. These tests pin that engine to the independent
full-field reference oracles.full_field_round, and Bob to the exact Born
law of oracles.bob_bit_distribution, fed the very same variates, with the
plane normals z laid into the field as the in-plane noise z @ plane_basis,
and check the stream contract: a session is a prefix of any longer one
with the same seed, the chunk size never changes a result, not even a
sweep's, a pass cuts its sessions' rounds into full chunks, the draw
buffer and kernel scratch a thread keeps between passes never show in a
result, repeated sweep-shaped passes do not page-fault, and memory does
not grow with the session length.
"""

import math
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import gravsim_env
from gravsim import (
    EveConfig,
    EveStrategy,
    Geometry,
    NonlinearParams,
    SensorModel,
    StrategyMode,
    SweepSpec,
    ValidationError,
    cloning_fidelity,
    decay_factor,
    load_config,
    monte_carlo_accuracy,
    run_session,
    sweep,
)
from gravsim import protocol
from gravsim.attack import _LOG_PRIORS, _check_table, _logits, _plane_statistic

GEOM = Geometry()
# Sites off the symmetric square: the four mix rows have different norms, so
# the offsets count * |r_h|^2 / 2 differ between hypotheses and enter the scores.
SKEWED = Geometry(
    [[0.1, 0.1, 0.0], [0.12, -0.08, 0.0], [-0.1, 0.13, 0.02], [-0.07, -0.1, 0.0]], GEOM.probes
)


def in_plane_noise(z, sensor, geom=GEOM):
    """Full-field noise for a round's (samples, dim) readings whose plane projection is z.

    Each of the `samples` readings gets z @ plane_basis / sqrt(samples), so
    their sum is sqrt(samples) * z @ plane_basis, as the engine assumes.
    """
    row = z @ geom.plane_basis / math.sqrt(sensor.samples)
    return np.tile(row, (sensor.samples, 1))


def eve_config(
    mode="CloneInferred",
    b=0.05,
    sigma=2.5e-12,
    samples=1,
    fraction=1.0,
    born=True,
    tau=0.9,
    geom=GEOM,
):
    return EveConfig(
        geometry=geom,
        params=NonlinearParams(b=b),
        sensor=SensorModel(sigma=sigma, samples=samples),
        strategy=EveStrategy(mode, tau=tau),
        attack_fraction=fraction,
        born_factor=born,
    )


SCALAR_CASES = {
    "clone": eve_config(),
    "resend": eve_config("ResendMeasured"),
    # tau 0.6 at b = 0.05 takes both branches of the Threshold rule
    "threshold": eve_config("Threshold", tau=0.6),
    "fraction-0.7": eve_config(fraction=0.7, samples=3),
    # b = 0 without the Born factor: four-way ties on every round
    "b0-ties": eve_config(b=0.0, born=False),
    "b0-born": eve_config("Threshold", b=0.0),
    "break": eve_config(b=0.1, sigma=1e-30),
    "skewed": eve_config("Threshold", samples=3, tau=0.6, geom=SKEWED),
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_engine_matches_the_scalar_reference(case):
    cfg = SCALAR_CASES[case]
    seed, n = 17, 300
    _, transcript = run_session(n, cfg, seed=seed)
    uniforms = protocol._uniforms(protocol._round_draws(seed, 0, n))
    normals = protocol._box_muller(uniforms[:, 6], uniforms[:, 7]).T
    decay = decay_factor(cfg.params)
    resends = set()
    for row, u, z in zip(transcript, uniforms.tolist(), normals):
        alice_u, coin_u, outcome_u, tie_u, basis_u, bit_u, _, _ = u
        alice = int(4.0 * alice_u)
        assert row["alice"] == alice
        state, attacked = alice, coin_u < cfg.attack_fraction
        assert row["attacked"] == attacked
        if attacked:
            outcome, inferred, posterior, state = oracles.full_field_round(
                alice,
                cfg.geometry.config_matrix,
                cfg.geometry.mix_matrix,
                decay,
                cfg.sensor.sigma,
                cfg.born_factor,
                cfg.strategy.mode.value,
                cfg.strategy.tau,
                outcome_u,
                in_plane_noise(z, cfg.sensor, cfg.geometry),
                tie_u,
            )
            assert (row["outcome"], row["inferred"], row["resent"]) == (outcome, inferred, state)
            np.testing.assert_allclose(row["posterior"], posterior, rtol=0.0, atol=1e-12)
            resends.add(bool(row["resent"] == row["inferred"]))
        else:
            assert (row["outcome"], row["inferred"], row["resent"]) == (-1, -1, -1)
            assert not row["posterior"].any()
        bob_basis = int(2.0 * basis_u)
        p0 = oracles.bob_bit_distribution(oracles.LABELS[state], "ZX"[bob_basis])[0]
        bob_bit = 0 if bit_u < p0 else 1
        assert (row["bob_basis"], row["bob_bit"]) == (bob_basis, bob_bit)
        sifted = bob_basis == alice >> 1
        assert row["sifted"] == sifted
        assert row["error"] == (sifted and bob_bit != alice & 1)
    if case == "threshold":
        assert resends == {True, False}
    if case == "fraction-0.7":
        assert 0 < np.count_nonzero(~transcript["attacked"]) < n


@pytest.mark.parametrize("b, seed", [(0.01, 41), (0.03, 42), (0.05, 43)])
def test_eve_accuracy_follows_the_full_field_law(b, seed):
    # The oracle adds noise to all 24 field components and scores the
    # nearest scaled mean; the engine draws 2 normals in the plane.
    n = 200_000
    cfg = eve_config(b=b, born=False)
    stats, _ = run_session(n, cfg, seed=seed, with_records=False)
    residuals = decay_factor(cfg.params) * GEOM.mix_matrix
    expected = oracles.four_hypothesis_mc(residuals, cfg.sensor.sigma, 1, n, seed)
    spread = math.hypot(
        oracles.binomial_sigma(stats.eve_accuracy, n), oracles.binomial_sigma(expected, n)
    )
    assert abs(stats.eve_accuracy - expected) <= 4 * spread


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("test_mass, sigma", [(1e150, 1e140), (1e200, 1e190)])
def test_a_huge_field_runs_or_fails_with_one_clean_error(test_mass, sigma):
    # Every field is finite at both masses; at 1e200 kg Eve's scores
    # S.r_h are not, so each call names the culprits, with no warning.
    huge = Geometry(GEOM.sites, GEOM.probes, test_mass=test_mass)
    params, sensor = NonlinearParams(b=0.05), SensorModel(sigma=sigma)
    strategy = EveStrategy("Threshold", tau=0.6)
    cfg = EveConfig(huge, params, sensor, strategy)
    calls = [
        lambda: run_session(200, cfg, seed=4)[1]["posterior"],
        lambda: monte_carlo_accuracy(params, huge, sensor, 200, np.random.default_rng(4)),
        lambda: cloning_fidelity(strategy, params, huge, sensor, 200, np.random.default_rng(4)),
    ]
    for call in calls:
        if test_mass == 1e200:
            with pytest.raises(ValidationError, match=r"^geometry\.testMass, sensor\.sigma: "):
                call()
        else:
            assert np.isfinite(call()).all()


def test_session_is_a_prefix_of_a_longer_one():
    cfg = eve_config("Threshold", fraction=0.7, tau=0.6)
    short_stats, short = run_session(300, cfg, seed=8)
    _, long = run_session(700, cfg, seed=8)
    assert np.array_equal(short, long[:300])
    assert short_stats == run_session(300, cfg, seed=8, with_records=False)[0]
    # 4500 rounds cross the 4096-round chunk of a pass with Eve.
    _, crossing = run_session(4500, cfg, seed=8)
    _, longer = run_session(9000, cfg, seed=8)
    assert np.array_equal(crossing, longer[:4500])
    _, honest_short = run_session(50, seed=8)
    _, honest_long = run_session(2100, seed=8)
    assert np.array_equal(honest_short, honest_long[:50])
    # And the 4096-round chunk of an honest pass.
    _, honest_crossing = run_session(4500, seed=8)
    _, honest_longer = run_session(9000, seed=8)
    assert np.array_equal(honest_crossing, honest_longer[:4500])


@pytest.mark.parametrize("variates", [1, 40, 200])
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, variates):
    cases = [
        eve_config("Threshold", fraction=0.7, samples=3, tau=0.6),
        eve_config(b=0.0, born=False),
        None,
    ]
    expected = [run_session(500, cfg, seed=21) for cfg in cases]
    monkeypatch.setattr(protocol, "_CHUNK_VARIATES", variates)
    for cfg, (stats, transcript) in zip(cases, expected):
        got_stats, got_transcript = run_session(500, cfg, seed=21)
        assert got_stats == stats
        assert np.array_equal(got_transcript, transcript)


# Chunks of 1, 25, 4096 (the default) and 8192 rounds: the pass's 8 points
# of 130 rounds span many chunks each, share chunks at their edges, or all
# lie in one chunk.
@pytest.mark.parametrize("variates", [1, 200, 65536])
def test_sweep_rows_do_not_depend_on_the_chunk_size(monkeypatch, variates):
    base = load_config("default.json")
    base = replace(base, nonlinear=replace(base.nonlinear, b=0.05))
    spec = SweepSpec(
        grids=(
            ("strategy", ("Threshold", "ResendMeasured")),
            ("attackFraction", (0.7, 1.0)),
            ("samples", (1, 3)),
            ("tau", (0.6,)),
        ),
        rounds_per_point=130,
        seed_base=5,
    )
    expected = sweep(spec, base)
    monkeypatch.setattr(protocol, "_CHUNK_VARIATES", variates)
    assert sweep(spec, base) == expected


LEAK_CFG = eve_config("Threshold", fraction=0.7, tau=0.6)


# A pass of P sessions of n rounds is one run of P * n rounds cut every
# 4096: 2 x 5000 rounds take ceil(10000 / 4096) = 3 attacked chunks, and
# 2 x 3000 rounds take 2.
@pytest.mark.parametrize("rounds, chunks", [(5000, 3), (3000, 2)])
def test_a_pass_runs_full_chunks_across_its_sessions(rounds, chunks):
    configs = [eve_config("Threshold", fraction=1.0, tau=0.6), LEAK_CFG]
    table = LEAK_CFG._columns(attack_fraction=[1.0, 0.7])
    transcript = np.zeros(2 * rounds, protocol._TRANSCRIPT)
    for name in ("outcome", "inferred", "resent"):
        transcript[name] = -1
    with mock.patch.object(protocol, "_attack_batch", wraps=protocol._attack_batch) as batch:
        counts = protocol._simulate(rounds, [60, 61], table, transcript)
    assert batch.call_count == chunks == math.ceil(2 * rounds / 4096)
    # Session 1 spans the last two chunks; each row is the session's alone.
    rows = protocol._session_rows(rounds, counts, True)
    for p, (cfg, row) in enumerate(zip(configs, rows)):
        stats, alone = run_session(rounds, cfg, seed=60 + p)
        assert stats == protocol.SessionStats(*row)
        assert np.array_equal(transcript[p * rounds : (p + 1) * rounds], alone)


def test_kept_buffers_never_show_in_a_result():
    # Every pass, however short, draws into the buffer its thread keeps.
    expected = run_session(3000, LEAK_CFG, seed=12)
    short = run_session(50, LEAK_CFG, seed=15)
    stats, transcript = run_session(3000, LEAK_CFG, seed=12)
    assert stats == expected[0] and np.array_equal(transcript, expected[1])
    # A larger pass grows the buffer, a smaller one overwrites its start.
    run_session(9000, LEAK_CFG, seed=13)
    run_session(100, None, seed=14)
    assert stats == expected[0] and np.array_equal(transcript, expected[1])
    again = run_session(3000, LEAK_CFG, seed=12)
    assert again[0] == stats and np.array_equal(again[1], transcript)
    again = run_session(50, LEAK_CFG, seed=15)
    assert again[0] == short[0] and np.array_equal(again[1], short[1])


def test_a_short_session_in_a_new_thread_draws_into_a_kept_buffer():
    def job():
        result = run_session(50, LEAK_CFG, seed=16)
        return result, len(protocol._buffers.draws)

    with ThreadPoolExecutor(max_workers=1) as pool:
        (stats, transcript), kept_rounds = pool.submit(job).result(timeout=60)
    assert kept_rounds >= 50
    alone = run_session(50, LEAK_CFG, seed=16)
    assert stats == alone[0] and np.array_equal(transcript, alone[1])


def test_threads_draw_into_buffers_of_their_own():
    spec = SweepSpec(
        grids=(("strategy", ("Threshold", "ResendMeasured")), ("samples", (1, 3))),
        rounds_per_point=700,
        seed_base=30,
    )
    base = load_config("default.json").with_overrides({"b": 0.05})
    jobs = [
        lambda: run_session(6000, LEAK_CFG, seed=31),
        lambda: run_session(2500, None, seed=32),
        lambda: sweep(spec, base),
        lambda: run_session(4500, LEAK_CFG, seed=33),
    ]
    sequential = [job() for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                futures = [pool.submit(job) for job in jobs]
                for future, want in zip(futures, sequential):
                    got = future.result(timeout=60)
                    if isinstance(want, list):  # sweep rows
                        assert got == want
                    else:
                        assert got[0] == want[0] and np.array_equal(got[1], want[1])
    finally:
        sys.setswitchinterval(interval)


def _per_round_pass(rounds, seeds, table):
    """_simulate's counts and transcript for a pass of several sessions, one setting each."""
    transcript = np.zeros(rounds * len(seeds), protocol._TRANSCRIPT)
    for name in ("outcome", "inferred", "resent"):
        transcript[name] = -1
    return protocol._simulate(rounds, seeds, table, transcript), transcript


SCRATCH_TABLE = LEAK_CFG._columns(
    attack_fraction=[1.0, 0.7, 0.4], mode=list(StrategyMode), samples=[1, 3, 2]
)


def test_kept_kernel_scratch_never_shows_in_a_result():
    kernel_results = []
    original = protocol._attack_batch

    def attack_batch(*args):
        result = original(*args)
        kernel_results.append((result, protocol._buffers.kernel))
        return result

    def passes():
        # A new thread starts with no scratch: the larger pass grows it, the
        # smaller one overwrites its start.
        first = _per_round_pass(300, [40, 41, 42], SCRATCH_TABLE)
        kept = len(protocol._buffers.kernel)
        _per_round_pass(1500, [43, 44, 45], SCRATCH_TABLE)
        assert len(protocol._buffers.kernel) > kept
        _per_round_pass(20, [46, 47, 48], SCRATCH_TABLE)
        again = _per_round_pass(300, [40, 41, 42], SCRATCH_TABLE)
        return first, again, protocol._buffers.kernel

    with mock.patch.object(protocol, "_attack_batch", side_effect=attack_batch):
        with ThreadPoolExecutor(max_workers=1) as pool:
            first, again, kernel = pool.submit(passes).result(timeout=60)
    main = _per_round_pass(300, [40, 41, 42], SCRATCH_TABLE)
    for got, other, want in zip(again, main, first):
        assert np.array_equal(got, want) and np.array_equal(other, want)
    assert kernel_results and all(scratch is not None for _, scratch in kernel_results)
    for result, scratch in kernel_results:
        assert not any(np.shares_memory(array, scratch) for array in result)
    for array in (*first, *again):
        assert not np.shares_memory(array, kernel)
    for array in main:
        assert not np.shares_memory(array, protocol._buffers.kernel)


# Five warmed passes of the benchmark's sweep-grid shape, 72 settings of 50
# rounds in one 3600-round chunk, in a fresh interpreter: in this process,
# earlier tests free arrays of many MiB, after which glibc trims the heap
# too rarely for the count to show anything.
FAULT_PROBE = """
import itertools, resource
from gravsim import StrategyMode, load_config, protocol

grid = itertools.product([0.0, 0.05, 0.5], [1e-30, 1e-12, 2.5e-12, 1e-11], [0.5, 1.0], StrategyMode)
b, sigma, fraction, mode = (list(column) for column in zip(*grid))
cfg = load_config("default.json").to_eve_config()
table = cfg._columns(b=b, sigma=sigma, attack_fraction=fraction, mode=mode)
seeds = range(500, 500 + len(b))
for _ in range(3):
    protocol._simulate(50, seeds, table)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    protocol._simulate(50, seeds, table)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts minor page faults with getrusage; the heap trim they came from is glibc's",
)
def test_kept_kernel_scratch_keeps_per_round_passes_from_page_faulting():
    child = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        env=gravsim_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert int(child.stdout) <= 25


def test_round_block_layout():
    # every round owns 8 draws, two Philox counter steps: six uniforms and one Box-Muller pair
    assert protocol._BLOCK == 8
    uniforms = protocol._uniforms(protocol._round_draws(5, 3, 5))
    raw = np.random.Philox(5).random_raw(5 * 8)[3 * 8 :]
    assert uniforms.tolist() == ((raw.reshape(2, 8) >> 11) * 2.0**-53).tolist()
    u, v = uniforms[0, 6:]
    radius = math.sqrt(-2.0 * math.log1p(-u))
    z = protocol._box_muller(uniforms[:, 6], uniforms[:, 7])
    assert z.shape == (2, 2)
    assert z[:, 0] == pytest.approx(
        [radius * math.cos(2.0 * math.pi * v), radius * math.sin(2.0 * math.pi * v)],
        rel=1e-15,
    )
    assert protocol.RNG_CONTRACT == 3


def test_session_memory_does_not_grow_with_length():
    cfg = eve_config(fraction=0.7)
    # A full chunk first, so that neither measured pass allocates the kept draw buffer.
    run_session(5000, cfg, seed=1)
    peaks = []
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            run_session(n, cfg, seed=1, with_records=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert large <= 1.05 * small


# Past int64, and far past what a sensor could take, but a float all the same.
HUGE_SAMPLES = 10**23


@pytest.mark.filterwarnings("error")
def test_a_sample_count_beyond_int64_runs():
    # So many readings average the noise away: Eve reads every preparation.
    stats, transcript = run_session(300, eve_config(samples=HUGE_SAMPLES), seed=2)
    assert stats.eve_accuracy == 1.0
    assert np.isfinite(transcript["posterior"]).all()
    spec = SweepSpec(grids=(("samples", (HUGE_SAMPLES, 1)),), rounds_per_point=300, seed_base=2)
    rows = sweep(spec, load_config("default.json").with_overrides({"b": 0.05}))
    assert rows[0] == {"samples": HUGE_SAMPLES, **stats.to_dict()}


def test_a_sample_count_beyond_double_precision_is_rejected():
    with pytest.raises(ValidationError, match=r"^sensor\.samples: must be finite, got 1000"):
        SensorModel(samples=10**400)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_sigma_fails_alike_for_every_seed_and_length():
    # Most 5-round sessions draw no normal large enough to overflow at 5e307,
    # but the engine can draw one, so every session fails before its first round.
    cfg = eve_config(b=0.05, sigma=5e307)
    for seed in range(20):
        for n in (5, 3000):
            with pytest.raises(ValidationError) as info:
                run_session(n, cfg, seed=seed)
            assert str(info.value) == "sensor.sigma: 5e+307 overflows the sensor readings"


def test_the_extent_is_the_largest_box_muller_radius():
    extent = protocol._NORMAL_EXTENT
    assert extent == pytest.approx(math.sqrt(-2.0 * math.log(2.0**-53)), rel=1e-15)
    u = np.nextafter(1.0, 0.0) - np.array([0.0, 2.0**-53, 2.0**-40, 0.5])
    normals = protocol._box_muller(u, np.linspace(0.0, 1.0, len(u), endpoint=False))
    assert np.abs(normals).max() == extent


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    log10_mass=st.floats(-3.0, 300.0),
    # Half the draws near the top, where a sigma overflows for some normals and not others.
    log10_sigma=st.one_of(st.floats(-30.0, 308.0), st.floats(306.5, 308.0)),
    b=st.floats(0.0, 1.0),
    samples=st.integers(1, 10**6),
    born=st.booleans(),
)
@example(log10_mass=150.0, log10_sigma=140.0, b=0.05, samples=1, born=True)
@example(log10_mass=200.0, log10_sigma=190.0, b=0.05, samples=1, born=True)
@example(log10_mass=0.0, log10_sigma=math.log10(5e307), b=0.05, samples=1, born=False)
@example(log10_mass=0.0, log10_sigma=math.log10(2e307), b=0.05, samples=1, born=False)
@pytest.mark.filterwarnings("error")
def test_a_setting_the_rule_accepts_scores_every_normal_the_engine_draws(
    log10_mass, log10_sigma, b, samples, born
):
    geom = Geometry(GEOM.sites, GEOM.probes, test_mass=10.0**log10_mass)
    sensor = SensorModel(sigma=10.0**log10_sigma, samples=samples)
    cfg = EveConfig(geom, NonlinearParams(b=b), sensor, EveStrategy(), born_factor=born)
    table = cfg._table
    try:
        _check_table(table, protocol._NORMAL_EXTENT)
    except ValidationError as rejected:
        with pytest.raises(ValidationError) as info:
            run_session(1, cfg, seed=0)
        assert str(info.value) == str(rejected)
        return
    # Every truth and outcome against the normals at the corners and edges of the extent.
    e = protocol._NORMAL_EXTENT
    corners = [(x, y) for x in (-e, 0.0, e) for y in (-e, 0.0, e)]
    truth, outcome = np.divmod(np.arange(16).repeat(len(corners)), 4)
    normals = np.tile(corners, (16, 1))
    statistic = _plane_statistic(table, 0, truth, normals.T)
    prior = _LOG_PRIORS.take(4 * int(born) + outcome, axis=1)
    offsets = table.offsets[0][:, np.newaxis]
    logits = _logits(statistic, table.residuals[0], offsets, table.sigma[0], prior)
    assert np.isfinite(statistic).all()
    assert not np.isnan(logits).any() and (logits < np.inf).all()
    assert np.isfinite(logits.max(axis=0)).all()
