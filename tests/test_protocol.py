"""Unit tests for session orchestration, sifting, and security accounting."""

import json
import math

import numpy as np
import pytest

import oracles
from gravsim import (
    ABORT_QBER,
    EveConfig,
    EveStrategy,
    Geometry,
    NonlinearParams,
    SensorModel,
    ValidationError,
    binary_entropy,
    key_rate,
    run_session,
)
from gravsim.protocol import _mutual_information


@pytest.fixture(scope="module")
def geom():
    return Geometry()


def eve_config(
    geom,
    b: float = 0.0,
    sigma: float = 2.5e-12,
    mode: str = "ResendMeasured",
    attack_fraction: float = 1.0,
    born_factor: bool = True,
) -> EveConfig:
    return EveConfig(
        geometry=geom,
        params=NonlinearParams(b=b),
        sensor=SensorModel(sigma=sigma),
        strategy=EveStrategy(mode),
        attack_fraction=attack_fraction,
        born_factor=born_factor,
    )


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(oracles.H2_QUARTER, abs=1e-15)
    for p in (0.1, 0.3, 0.47):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-15)
        assert binary_entropy(p) == pytest.approx(oracles.binary_entropy_reference(p), abs=1e-15)


def test_binary_entropy_validation():
    with pytest.raises(ValidationError):
        binary_entropy(-0.01)
    with pytest.raises(ValidationError):
        binary_entropy(1.01)


def test_key_rate_endpoints():
    assert key_rate(0.0, 0.0) == (1.0, 1.0)
    assert key_rate(0.0, 1.0) == (1.0, 0.0)
    theory, attack = key_rate(0.25, 0.5)
    assert theory == 0.0
    assert attack == 0.0
    theory, attack = key_rate(0.5, 0.0)
    assert theory == 0.0 and attack == 0.0


def test_key_rate_formula():
    q, info = 0.05, 0.3
    h = oracles.binary_entropy_reference(q)
    theory, attack = key_rate(q, info)
    assert theory == pytest.approx(1.0 - 2.0 * h, abs=1e-15)
    assert attack == pytest.approx(1.0 - h - info, abs=1e-15)


def test_key_rate_validation():
    with pytest.raises(ValidationError, match="qber"):
        key_rate(1.2, 0.0)
    with pytest.raises(ValidationError, match="qber"):
        key_rate(-0.1, 0.0)
    with pytest.raises(ValidationError, match="eveInfo"):
        key_rate(0.1, -0.5)


def plug_in_mutual_information(pairs) -> float:
    """I(A;E) in bits of the empirical distribution of (a, e) pairs, written out term by term."""
    n = len(pairs)
    total = 0.0
    for pair in set(pairs):
        p_joint = pairs.count(pair) / n
        p_a = sum(a == pair[0] for a, _ in pairs) / n
        p_e = sum(e == pair[1] for _, e in pairs) / n
        total += p_joint * math.log2(p_joint / (p_a * p_e))
    return total


# Joint count tables: rows Alice's sifted bit, columns Eve's guess 0, 1 or no guess.


def test_eve_information_perfect_correlation():
    assert _mutual_information(np.array([[2, 0, 0], [0, 2, 0]])) == pytest.approx(1.0, abs=1e-15)


def test_eve_information_independent_guess_is_zero():
    assert _mutual_information(np.array([[1, 1, 0], [1, 1, 0]])) == 0.0


def test_eve_information_wrong_basis_counts_as_no_guess():
    # every round in the no-guess column, as when Eve infers a conjugate-basis symbol
    assert _mutual_information(np.array([[0, 0, 3], [0, 0, 5]])) == 0.0


def test_eve_information_matches_session_statistic(geom):
    cfg = eve_config(geom, b=0.03, mode="CloneInferred", attack_fraction=0.6)
    stats, transcript = run_session(2000, cfg, seed=31)
    sifted = transcript[transcript["sifted"]]
    alice_bit = sifted["alice"] & 1
    # an inferred symbol outside Alice's basis, or no attack at all, is no guess (2)
    same_basis = sifted["attacked"] & (sifted["inferred"] >> 1 == sifted["alice"] >> 1)
    guess = np.where(same_basis, sifted["inferred"] & 1, 2)
    assert set(guess.tolist()) == {0, 1, 2}
    expected = plug_in_mutual_information(list(zip(alice_bit.tolist(), guess.tolist())))
    assert stats.eve_mutual_info == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_run_session_without_eve_is_clean(geom):
    n = 4000
    stats, transcript = run_session(n, seed=12)
    assert stats.rounds == n
    assert stats.qber == 0.0
    assert stats.key_rate_theory == 1.0
    assert stats.key_rate_attack == 1.0
    assert stats.eve_accuracy is None
    assert stats.eve_mutual_info is None
    assert not stats.aborted
    assert not transcript["attacked"].any()
    assert (transcript["outcome"] == -1).all() and (transcript["posterior"] == 0.0).all()
    bound = 4 * oracles.binomial_sigma(0.5, n)
    assert stats.sifted_count / n == pytest.approx(0.5, abs=bound)


def test_run_session_record_invariants(geom):
    _, transcript = run_session(1500, eve_config(geom), seed=14)
    assert transcript.shape == (1500,)
    alice = transcript["alice"]
    sifted = transcript["sifted"]
    assert np.array_equal(sifted, transcript["bob_basis"] == alice >> 1)
    bit_differs = transcript["bob_bit"] != alice & 1
    assert np.array_equal(transcript["error"][sifted], bit_differs[sifted])
    assert not transcript["error"][~sifted].any()
    assert transcript["attacked"].all()
    # ResendMeasured forwards the outcome
    assert np.array_equal(transcript["resent"], transcript["outcome"])


def test_run_session_stats_are_json_safe(geom):
    stats, _ = run_session(200, eve_config(geom), seed=2)
    payload = stats.to_dict()
    assert list(payload) == [
        "rounds",
        "siftedCount",
        "qber",
        "eveAccuracy",
        "eveMutualInfo",
        "keyRateTheory",
        "keyRateAttack",
        "aborted",
    ]
    json.dumps(payload)
    for value in payload.values():
        assert value is None or type(value) in (int, float, bool)


def test_run_session_is_deterministic(geom):
    cfg = eve_config(geom, mode="CloneInferred", b=0.05)
    stats_a, transcript_a = run_session(800, cfg, seed=77)
    stats_b, transcript_b = run_session(800, cfg, seed=77)
    assert stats_a == stats_b
    assert np.array_equal(transcript_a, transcript_b)
    stats_c, transcript_c = run_session(800, cfg, seed=77, with_records=False)
    assert stats_c == stats_a
    assert transcript_c is None


def test_run_session_validation(geom):
    with pytest.raises(ValidationError, match="session.rounds"):
        run_session(0, seed=1)
    with pytest.raises(ValidationError, match="session.rounds"):
        run_session(True, seed=1)
    with pytest.raises(ValidationError, match="session.seed"):
        run_session(10, seed=-1)
    with pytest.raises(ValidationError, match="session.seed"):
        run_session(10, seed=True)
    with pytest.raises(ValidationError, match="session.seed"):
        run_session(10, seed=1.5)
    with pytest.raises(ValidationError, match="eve_config"):
        run_session(10, "CloneInferred", seed=1)


def test_run_session_intercept_resend_aborts(geom):
    n = 20_000
    stats, _ = run_session(n, eve_config(geom), seed=5)
    qber_bound = 4 * oracles.binomial_sigma(0.25, stats.sifted_count)
    assert stats.qber == pytest.approx(float(oracles.intercept_resend_qber()), abs=qber_bound)
    assert stats.qber > ABORT_QBER
    assert stats.aborted
    assert stats.key_rate_theory == 0.0


def test_run_session_strong_coupling_breaks_the_protocol(geom):
    cfg = eve_config(geom, b=0.1, sigma=1e-30, mode="CloneInferred")
    stats, transcript = run_session(2000, cfg, seed=9)
    assert stats.qber == 0.0
    assert stats.eve_accuracy == 1.0
    assert not stats.aborted
    assert stats.key_rate_theory == 1.0
    assert stats.eve_mutual_info >= 0.99
    assert stats.key_rate_attack == pytest.approx(1.0 - stats.eve_mutual_info, abs=1e-15)
    assert transcript["attacked"].all()
    assert np.array_equal(transcript["resent"], transcript["alice"])


@pytest.mark.parametrize("sigma", [1e-160, 1e-170])
def test_run_session_tiny_sigma_breaks_the_protocol(geom, sigma):
    cfg = eve_config(geom, b=0.05, sigma=sigma, mode="CloneInferred")
    stats, _ = run_session(400, cfg, seed=9, with_records=False)
    assert stats.qber == 0.0
    assert stats.eve_accuracy == 1.0


def test_run_session_without_sifted_rounds_has_no_verdict(geom):
    # the first seed whose 3 rounds all go unsifted (probability 1/8 per seed)
    stats = next(
        stats
        for stats, _ in (run_session(3, eve_config(geom), seed=seed) for seed in range(200))
        if stats.sifted_count == 0
    )
    assert stats.sifted_count == 0
    assert stats.qber is None
    assert stats.key_rate_theory is None
    assert stats.key_rate_attack is None
    assert stats.eve_mutual_info is None
    assert stats.aborted


def test_run_session_attack_fraction_half(geom):
    n = 6000
    cfg = eve_config(geom, attack_fraction=0.5)
    stats, transcript = run_session(n, cfg, seed=19)
    attacked = int(transcript["attacked"].sum())
    bound = 4 * oracles.binomial_sigma(0.5, n)
    assert attacked / n == pytest.approx(0.5, abs=bound)
    # half the traffic intercepted halves the error rate
    qber_bound = 4 * oracles.binomial_sigma(0.125, stats.sifted_count)
    assert stats.qber == pytest.approx(0.125, abs=qber_bound)


def test_run_session_attack_fraction_zero(geom):
    stats, transcript = run_session(1200, eve_config(geom, attack_fraction=0.0), seed=23)
    assert not transcript["attacked"].any()
    assert stats.eve_accuracy is None
    assert stats.eve_mutual_info == 0.0  # every sifted round lands in the no-guess bin
    assert stats.qber == 0.0


def test_run_session_accuracy_decreases_with_noise(geom):
    n = 4000
    accuracies = []
    for sigma in (1e-12, 2e-12, 4e-12, 8e-12, 1.6e-11):
        cfg = eve_config(geom, b=0.1, sigma=sigma, mode="CloneInferred")
        stats, _ = run_session(n, cfg, seed=41, with_records=False)
        accuracies.append(stats.eve_accuracy)
    slack = 3 * math.sqrt(0.25 / n)
    for louder, quieter in zip(accuracies[1:], accuracies):
        assert louder <= quieter + slack
    assert accuracies[0] > 0.99
    assert accuracies[-1] < 0.7
