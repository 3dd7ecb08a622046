"""Unit tests for Eve's sensing, inference, resend strategies, and accuracy math."""

import math

import numpy as np
import pytest

import oracles
from gravsim import (
    Bb84Symbol,
    EveRecord,
    EveStrategy,
    NonlinearParams,
    SYMBOLS,
    SensorModel,
    StrategyMode,
    ValidationError,
    analytic_accuracy,
    attack_round,
    cloning_fidelity,
    config_field,
    default_geometry,
    eve_dual_basis_measure,
    general_field,
    hypothesis_residuals,
    infer_alice_state,
    monte_carlo_accuracy,
    prepare,
    sense,
)
from gravsim.qubits import BRANCH_WEIGHTS

# |mix_field| distance between the closest residual pair at b=1 in the
# bundled geometry; pinned by test_gravity's frozen-norm checks.
CLOSEST_PAIR_NORM = 1.2191467782674696e-10


@pytest.fixture(scope="module")
def geom():
    return default_geometry()


def sigma_for_separation(d_min: float, b: float = 0.1, samples: int = 1) -> float:
    """Noise level that puts the closest hypothesis pair at separation d_min."""
    return math.sqrt(samples) * b * CLOSEST_PAIR_NORM / d_min


def test_sensor_model_validation():
    with pytest.raises(ValidationError, match="sensor.sigma"):
        SensorModel(sigma=0.0)
    with pytest.raises(ValidationError, match="sensor.sigma"):
        SensorModel(sigma=math.inf)
    with pytest.raises(ValidationError, match="sensor.samples"):
        SensorModel(sigma=1.0, samples=0)
    with pytest.raises(ValidationError, match="sensor.samples"):
        SensorModel(sigma=1.0, samples=2.5)


def test_eve_strategy_validation():
    strategy = EveStrategy("Threshold", tau=0.5)
    assert strategy.mode is StrategyMode.THRESHOLD
    with pytest.raises(ValidationError, match="eve.strategy"):
        EveStrategy("CloneLoudly")
    with pytest.raises(ValidationError, match="eve.tau"):
        EveStrategy(StrategyMode.THRESHOLD, tau=0.0)
    with pytest.raises(ValidationError, match="eve.tau"):
        EveStrategy(StrategyMode.THRESHOLD, tau=1.5)


def test_eve_record_posterior_validation():
    with pytest.raises(ValidationError, match="posterior"):
        EveRecord(
            outcome=Bb84Symbol.Z0,
            inferred=Bb84Symbol.Z0,
            posterior=(0.5, 0.5, 0.5, 0.5),
            resent=Bb84Symbol.Z0,
            cloned=True,
        )


def test_sense_shape_and_vanishing_noise(geom):
    field = config_field(Bb84Symbol.Z0, geom)
    readings = sense(field, SensorModel(sigma=1e-30, samples=3), np.random.default_rng(1))
    assert readings.shape == (3, geom.field_dim)
    assert np.abs(readings - field).max() < 1e-25


def test_sense_mean_converges(geom):
    field = np.zeros(6)
    n = 100_000
    readings = sense(field, SensorModel(sigma=1.0, samples=n), np.random.default_rng(8))
    assert np.abs(readings.mean(axis=0)).max() < 5.0 / math.sqrt(n)


def test_sense_rejects_matrix_input():
    with pytest.raises(ValidationError):
        sense(np.zeros((2, 3)), SensorModel(sigma=1.0), np.random.default_rng(0))


def test_hypothesis_residuals_scale_with_decay(geom):
    params = NonlinearParams(b=0.5, lam=1.0, delta_t=1.0)
    rows = hypothesis_residuals(params, geom)
    assert rows.shape == (4, geom.field_dim)
    assert np.array_equal(rows, (0.5 * math.exp(-1.0)) * geom.mix_matrix)
    assert np.all(hypothesis_residuals(NonlinearParams(b=0.0), geom) == 0.0)


def test_infer_validates_readings(geom):
    params = NonlinearParams(b=0.1)
    sensor = SensorModel(sigma=1e-12)
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="non-empty"):
        infer_alice_state(np.empty((0, geom.field_dim)), Bb84Symbol.Z0, geom, params, sensor, rng)
    with pytest.raises(ValidationError, match="shape"):
        infer_alice_state(np.zeros((1, 5)), Bb84Symbol.Z0, geom, params, sensor, rng)


def test_infer_accepts_flat_single_reading(geom):
    params = NonlinearParams(b=0.1)
    sensor = SensorModel(sigma=1e-30)
    field = general_field(Bb84Symbol.Z1, Bb84Symbol.Z1, params, geom)
    inferred, posterior = infer_alice_state(
        field.copy(), Bb84Symbol.Z1, geom, params, sensor, np.random.default_rng(4)
    )
    assert inferred is Bb84Symbol.Z1
    assert tuple(posterior) == (0.0, 1.0, 0.0, 0.0)


def test_infer_degenerate_posterior_is_exactly_uniform(geom):
    params = NonlinearParams(b=0.0)
    sensor = SensorModel(sigma=2.5e-12)
    rng = np.random.default_rng(7)
    counts = np.zeros(4, dtype=int)
    n = 4000
    for _ in range(n):
        readings = sense(config_field(Bb84Symbol.XP, geom), sensor, rng)
        inferred, posterior = infer_alice_state(
            readings, Bb84Symbol.XP, geom, params, sensor, rng, born_factor=False
        )
        assert tuple(posterior) == (0.25, 0.25, 0.25, 0.25)
        counts[inferred] += 1
    bound = 4 * oracles.binomial_sigma(0.25, n)
    for count in counts:
        assert count / n == pytest.approx(0.25, abs=bound)


def test_infer_born_factor_reweights_by_outcome_law(geom):
    params = NonlinearParams(b=0.0)
    sensor = SensorModel(sigma=2.5e-12)
    rng = np.random.default_rng(9)
    readings = sense(config_field(Bb84Symbol.Z0, geom), sensor, rng)
    inferred, posterior = infer_alice_state(
        readings, Bb84Symbol.Z0, geom, params, sensor, rng, born_factor=True
    )
    # P(h | outcome Z0) is the Z0 branch weight of each hypothesis
    assert posterior[Bb84Symbol.Z1] == 0.0  # orthogonal preparation is impossible
    assert np.allclose(posterior, [0.5, 0.0, 0.25, 0.25], atol=1e-15)
    assert inferred is Bb84Symbol.Z0


def test_infer_consumes_one_tie_break_draw_even_without_ties(geom):
    params = NonlinearParams(b=0.1)
    sensor = SensorModel(sigma=1e-13)
    field = general_field(Bb84Symbol.Z1, Bb84Symbol.Z1, params, geom)
    used = np.random.default_rng(21)
    shadow = np.random.default_rng(21)
    readings = sense(field, sensor, used)
    sense(field, sensor, shadow)
    infer_alice_state(readings, Bb84Symbol.Z1, geom, params, sensor, used)
    shadow.random()
    assert used.random() == shadow.random()


@pytest.mark.parametrize("sigma", [1e-160, 1e-170])
def test_infer_tiny_sigma_identifies_the_preparation(geom, sigma):
    # sigma**2 is subnormal at 1e-160 and zero at 1e-170
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=sigma)
    rng = np.random.default_rng(13)
    for prepared in SYMBOLS:
        outcome = eve_dual_basis_measure(prepare(prepared), rng)
        field = general_field(outcome, prepared, params, geom)
        readings = sense(field, sensor, rng)
        inferred, posterior = infer_alice_state(readings, outcome, geom, params, sensor, rng)
        assert inferred is prepared
        assert posterior[prepared] == 1.0
        assert posterior.sum() == 1.0


@pytest.mark.filterwarnings("error")
def test_infer_rejects_readings_that_overflow(geom):
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=1e308, samples=8)
    rng = np.random.default_rng(4)
    readings = sense(general_field(Bb84Symbol.Z0, Bb84Symbol.Z0, params, geom), sensor, rng)
    with pytest.raises(ValidationError, match="sensor.sigma"):
        infer_alice_state(readings, Bb84Symbol.Z0, geom, params, sensor, rng)
    # each reading finite, but their sum is not
    readings = np.full((2, geom.field_dim), 1e308)
    with pytest.raises(ValidationError, match="sensor.sigma"):
        infer_alice_state(readings, Bb84Symbol.Z0, geom, params, sensor, rng)


@pytest.mark.filterwarnings("error")
def test_monte_carlo_rejects_an_overflowing_statistic(geom):
    sensor = SensorModel(sigma=1e308, samples=8)
    with pytest.raises(ValidationError, match="sensor.sigma"):
        monte_carlo_accuracy(NonlinearParams(b=0.05), geom, sensor, 4000, np.random.default_rng(1))


@pytest.mark.filterwarnings("error")
def test_huge_finite_sigma_still_runs(geom):
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=1e300, samples=8)
    accuracy = monte_carlo_accuracy(params, geom, sensor, 4000, np.random.default_rng(1))
    assert accuracy == pytest.approx(0.25, abs=4 * oracles.binomial_sigma(0.25, 4000))
    rng = np.random.default_rng(5)
    for prepared in SYMBOLS:
        _, record = attack_round(prepared, geom, params, sensor, EveStrategy("Threshold"), rng)
        assert abs(sum(record.posterior) - 1.0) <= 1e-9


def test_infer_born_factor_keeps_a_possible_preparation_at_tiny_sigma(geom):
    # The readings match Z1, which Eve's outcome Z0 rules out. At this sigma
    # the field scores every other preparation -inf against Z1, yet the
    # posterior must stay a distribution over the possible ones.
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=1e-200)
    residuals = hypothesis_residuals(params, geom)
    outcome = Bb84Symbol.Z0
    readings = config_field(outcome, geom) + residuals[Bb84Symbol.Z1]
    inferred, posterior = infer_alice_state(
        readings, outcome, geom, params, sensor, np.random.default_rng(2)
    )
    assert inferred is not Bb84Symbol.Z1
    assert posterior[Bb84Symbol.Z1] == 0.0
    assert np.all(np.isfinite(posterior))
    assert posterior.sum() == pytest.approx(1.0, abs=1e-15)


def test_attack_round_draw_order_contract(geom):
    params = NonlinearParams(b=0.2)
    sensor = SensorModel(sigma=1e-12, samples=2)
    used = np.random.default_rng(33)
    shadow = np.random.default_rng(33)
    attack_round(Bb84Symbol.XP, geom, params, sensor, EveStrategy("CloneInferred"), used)
    shadow.random()  # interception outcome
    shadow.standard_normal((2, geom.field_dim))  # sensor noise block
    shadow.random()  # tie break
    assert used.random() == shadow.random()


def test_attack_round_resend_measured_distribution(geom):
    params = NonlinearParams(b=0.0)
    sensor = SensorModel(sigma=2.5e-12)
    strategy = EveStrategy("ResendMeasured")
    rng = np.random.default_rng(5)
    n = 20_000
    counts = np.zeros(4, dtype=int)
    for _ in range(n):
        resent_state, record = attack_round(Bb84Symbol.Z1, geom, params, sensor, strategy, rng)
        assert record.resent is record.outcome
        assert resent_state == prepare(record.outcome)
        counts[record.resent] += 1
    assert counts[Bb84Symbol.Z0] == 0
    for s, p in ((Bb84Symbol.Z1, 0.5), (Bb84Symbol.XP, 0.25), (Bb84Symbol.XM, 0.25)):
        assert counts[s] / n == pytest.approx(p, abs=4 * oracles.binomial_sigma(p, n))


def test_attack_round_noiseless_clone_is_perfect(geom):
    params = NonlinearParams(b=0.1)
    sensor = SensorModel(sigma=1e-30)
    strategy = EveStrategy("CloneInferred")
    rng = np.random.default_rng(6)
    for prepared in SYMBOLS:
        for _ in range(50):
            resent_state, record = attack_round(prepared, geom, params, sensor, strategy, rng)
            assert record.inferred is prepared
            assert record.resent is prepared
            assert record.cloned
            assert resent_state == prepare(prepared)


def test_attack_round_born_off_resend_is_uniform_and_preparation_blind(geom):
    params = NonlinearParams(b=0.0)
    sensor = SensorModel(sigma=2.5e-12)
    strategy = EveStrategy("CloneInferred")
    n = 8000
    freqs = {}
    for prepared in (Bb84Symbol.Z0, Bb84Symbol.XM):
        rng = np.random.default_rng(40)
        counts = np.zeros(4, dtype=int)
        for _ in range(n):
            _, record = attack_round(
                prepared, geom, params, sensor, strategy, rng, born_factor=False
            )
            counts[record.resent] += 1
        freqs[prepared] = counts / n
    bound = 4 * oracles.binomial_sigma(0.25, n)
    for frequencies in freqs.values():
        assert frequencies == pytest.approx([0.25] * 4, abs=bound)


def test_attack_round_born_on_at_b0_equals_resend_measured(geom):
    params = NonlinearParams(b=0.0)
    sensor = SensorModel(sigma=2.5e-12)
    clone_resents = []
    measured_resents = []
    for strategy, sink in (
        (EveStrategy("CloneInferred"), clone_resents),
        (EveStrategy("ResendMeasured"), measured_resents),
    ):
        for i in range(500):
            rng = np.random.default_rng([77, i])
            _, record = attack_round(
                Bb84Symbol.XP, geom, params, sensor, strategy, rng, born_factor=True
            )
            sink.append(record.resent)
    assert clone_resents == measured_resents


def test_attack_round_resend_measured_ignores_the_field(geom):
    sensor = SensorModel(sigma=2.5e-12)
    strategy = EveStrategy("ResendMeasured")
    transcripts = []
    for b in (0.0, 0.7):
        params = NonlinearParams(b=b)
        resents = []
        for i in range(300):
            rng = np.random.default_rng([88, i])
            _, record = attack_round(Bb84Symbol.Z0, geom, params, sensor, strategy, rng)
            resents.append((record.outcome, record.resent))
        transcripts.append(resents)
    assert transcripts[0] == transcripts[1]


def test_attack_round_threshold_overrides_outcome_when_confident(geom):
    params = NonlinearParams(b=0.1)
    sensor = SensorModel(sigma=1e-30)
    strategy = EveStrategy("Threshold", tau=0.9)
    rng = np.random.default_rng(13)
    overrides = 0
    for _ in range(200):
        _, record = attack_round(Bb84Symbol.Z1, geom, params, sensor, strategy, rng)
        assert record.resent is Bb84Symbol.Z1  # posterior peak is 1 >= tau
        overrides += record.outcome is not Bb84Symbol.Z1
    assert overrides > 0  # cross-basis outcomes occurred and were overridden


def test_attack_round_threshold_falls_back_to_outcome_when_unsure(geom):
    params = NonlinearParams(b=0.0)
    sensor = SensorModel(sigma=2.5e-12)
    threshold_resents = []
    measured_resents = []
    for strategy, sink in (
        (EveStrategy("Threshold", tau=0.9), threshold_resents),
        (EveStrategy("ResendMeasured"), measured_resents),
    ):
        for i in range(300):
            rng = np.random.default_rng([99, i])
            _, record = attack_round(
                Bb84Symbol.XM, geom, params, sensor, strategy, rng, born_factor=False
            )
            sink.append(record.resent)
    assert threshold_resents == measured_resents


def test_attack_round_cloned_flag(geom):
    params = NonlinearParams(b=0.0)
    sensor = SensorModel(sigma=2.5e-12)
    rng = np.random.default_rng(3)
    for _ in range(200):
        _, record = attack_round(
            Bb84Symbol.Z0, geom, params, sensor, EveStrategy("ResendMeasured"), rng
        )
        assert record.cloned == (record.resent is Bb84Symbol.Z0)


def test_attack_round_validates_strategy(geom):
    with pytest.raises(ValidationError, match="strategy"):
        attack_round(
            Bb84Symbol.Z0,
            geom,
            NonlinearParams(b=0.0),
            SensorModel(sigma=1.0),
            "CloneInferred",
            np.random.default_rng(0),
        )


def test_analytic_accuracy_degenerate_case(geom):
    est = analytic_accuracy(NonlinearParams(b=0.0), geom, SensorModel(sigma=1e-12))
    assert est.per_hypothesis == (0.0, 0.0, 0.0, 0.0)
    assert est.mean == 0.0
    assert est.chance == 0.25
    assert est.d_min == 0.0
    assert est.two_hypothesis_exact == pytest.approx(0.5, abs=1e-12)


def test_analytic_accuracy_high_separation_bound(geom):
    sensor = SensorModel(sigma=sigma_for_separation(10.0))
    est = analytic_accuracy(NonlinearParams(b=0.1), geom, sensor)
    assert est.d_min == pytest.approx(10.0, rel=1e-12)
    floor = 1.0 - 3.0 * oracles.Q_OF_5
    for bound in est.per_hypothesis:
        assert bound >= floor - 1e-12
    assert est.mean >= floor - 1e-12


def test_analytic_accuracy_matches_union_bound_oracle(geom):
    params = NonlinearParams(b=0.07)
    sensor = SensorModel(sigma=3e-12, samples=2)
    est = analytic_accuracy(params, geom, sensor)
    want = oracles.union_bound_accuracy(hypothesis_residuals(params, geom), 3e-12, 2)
    assert np.allclose(est.per_hypothesis, want, rtol=1e-9, atol=1e-12)
    assert est.mean == pytest.approx(float(np.mean(want)), rel=1e-9)


def test_analytic_accuracy_closest_pair_and_quadrature(geom):
    sensor = SensorModel(sigma=sigma_for_separation(1.7))
    est = analytic_accuracy(NonlinearParams(b=0.1), geom, sensor)
    assert est.closest_pair == (Bb84Symbol.Z1, Bb84Symbol.XM)
    assert est.d_min == pytest.approx(1.7, rel=1e-12)
    assert est.two_hypothesis_exact == pytest.approx(
        oracles.two_hypothesis_accuracy(est.d_min), abs=1e-10
    )


def test_analytic_accuracy_monotone_in_amplitude_and_samples(geom):
    sensor = SensorModel(sigma=2.5e-12)
    means = [
        analytic_accuracy(NonlinearParams(b=b), geom, sensor).mean
        for b in (0.02, 0.05, 0.1, 0.2, 0.5)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(means, means[1:]))
    by_samples = [
        analytic_accuracy(NonlinearParams(b=0.05), geom, SensorModel(sigma=2.5e-12, samples=k)).mean
        for k in (1, 2, 4, 8)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(by_samples, by_samples[1:]))


def test_monte_carlo_accuracy_at_chance(geom):
    acc = monte_carlo_accuracy(
        NonlinearParams(b=0.0), geom, SensorModel(sigma=1e-12), 100_000, np.random.default_rng(55)
    )
    assert acc == pytest.approx(0.25, abs=4 * oracles.binomial_sigma(0.25, 100_000))


def test_monte_carlo_accuracy_matches_union_bound_at_moderate_separation(geom):
    for d_min, seed in ((3.0, 60), (4.0, 61), (5.0, 62)):
        sensor = SensorModel(sigma=sigma_for_separation(d_min))
        params = NonlinearParams(b=0.1)
        analytic = analytic_accuracy(params, geom, sensor).mean
        mc = monte_carlo_accuracy(params, geom, sensor, 100_000, np.random.default_rng(seed))
        assert mc == pytest.approx(analytic, abs=0.02)


def test_monte_carlo_accuracy_is_deterministic(geom):
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=2.5e-12)
    first = monte_carlo_accuracy(params, geom, sensor, 20_000, np.random.default_rng(70))
    second = monte_carlo_accuracy(params, geom, sensor, 20_000, np.random.default_rng(70))
    assert first == second


@pytest.mark.parametrize("sigma", [1e-160, 1e-170])
def test_monte_carlo_accuracy_at_tiny_sigma_is_perfect(geom, sigma):
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=sigma)
    assert analytic_accuracy(params, geom, sensor).mean == 1.0
    assert monte_carlo_accuracy(params, geom, sensor, 4000, np.random.default_rng(71)) == 1.0


def test_monte_carlo_accuracy_validates_trials(geom):
    with pytest.raises(ValidationError):
        monte_carlo_accuracy(
            NonlinearParams(b=0.1), geom, SensorModel(sigma=1.0), 0, np.random.default_rng(0)
        )


def test_cloning_fidelity_resend_measured(geom):
    fidelity = cloning_fidelity(
        EveStrategy("ResendMeasured"),
        NonlinearParams(b=0.0),
        geom,
        SensorModel(sigma=2.5e-12),
        20_000,
        np.random.default_rng(80),
    )
    assert fidelity == pytest.approx(float(oracles.resend_measured_fidelity()), abs=0.01)


def test_cloning_fidelity_noiseless_clone_is_exact(geom):
    fidelity = cloning_fidelity(
        EveStrategy("CloneInferred"),
        NonlinearParams(b=0.1),
        geom,
        SensorModel(sigma=1e-30),
        2_000,
        np.random.default_rng(81),
    )
    assert fidelity == 1.0


def test_cloning_fidelity_uniform_resend(geom):
    fidelity = cloning_fidelity(
        EveStrategy("CloneInferred"),
        NonlinearParams(b=0.0),
        geom,
        SensorModel(sigma=2.5e-12),
        20_000,
        np.random.default_rng(82),
        born_factor=False,
    )
    assert fidelity == pytest.approx(float(oracles.uniform_resend_fidelity()), abs=0.012)


class FixedDraws:
    """A generator stand-in handing one trial's variates to attack_round."""

    def __init__(self, outcome_u, noise, tie_u):
        self._uniforms = [outcome_u, tie_u]
        self._noise = noise

    def random(self):
        return self._uniforms.pop(0)

    def standard_normal(self, shape):
        return self._noise.reshape(shape)


def test_cloning_fidelity_follows_its_draw_order_and_attack_round(geom):
    params = NonlinearParams(b=0.02)
    sensor = SensorModel(sigma=2.5e-12, samples=2)
    strategy = EveStrategy("Threshold", tau=0.7)
    n = 300
    used = np.random.default_rng(83)
    fidelity = cloning_fidelity(strategy, params, geom, sensor, n, used)
    shadow = np.random.default_rng(83)
    prepared = shadow.integers(4, size=n)
    outcome_draws = shadow.random(n)
    noise = shadow.standard_normal((n, sensor.samples * geom.field_dim))
    tie_draws = shadow.random(n)
    assert used.random() == shadow.random()
    overlaps = []
    for p, u, z, t in zip(prepared.tolist(), outcome_draws.tolist(), noise, tie_draws.tolist()):
        resent, _ = attack_round(
            SYMBOLS[p], geom, params, sensor, strategy, FixedDraws(u, z, t)
        )
        overlaps.append(2.0 * float(BRANCH_WEIGHTS[p, resent]))
    assert len(set(overlaps)) > 1
    assert fidelity == pytest.approx(sum(overlaps) / n, abs=1e-15)


def test_cloning_fidelity_validates_trials(geom):
    with pytest.raises(ValidationError):
        cloning_fidelity(
            EveStrategy("CloneInferred"),
            NonlinearParams(b=0.1),
            geom,
            SensorModel(sigma=1.0),
            0,
            np.random.default_rng(0),
        )
