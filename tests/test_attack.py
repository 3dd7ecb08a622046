"""Unit tests for Eve's sensing, inference, resend strategies, and accuracy math.

Eve's attack on a round is checked through session transcripts at attack
fraction 1, where every round is one interception, and her full-field
inference against the independent reference in oracles.
"""

import itertools
import math

import numpy as np
import pytest

import oracles
from gravsim import (
    Bb84Symbol,
    EveConfig,
    EveStrategy,
    Geometry,
    NonlinearParams,
    SYMBOLS,
    SensorModel,
    StrategyMode,
    ValidationError,
    analytic_accuracy,
    cloning_fidelity,
    decay_factor,
    infer_alice_state,
    monte_carlo_accuracy,
    run_session,
)
from gravsim import protocol
from gravsim.attack import _attack_batch, _attack_columns, _plane_statistic
from gravsim.qubits import BRANCH_WEIGHTS

# Distance between the closest pair of geom.mix_matrix rows, the residuals at b=1 in the
# bundled geometry; pinned by test_gravity's frozen-norm checks.
CLOSEST_PAIR_NORM = 1.2191467782674696e-10


@pytest.fixture(scope="module")
def geom():
    return Geometry()


def readings_of(geom, outcome, prepared, params, sigma, samples, rng):
    """Eve's (samples, dim) readings: her configuration field, the residual and sensor noise."""
    field = geom.config_matrix[outcome] + decay_factor(params) * geom.mix_matrix[prepared]
    with np.errstate(over="ignore"):  # a huge sigma may overflow a reading to inf
        return field + sigma * rng.standard_normal((samples, geom.field_dim))


def attacked_rounds(geom, n, seed, mode="CloneInferred", b=0.0, sigma=2.5e-12, **fields):
    """The transcript of an n-round session in which Eve attacks every round."""
    strategy = EveStrategy(mode, tau=fields.pop("tau", 0.9))
    sensor = SensorModel(sigma=sigma, samples=fields.pop("samples", 1))
    cfg = EveConfig(geom, NonlinearParams(b=b), sensor, strategy, **fields)
    _, transcript = run_session(n, cfg, seed=seed)
    assert transcript["attacked"].all()
    return transcript


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


def test_eve_record_posterior_validation(geom):
    # Every posterior the engine records is checked to be a distribution.
    table = EveConfig(geom, NonlinearParams(b=0.05), SensorModel(), EveStrategy())._table
    noise = np.array([[0.0, 0.0], [math.nan, 0.0]])
    with pytest.raises(ValidationError, match="posterior"):
        _attack_batch(np.zeros(2, dtype=np.intp), table, 0, np.zeros(2), noise, np.zeros(2))


def test_sense_shape_and_vanishing_noise(geom):
    # In the plane, Eve's statistic is samples * residual plus the noise scaled by sigma.
    sensor = SensorModel(sigma=1e-30, samples=3)
    table = EveConfig(geom, NonlinearParams(b=0.05), sensor, EveStrategy())._table
    truth = np.arange(4)
    statistic = _plane_statistic(table, 0, truth, np.random.default_rng(1).standard_normal((2, 4)))
    assert statistic.shape == (2, 4)
    assert np.abs(statistic - 3.0 * table.residuals[0, truth].T).max() < 1e-25


def test_sense_mean_converges():
    # The engine's Box-Muller sensor normals have mean 0 and unit variance.
    n = 100_000
    uniforms = protocol._uniforms(protocol._round_draws(8, 0, n))
    normals = protocol._box_muller(uniforms[:, 6], uniforms[:, 7])
    assert normals.shape == (2, n)
    assert np.abs(normals.mean(axis=1)).max() < 5.0 / math.sqrt(n)
    assert np.abs(normals.var(axis=1) - 1.0).max() < 5.0 * math.sqrt(2.0 / n)


def test_hypothesis_residuals_scale_with_decay(geom):
    # One attack table, two settings: b = 0.5 and b = 0 at lambda = deltaT = 1.
    params = NonlinearParams(b=0.5, lam=1.0, delta_t=1.0)
    cfg = EveConfig(geom, params, SensorModel(), EveStrategy())
    table = _attack_columns(geom.plane, cfg._settings | {"b": [0.5, 0.0]})
    assert table.residuals.shape == (2, 4, 2)
    assert np.array_equal(table.residuals[0], (0.5 * math.exp(-1.0)) * geom.plane)
    assert np.array_equal(table.residuals[0], cfg._table.residuals[0])
    assert np.all(table.residuals[1] == 0.0) and np.all(table.offsets[1] == 0.0)


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
    mix = decay_factor(params) * geom.mix_matrix[Bb84Symbol.Z1]
    field = geom.config_matrix[Bb84Symbol.Z1] + mix
    inferred, posterior = infer_alice_state(
        field, Bb84Symbol.Z1, geom, params, sensor, np.random.default_rng(4)
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
        readings = readings_of(geom, Bb84Symbol.XP, Bb84Symbol.XP, params, sensor.sigma, 1, rng)
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
    readings = readings_of(geom, Bb84Symbol.Z0, Bb84Symbol.Z0, params, sensor.sigma, 1, rng)
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
    used = np.random.default_rng(21)
    shadow = np.random.default_rng(21)
    readings = readings_of(geom, Bb84Symbol.Z1, Bb84Symbol.Z1, params, sensor.sigma, 1, used)
    shadow.standard_normal((1, geom.field_dim))
    infer_alice_state(readings, Bb84Symbol.Z1, geom, params, sensor, used)
    shadow.random()
    assert used.random() == shadow.random()


@pytest.mark.parametrize("sigma", [1e-160, 1e-170])
def test_infer_tiny_sigma_identifies_the_preparation(geom, sigma):
    # sigma**2 is subnormal at 1e-160 and zero at 1e-170
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=sigma)
    rng = np.random.default_rng(13)
    for prepared, outcome in itertools.product(SYMBOLS, SYMBOLS):
        if BRANCH_WEIGHTS[prepared, outcome] == 0.0:
            continue
        readings = readings_of(geom, outcome, prepared, params, sigma, 1, rng)
        inferred, posterior = infer_alice_state(readings, outcome, geom, params, sensor, rng)
        assert inferred is prepared
        assert posterior[prepared] == 1.0
        assert posterior.sum() == 1.0


@pytest.mark.parametrize("sigma", [2.5e-12, 1e-30])
@pytest.mark.parametrize("born", [True, False])
@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("b", [0.0, 0.05])
def test_infer_matches_the_full_field_reference(geom, b, samples, born, sigma):
    # Same readings and tie-break uniform; at b = 0 all or some hypotheses tie.
    params = NonlinearParams(b=b)
    sensor = SensorModel(sigma=sigma, samples=samples)
    residuals = decay_factor(params) * geom.mix_matrix
    rng = np.random.default_rng(31)
    pairs = [(p, o) for p in SYMBOLS for o in SYMBOLS if BRANCH_WEIGHTS[p, o] > 0.0]
    for prepared, outcome in pairs * 3:
        readings = readings_of(geom, outcome, prepared, params, sigma, samples, rng)
        seed = int(rng.integers(2**32))
        inferred, posterior = infer_alice_state(
            readings, outcome, geom, params, sensor, np.random.default_rng(seed), born
        )
        want, want_posterior = oracles.full_field_inference(
            readings,
            outcome,
            geom.config_matrix,
            residuals,
            sigma,
            born,
            np.random.default_rng(seed).random(),
        )
        assert inferred == want
        np.testing.assert_allclose(posterior, want_posterior, rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_infer_rejects_readings_that_overflow(geom):
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=1e308, samples=8)
    rng = np.random.default_rng(4)
    readings = readings_of(geom, Bb84Symbol.Z0, Bb84Symbol.Z0, params, sensor.sigma, 8, rng)
    assert np.isinf(readings).any()
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
    rounds = attacked_rounds(geom, 200, 5, "Threshold", b=0.05, sigma=1e300, samples=8)
    assert np.abs(rounds["posterior"].sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.filterwarnings("error")
def test_the_scalar_reference_names_a_field_that_overflows_eves_scores(geom):
    # The field is finite at 1e200 kg, but Eve's scores S.r_h are not.
    huge = Geometry(geom.sites, geom.probes, test_mass=1e200)
    params, sensor = NonlinearParams(b=0.05), SensorModel(sigma=1e190)
    named = r"^geometry\.testMass, sensor\.sigma: "
    rng = np.random.default_rng(2)
    readings = readings_of(huge, Bb84Symbol.Z0, Bb84Symbol.Z0, params, sensor.sigma, 1, rng)
    with pytest.raises(ValidationError, match=named):
        infer_alice_state(readings, Bb84Symbol.Z0, huge, params, sensor, rng)


@pytest.mark.filterwarnings("error")
def test_analytic_accuracy_of_a_huge_field_does_not_overflow(geom):
    huge = Geometry(geom.sites, geom.probes, test_mass=1e200)
    params, sensor = NonlinearParams(b=0.05), SensorModel(sigma=1e190)
    residuals = decay_factor(params) * huge.mix_matrix
    # math.dist scales before squaring, so the full-field distances stay finite.
    closest = min(math.dist(r, s) for r, s in itertools.combinations(residuals, 2))
    est = analytic_accuracy(params, huge, sensor)
    assert est.d_min == pytest.approx(closest / sensor.sigma, rel=1e-12)
    assert est.d_min == pytest.approx(0.061, abs=0.001)
    # Near chance, the union bound is vacuous.
    assert est.mean == 0.0
    assert est.two_hypothesis_exact == pytest.approx(0.512, abs=0.001)


def test_infer_born_factor_keeps_a_possible_preparation_at_tiny_sigma(geom):
    # The readings match Z1, which Eve's outcome Z0 rules out. At this sigma
    # the field scores every other preparation -inf against Z1, yet the
    # posterior must stay a distribution over the possible ones.
    params = NonlinearParams(b=0.05)
    sensor = SensorModel(sigma=1e-200)
    residuals = decay_factor(params) * geom.mix_matrix
    outcome = Bb84Symbol.Z0
    readings = geom.config_matrix[outcome] + residuals[Bb84Symbol.Z1]
    inferred, posterior = infer_alice_state(
        readings, outcome, geom, params, sensor, np.random.default_rng(2)
    )
    assert inferred is not Bb84Symbol.Z1
    assert posterior[Bb84Symbol.Z1] == 0.0
    assert np.all(np.isfinite(posterior))
    assert posterior.sum() == pytest.approx(1.0, abs=1e-15)


def test_attack_round_draw_order_contract(geom):
    # A round's interception reads its own block: the outcome, tie-break and Box-Muller columns.
    sensor = SensorModel(sigma=1e-12, samples=2)
    cfg = EveConfig(geom, NonlinearParams(b=0.2), sensor, EveStrategy())
    _, transcript = run_session(300, cfg, seed=33)
    u = protocol._uniforms(protocol._round_draws(33, 0, 300))
    noise = protocol._box_muller(u[:, protocol._NOISE_U], u[:, protocol._NOISE_V])
    outcome, inferred, posterior, resent = _attack_batch(
        transcript["alice"].astype(np.intp),
        cfg._table,
        0,
        u[:, protocol._EVE_OUTCOME],
        noise.T,
        u[:, protocol._TIE_BREAK],
    )
    assert np.array_equal(transcript["outcome"], outcome)
    assert np.array_equal(transcript["inferred"], inferred)
    assert np.array_equal(transcript["resent"], resent)
    assert np.array_equal(transcript["posterior"], posterior)


def test_attack_round_resend_measured_distribution(geom):
    rounds = attacked_rounds(geom, 80_000, 5, "ResendMeasured")
    assert np.array_equal(rounds["resent"], rounds["outcome"])
    resent = rounds["resent"][rounds["alice"] == Bb84Symbol.Z1]
    n = len(resent)
    counts = np.bincount(resent, minlength=4)
    assert counts[Bb84Symbol.Z0] == 0
    for s, p in ((Bb84Symbol.Z1, 0.5), (Bb84Symbol.XP, 0.25), (Bb84Symbol.XM, 0.25)):
        assert counts[s] / n == pytest.approx(p, abs=4 * oracles.binomial_sigma(p, n))


def test_attack_round_noiseless_clone_is_perfect(geom):
    rounds = attacked_rounds(geom, 400, 6, b=0.1, sigma=1e-30)
    assert set(rounds["alice"].tolist()) == {0, 1, 2, 3}
    assert np.array_equal(rounds["inferred"], rounds["alice"])
    assert np.array_equal(rounds["resent"], rounds["alice"])


def test_attack_round_born_off_resend_is_uniform_and_preparation_blind(geom):
    rounds = attacked_rounds(geom, 32_000, 40, born_factor=False)
    for prepared in (Bb84Symbol.Z0, Bb84Symbol.XM):
        resent = rounds["resent"][rounds["alice"] == prepared]
        bound = 4 * oracles.binomial_sigma(0.25, len(resent))
        frequencies = np.bincount(resent, minlength=4) / len(resent)
        assert frequencies == pytest.approx([0.25] * 4, abs=bound)


def test_attack_round_born_on_at_b0_equals_resend_measured(geom):
    clone = attacked_rounds(geom, 2000, 77, "CloneInferred", born_factor=True)
    measured = attacked_rounds(geom, 2000, 77, "ResendMeasured")
    assert np.array_equal(clone["resent"], measured["resent"])


def test_attack_round_resend_measured_ignores_the_field(geom):
    transcripts = [attacked_rounds(geom, 1000, 88, "ResendMeasured", b=b) for b in (0.0, 0.7)]
    for column in ("outcome", "resent"):
        assert np.array_equal(transcripts[0][column], transcripts[1][column])


def test_attack_round_threshold_overrides_outcome_when_confident(geom):
    rounds = attacked_rounds(geom, 800, 13, "Threshold", b=0.1, sigma=1e-30, tau=0.9)
    assert np.array_equal(rounds["resent"], rounds["alice"])  # posterior peak is 1 >= tau
    assert (rounds["outcome"] != rounds["alice"]).any()  # cross-basis outcomes were overridden


def test_attack_round_threshold_falls_back_to_outcome_when_unsure(geom):
    threshold = attacked_rounds(geom, 1000, 99, "Threshold", tau=0.9, born_factor=False)
    measured = attacked_rounds(geom, 1000, 99, "ResendMeasured", born_factor=False)
    assert np.array_equal(threshold["resent"], measured["resent"])


def test_attack_round_cloned_flag(geom):
    # Eve clones a round when she resends Alice's state, whose overlap with it is 1.
    rounds = attacked_rounds(geom, 800, 3, "ResendMeasured")
    cloned = rounds["resent"] == rounds["alice"]
    assert np.array_equal(cloned, rounds["outcome"] == rounds["alice"])
    overlap = 2.0 * BRANCH_WEIGHTS[rounds["alice"], rounds["resent"]]
    assert np.array_equal(overlap == 1.0, cloned)
    assert cloned.any() and not cloned.all()


def test_attack_round_validates_strategy(geom):
    with pytest.raises(ValidationError, match="strategy"):
        EveConfig(geom, NonlinearParams(b=0.0), SensorModel(sigma=1.0), "CloneInferred")


def test_analytic_accuracy_degenerate_case(geom):
    est = analytic_accuracy(NonlinearParams(b=0.0), geom, SensorModel(sigma=1e-12))
    assert est.per_hypothesis == (0.0, 0.0, 0.0, 0.0)
    assert est.mean == 0.0
    assert est.chance == 0.25
    assert est.d_min == 0.0
    assert est.two_hypothesis_exact == pytest.approx(0.5, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1e-320, 5e-324])
def test_analytic_accuracy_at_b0_is_the_same_at_a_subnormal_sigma(geom, sigma):
    # sqrt(samples) / sigma overflows to inf there; every separation is still 0.
    params = NonlinearParams(b=0.0)
    est = analytic_accuracy(params, geom, SensorModel(sigma=sigma))
    assert est == analytic_accuracy(params, geom, SensorModel(sigma=1e-300))
    assert (est.d_min, est.two_hypothesis_exact) == (0.0, 0.5)


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
    want = oracles.union_bound_accuracy(decay_factor(params) * geom.mix_matrix, 3e-12, 2)
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
    noise = shadow.standard_normal((n, 2))
    tie_draws = shadow.random(n)
    assert used.random() == shadow.random()
    overlaps = []
    for p, u, z, t in zip(prepared.tolist(), outcome_draws.tolist(), noise, tie_draws.tolist()):
        # the full-field reference, fed noise whose plane projection is z
        in_plane = np.tile(z @ geom.plane_basis / math.sqrt(sensor.samples), (sensor.samples, 1))
        *_, resent = oracles.full_field_round(
            p,
            geom.config_matrix,
            geom.mix_matrix,
            decay_factor(params),
            sensor.sigma,
            True,
            "Threshold",
            0.7,
            u,
            in_plane,
            t,
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
