"""Property tests for the classifier posterior and the exclusion limit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gravsim import (
    SYMBOLS,
    ExclusionExperiment,
    NonlinearParams,
    SensorModel,
    branch_weights,
    default_geometry,
    eve_dual_basis_measure,
    exclusion_limit,
    general_field,
    infer_alice_state,
    prepare,
    sense,
    signal_to_noise,
)
from gravsim.attack import POSTERIOR_TOLERANCE

GEOM = default_geometry()

# Fixed example order, so a Tier-1 run is reproducible like the rest of the suite.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(
    log10_sigma=st.floats(-300.0, -6.0),
    b=st.floats(0.0, 1.0),
    samples=st.integers(1, 8),
    prepared=st.sampled_from(SYMBOLS),
    born_factor=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# b = 1e-16 puts the residuals below the rounding of the configuration field,
# so the field alone can favour the preparation that the outcome rules out.
@example(log10_sigma=-200.0, b=1e-16, samples=1, prepared=SYMBOLS[0], born_factor=True, seed=4)
def test_posterior_is_a_distribution(log10_sigma, b, samples, prepared, born_factor, seed):
    params = NonlinearParams(b=b)
    sensor = SensorModel(sigma=10.0**log10_sigma, samples=samples)
    rng = np.random.default_rng(seed)
    outcome = eve_dual_basis_measure(prepare(prepared), rng)
    readings = sense(general_field(outcome, branch_weights(prepared), params, GEOM), sensor, rng)
    inferred, posterior = infer_alice_state(
        readings, outcome, GEOM, params, sensor, rng, born_factor
    )
    assert posterior.shape == (4,)
    assert np.all(np.isfinite(posterior))
    assert np.all(posterior >= 0.0)
    assert abs(posterior.sum() - 1.0) <= POSTERIOR_TOLERANCE
    assert posterior[inferred] == posterior.max()


def _experiment(sigma, samples, schedule):
    return ExclusionExperiment(SensorModel(sigma=sigma, samples=samples), GEOM, tuple(schedule))


@PROPERTY_SETTINGS
@given(
    lambdas=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8),
    schedule=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
    log10_sigma=st.floats(-14.0, -9.0),
    scale=st.floats(0.01, 100.0),
    samples=st.integers(1, 8),
    confidence=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
)
def test_exclusion_bound_is_monotone_in_lambda_and_linear_in_sigma(
    lambdas, schedule, log10_sigma, scale, samples, confidence
):
    grid = sorted(lambdas)
    sigma = 10.0**log10_sigma
    base = exclusion_limit(_experiment(sigma, samples, schedule), grid, confidence)
    scaled = exclusion_limit(_experiment(scale * sigma, samples, schedule), grid, confidence)
    for bounds in (base.b_upper, scaled.b_upper):
        assert all(0.0 < bound <= 1.0 for bound in bounds)
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    for bound, scaled_bound in zip(base.b_upper, scaled.b_upper):
        if bound < 1.0 and scaled_bound < 1.0:
            assert scaled_bound == pytest.approx(scale * bound, rel=1e-12)


@PROPERTY_SETTINGS
@given(confidence=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
def test_exclusion_bound_sits_at_the_confidence_quantile(confidence):
    sensor = SensorModel(sigma=1e-12)
    result = exclusion_limit(ExclusionExperiment(sensor, GEOM, (1.0,)), [0.0], confidence)
    (bound,) = result.b_upper
    assert bound < 1.0
    z = signal_to_noise(bound, 0.0, 1.0, sensor, GEOM)
    assert oracles.normal_cdf(z) == pytest.approx(confidence, abs=1e-12)
