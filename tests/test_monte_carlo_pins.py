"""Golden pins of the Monte Carlo path: exact values of monte_carlo_accuracy,
cloning_fidelity and Monte Carlo min_detectable_b for fixed generators.

The values were recorded before the scoring kernel moved to a
hypothesis-major layout, and any change to the kernel's layout or
arithmetic must leave them exactly as they are. The cases cover four-way
ties (b = 0), scores that overflow to -inf (sigma 1e-30), several readings,
a batch of three trials, every resend strategy with and without the Born
prior, and a bisection scored by Monte Carlo at two relaxation rates.
"""

import numpy as np
import pytest

from gravsim import (
    EveStrategy,
    Geometry,
    NonlinearParams,
    SensorModel,
    cloning_fidelity,
    min_detectable_b,
    monte_carlo_accuracy,
)

GEOM = Geometry()

MONTE_CARLO = [
    # (b, sigma, samples, n_trials, repr of the accuracy); generator default_rng(5)
    (0.0, 2.5e-12, 1, 2000, "0.2615"),
    (0.02, 2.5e-12, 1, 2000, "0.5675"),
    (0.05, 1e-30, 1, 2000, "1.0"),
    (2e-21, 1e-30, 1, 2000, "0.3175"),
    (0.01, 2.5e-12, 3, 2000, "0.5195"),
    (0.01, 2.5e-12, 1, 2000, "0.3955"),
    (0.02, 2.5e-12, 1, 3, "0.6666666666666666"),
]


@pytest.mark.parametrize("b, sigma, samples, n_trials, expected", MONTE_CARLO)
def test_monte_carlo_accuracy_is_pinned(b, sigma, samples, n_trials, expected):
    sensor = SensorModel(sigma=sigma, samples=samples)
    rng = np.random.default_rng(5)
    assert repr(monte_carlo_accuracy(NonlinearParams(b=b), GEOM, sensor, n_trials, rng)) == expected


CLONING = [
    # (strategy, born_factor, repr of the fidelity); b 0.02, tau 0.7, 2000 trials, default_rng(11)
    ("CloneInferred", True, "0.829"),
    ("CloneInferred", False, "0.765"),
    ("ResendMeasured", True, "0.741"),
    ("ResendMeasured", False, "0.741"),
    ("Threshold", True, "0.8095"),
    ("Threshold", False, "0.776"),
]


@pytest.mark.parametrize("mode, born, expected", CLONING)
def test_cloning_fidelity_is_pinned(mode, born, expected):
    fidelity = cloning_fidelity(
        EveStrategy(mode, tau=0.7),
        NonlinearParams(b=0.02),
        GEOM,
        SensorModel(),
        2000,
        np.random.default_rng(11),
        born,
    )
    assert repr(fidelity) == expected


@pytest.mark.parametrize("lam, expected", [(0.0, "0.03753662109375"), (0.7, "0.07513427734375")])
def test_monte_carlo_min_detectable_b_is_pinned(lam, expected):
    b = min_detectable_b(lam, 1.0, SensorModel(), GEOM, 0.8, mc_rounds=2000, seed=3)
    assert repr(b) == expected
