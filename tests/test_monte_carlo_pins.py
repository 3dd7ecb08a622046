"""Golden pins of the Monte Carlo path: exact values of monte_carlo_accuracy,
cloning_fidelity and Monte Carlo min_detectable_b for fixed generators.

The values were recorded before the scoring kernel moved to a
hypothesis-major layout, and any change to the kernel's layout or
arithmetic must leave them exactly as they are. The cases cover four-way
ties (b = 0), scores that overflow to -inf (sigma 1e-30), several readings,
a batch of three trials, every resend strategy with and without the Born
prior, and a bisection scored by Monte Carlo at two relaxation rates.

The scans were recorded before min_detectable_b kept each bisection step's
trials for reuse: a lambda scan at one seed, and calls that interleave two
seeds and two trial counts, so that reused, fresh and evicted steps all
meet a pinned value. The oracle test bisects over monte_carlo_accuracy
itself, as min_detectable_b is documented to.
"""

import numpy as np
import pytest

import gravsim.analysis
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


# (seed, mc_rounds, lambda, repr of min_detectable_b); delta_t 1, default sensor, target 0.8
SCAN = [
    (3, 2000, 0.0, "0.03753662109375"),
    (3, 2000, 0.5, "0.06146240234375"),
    (3, 2000, 1.0, "0.10198974609375"),
    (3, 2000, 1.5, "0.16693115234375"),
    (3, 2000, 2.0, "0.28155517578125"),
]
INTERLEAVED = [
    (3, 2000, 0.0, "0.03753662109375"),
    (3, 2000, 0.5, "0.06146240234375"),
    (8, 2000, 0.0, "0.038330078125"),
    (3, 500, 0.5, "0.06591796875"),
    (3, 2000, 1.0, "0.10198974609375"),
    (3, 2000, 1.5, "0.16693115234375"),
    (8, 2000, 0.5, "0.06353759765625"),
    (8, 500, 1.0, "0.0980224609375"),
    (3, 500, 1.5, "0.17529296875"),
    (3, 2000, 6.0, "None"),
    (8, 2000, 2.0, "0.279296875"),
]


def scan(calls):
    return [
        repr(min_detectable_b(lam, 1.0, SensorModel(), GEOM, 0.8, mc_rounds=n, seed=seed))
        for seed, n, lam, _ in calls
    ]


@pytest.mark.parametrize("calls", [SCAN, INTERLEAVED], ids=["scan", "interleaved"])
def test_monte_carlo_scans_are_pinned(calls):
    gravsim.analysis._step_trials.cache_clear()
    expected = [pinned for *_, pinned in calls]
    assert scan(calls) == expected
    assert scan(calls) == expected  # every step already drawn once


def test_the_interleaved_calls_reuse_draw_and_evict_steps():
    # 15 steps per bisection (1 where b = 1 misses the target) and 16 kept:
    # only calls 2 and 6 follow a call with their (seed, mc_rounds) and
    # reuse its steps; every other call draws all of its steps anew.
    gravsim.analysis._step_trials.cache_clear()
    scan(INTERLEAVED)
    info = gravsim.analysis._step_trials.cache_info()
    assert (info.hits, info.misses, info.currsize) == (30, 121, 16)


def bisect_over_monte_carlo(lam, sensor, target, mc_rounds, seed, tolerance):
    """min_detectable_b's bisection, written out over monte_carlo_accuracy."""

    def accuracy(b, step):
        rng = np.random.default_rng([seed, step])
        params = NonlinearParams(b=b, lam=lam, delta_t=1.0)
        return monte_carlo_accuracy(params, GEOM, sensor, mc_rounds, rng)

    if accuracy(1.0, 0) < target:
        return None
    lo, hi, step = 0.0, 1.0, 0
    while hi - lo > tolerance:
        step += 1
        mid = 0.5 * (lo + hi)
        if accuracy(mid, step) >= target:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "lam, sigma, samples, target, mc_rounds, seed",
    [
        (0.0, 2.5e-12, 1, 0.8, 2000, 3),
        (0.9, 1e-11, 3, 0.6, 700, 12),
        (0.2, 2.5e-12, 1, 0.95, 40_000, 1),  # above the cap: every step drawn afresh
    ],
)
def test_min_detectable_b_is_a_bisection_over_monte_carlo_accuracy(
    lam, sigma, samples, target, mc_rounds, seed
):
    sensor = SensorModel(sigma=sigma, samples=samples)
    expected = bisect_over_monte_carlo(lam, sensor, target, mc_rounds, seed, 1e-3)
    gravsim.analysis._step_trials.cache_clear()
    for _ in ("miss", "hit"):
        b = min_detectable_b(
            lam, 1.0, sensor, GEOM, target, tolerance=1e-3, mc_rounds=mc_rounds, seed=seed
        )
        assert b == expected
