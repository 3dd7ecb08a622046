"""Golden pins of the Monte Carlo path: exact values of monte_carlo_accuracy,
cloning_fidelity and Monte Carlo min_detectable_b for fixed generators;
and of the analytic path: every field of analytic_accuracy and analytic
min_detectable_b.

The values were recorded before the scoring kernel moved to a
hypothesis-major layout (the sigma 1e-170 one before Monte Carlo scored
without a prior), and any change to the kernel's layout or arithmetic
must leave them exactly as they are. The cases cover four-way ties
(b = 0), scores far below the best (sigma 1e-30), scores that overflow to
-inf (sigma 1e-170), several readings, a batch of three trials, every
resend strategy with and without the Born prior, and a bisection scored
by Monte Carlo at two relaxation rates.

The scans were recorded before min_detectable_b kept each bisection step's
trials for reuse: a lambda scan at one seed, and calls that interleave two
seeds and two trial counts, so that reused, fresh and evicted steps all
meet a pinned value. The oracle test bisects over monte_carlo_accuracy
itself, as min_detectable_b is documented to.

The analytic pins were recorded before min_detectable_b scored its
candidates from per-call constants rather than through analytic_accuracy;
they cover b = 0, several readings with relaxation, a tiny and a
subnormal sigma (a huge or infinite separation scale), a field of
1e200 kg sensed with sigma 1e190 and unreachable targets. The analytic
oracle test bisects over analytic_accuracy itself.
"""

import dataclasses

import numpy as np
import pytest

import gravsim.analysis
from gravsim import (
    EveStrategy,
    Geometry,
    NonlinearParams,
    SensorModel,
    analytic_accuracy,
    cloning_fidelity,
    min_detectable_b,
    monte_carlo_accuracy,
)

GEOM = Geometry()
HUGE = Geometry(GEOM.sites, GEOM.probes, test_mass=1e200)

MONTE_CARLO = [
    # (b, sigma, samples, n_trials, repr of the accuracy); generator default_rng(5)
    (0.0, 2.5e-12, 1, 2000, "0.2615"),
    (0.02, 2.5e-12, 1, 2000, "0.5675"),
    (0.05, 1e-30, 1, 2000, "1.0"),
    (0.05, 1e-170, 1, 2000, "1.0"),
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
def test_monte_carlo_scans_are_pinned(calls, step_draws):
    expected = [pinned for *_, pinned in calls]
    assert scan(calls) == expected
    assert scan(calls) == expected  # every step already drawn once


def test_the_interleaved_calls_reuse_draw_and_evict_steps(step_draws):
    # 15 steps per bisection (1 where b = 1 misses the target), kept for the
    # last (mc_rounds, geometry): only calls 2 and 6 follow a call with their
    # (seed, mc_rounds) and reuse its steps; every other call draws all of
    # its steps anew, and the last call's replace those of the seed before.
    scan(INTERLEAVED)
    assert step_draws.call_count == 121
    (mc_rounds, plane), slots = gravsim.analysis._kept_steps
    assert mc_rounds == 2000 and plane is GEOM.plane_constants
    assert {step: seed for step, (seed, _) in slots.items()} == dict.fromkeys(range(15), 8)


def test_a_fine_lambda_scan_draws_each_step_once(step_draws):
    # Tolerance 1e-5 takes the b = 1 probe and 17 halvings: 18 steps, drawn
    # at the first lambda and kept for the others, which alternate two
    # Geometry objects of GEOM's layout: the steps are kept per layout.
    sensor, geoms = SensorModel(), (Geometry(), Geometry())
    for k, lam in enumerate((0.0, 0.5, 1.0, 1.5)):
        geom = geoms[k % 2]
        b = min_detectable_b(lam, 1.0, sensor, geom, 0.8, tolerance=1e-5, mc_rounds=2000, seed=3)
        assert b == bisect_over_monte_carlo(lam, sensor, 0.8, 2000, 3, 1e-5)
    assert step_draws.call_count == 18


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
        (0.2, 2.5e-12, 1, 0.95, 40_000, 1),  # 13 steps of 40 000 trials fit in the kept bytes
    ],
)
def test_min_detectable_b_is_a_bisection_over_monte_carlo_accuracy(
    lam, sigma, samples, target, mc_rounds, seed, step_draws
):
    sensor = SensorModel(sigma=sigma, samples=samples)
    expected = bisect_over_monte_carlo(lam, sensor, target, mc_rounds, seed, 1e-3)
    for _ in ("miss", "hit"):
        b = min_detectable_b(
            lam, 1.0, sensor, GEOM, target, tolerance=1e-3, mc_rounds=mc_rounds, seed=seed
        )
        assert b == expected


XP_XM = "(<Bb84Symbol.XP: 2>, <Bb84Symbol.XM: 3>)"
Z1_XM = "(<Bb84Symbol.Z1: 1>, <Bb84Symbol.XM: 3>)"
ESTIMATES = [
    # (b, lambda, deltaT, sigma, samples, geometry, repr of each AccuracyEstimate field)
    (0.0, 0.0, 0.0, 2.5e-12, 1, GEOM, ["(0.0, 0.0, 0.0, 0.0)", "0.0", "0.25", XP_XM, "0.0", "0.5"]),
    (
        0.02, 0.0, 0.0, 2.5e-12, 1, GEOM,
        [
            "(0.40319790261327104, 0.40319790261327104, 0.40319790261327104, 0.40319790261327104)",
            "0.40319790261327104", "0.25", Z1_XM, "0.9753174226139755", "0.687104199085792",
        ],
    ),
    (
        0.3, 0.7, 1.0, 1e-11, 4, GEOM,
        [
            "(0.9652443141378145, 0.9652443141378144, 0.9652443141378145, 0.9652443141378145)",
            "0.9652443141378145", "0.25", Z1_XM, "3.6324622395136164", "0.9653325368705494",
        ],
    ),
    (
        0.05, 0.0, 0.0, 5e-300, 1, GEOM,
        ["(1.0, 1.0, 1.0, 1.0)", "1.0", "0.25", Z1_XM, "1.2191467782674696e+288", "1.0"],
    ),
    (0.05, 0.0, 0.0, 5e-324, 1, GEOM, ["(1.0, 1.0, 1.0, 1.0)", "1.0", "0.25", XP_XM, "inf", "1.0"]),
    (
        0.05, 0.0, 0.0, 1e190, 1, HUGE,
        ["(0.0, 0.0, 0.0, 0.0)", "0.0", "0.25", Z1_XM, "0.06095733891337346", "0.5121573476076087"],
    ),
    (
        1e-300, 0.0, 0.0, 5e-300, 3, GEOM,
        [
            "(0.0, 0.0, 0.0, 0.0)", "0.0", "0.25", Z1_XM,
            "4.223248323686433e-11", "0.5000000000084242",
        ],
    ),
]


@pytest.mark.parametrize("b, lam, delta_t, sigma, samples, geom, expected", ESTIMATES)
def test_analytic_accuracy_is_pinned(b, lam, delta_t, sigma, samples, geom, expected):
    params = NonlinearParams(b=b, lam=lam, delta_t=delta_t)
    est = analytic_accuracy(params, geom, SensorModel(sigma=sigma, samples=samples))
    assert [repr(getattr(est, f.name)) for f in dataclasses.fields(est)] == expected
    assert est.mean == float(np.mean(est.per_hypothesis))


ANALYTIC = [
    # (lambda, deltaT, sigma, samples, geometry, target, repr of min_detectable_b); tolerance 1e-4
    (0.0, 0.0, 2.5e-12, 1, GEOM, 0.8, "0.039794921875"),
    (0.7, 1.0, 2.5e-12, 1, GEOM, 0.8, "0.08013916015625"),
    (0.3, 2.5, 1e-11, 4, GEOM, 0.6, "0.11505126953125"),
    (0.0, 0.0, 2.5e-12, 1, GEOM, 0.99, "0.095458984375"),
    (0.0, 0.0, 5e-300, 1, GEOM, 0.9, "6.103515625e-05"),
    (0.0, 0.0, 1e190, 1, HUGE, 0.3, "0.68157958984375"),
    (0.0, 0.0, 1e190, 1, HUGE, 0.8, "None"),
    (6.0, 1.0, 2.5e-12, 1, GEOM, 0.8, "None"),
]


@pytest.mark.parametrize("lam, delta_t, sigma, samples, geom, target, expected", ANALYTIC)
def test_analytic_min_detectable_b_is_pinned(lam, delta_t, sigma, samples, geom, target, expected):
    sensor = SensorModel(sigma=sigma, samples=samples)
    assert repr(min_detectable_b(lam, delta_t, sensor, geom, target)) == expected


def bisect_over_analytic(lam, delta_t, sensor, geom, target, tolerance):
    """min_detectable_b's bisection, written out over analytic_accuracy's mean."""

    def accuracy(b):
        return analytic_accuracy(NonlinearParams(b, lam, delta_t), geom, sensor).mean

    if accuracy(1.0) < target:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if accuracy(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "lam, delta_t, sigma, samples, geom, target, tolerance",
    [
        (0.0, 0.0, 2.5e-12, 1, GEOM, 0.8, 1e-4),
        (1.3, 1.0, 2.5e-12, 1, GEOM, 0.8, 1e-6),
        (0.4, 3.5, 1e-11, 1, GEOM, 0.7, 1e-9),
        (0.2, 1.0, 1e-11, 5, GEOM, 0.9, 1e-6),
        (0.0, 0.0, 1e-299, 2, GEOM, 0.95, 1e-12),  # sqrt(samples) / sigma near the float limit
        (0.0, 0.0, 1e190, 1, HUGE, 0.3, 1e-6),
        (0.0, 0.0, 2.5e-12, 1, GEOM, 0.999, 1e-4),
        (6.0, 1.0, 2.5e-12, 1, GEOM, 0.8, 1e-4),  # out of reach: None
    ],
)
def test_min_detectable_b_is_a_bisection_over_analytic_accuracy(
    lam, delta_t, sigma, samples, geom, target, tolerance
):
    sensor = SensorModel(sigma=sigma, samples=samples)
    expected = bisect_over_analytic(lam, delta_t, sensor, geom, target, tolerance)
    b = min_detectable_b(lam, delta_t, sensor, geom, target, tolerance=tolerance)
    assert b == expected
