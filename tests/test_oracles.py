"""Sanity checks pinning the oracle module's own math.

These tests exercise only tests/oracles.py; they guarantee the reference
values the rest of the suite trusts are internally consistent before any
package behavior is compared against them.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import Amp


def test_ring_arithmetic():
    r = oracles.INV_SQRT2
    assert r * r == Amp(Fraction(1, 2), Fraction(0))
    assert r.square_rational() == Fraction(1, 2)
    assert (r + r).square_rational() == 2
    assert abs(r.to_float() - 2.0**-0.5) < 1e-15


def test_mixed_square_is_rejected():
    with pytest.raises(ValueError):
        (oracles.ONE + oracles.INV_SQRT2).square_rational()


def test_overlap_table():
    for a in oracles.LABELS:
        assert oracles.overlap_sq(a, a) == 1
    assert oracles.overlap_sq("Z0", "Z1") == 0
    assert oracles.overlap_sq("Xp", "Xm") == 0
    for z in ("Z0", "Z1"):
        for x in ("Xp", "Xm"):
            assert oracles.overlap_sq(z, x) == Fraction(1, 2)


def test_eve_outcome_distribution():
    dist = oracles.eve_outcome_distribution("Z1")
    assert dist == {
        "Z0": Fraction(0),
        "Z1": Fraction(1, 2),
        "Xp": Fraction(1, 4),
        "Xm": Fraction(1, 4),
    }


def test_bob_bit_distribution():
    assert oracles.bob_bit_distribution("Z0", "Z") == {0: 1, 1: 0}
    assert oracles.bob_bit_distribution("Xm", "X") == {0: 0, 1: 1}
    assert oracles.bob_bit_distribution("Z0", "X") == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_intercept_resend_qber_is_exactly_one_quarter():
    assert oracles.intercept_resend_qber() == Fraction(1, 4)


def test_resend_mutual_information_is_exactly_half():
    assert oracles.resend_mutual_information() == Fraction(1, 2)


def test_fidelity_constants():
    assert oracles.resend_measured_fidelity() == Fraction(3, 4)
    assert oracles.uniform_resend_fidelity() == Fraction(1, 2)


def test_frozen_normal_values_match_erf():
    for d, value in oracles.PHI_HALF_D.items():
        assert oracles.two_hypothesis_accuracy(d) == pytest.approx(value, abs=1e-13)
    assert oracles.normal_tail(5.0) == pytest.approx(oracles.Q_OF_5, rel=1e-10)
    assert oracles.normal_cdf(0.0) == 0.5


def test_frozen_entropy_value():
    assert oracles.binary_entropy_reference(0.25) == pytest.approx(
        oracles.H2_QUARTER, abs=1e-14
    )
    assert oracles.binary_entropy_reference(0.5) == 1.0
    assert oracles.binary_entropy_reference(0.0) == 0.0


def test_two_hypothesis_mc_recovers_phi():
    r0 = np.array([1.0, 0.0, 0.0])
    r1 = np.array([-1.0, 0.0, 0.0])
    sigma = 1.0
    # separation d = sqrt(samples) * |r0 - r1| / sigma = 2 -> accuracy Phi(1)
    acc = oracles.two_hypothesis_mc(r0, r1, sigma, samples=1, n_trials=40_000, seed=2)
    assert acc == pytest.approx(oracles.PHI_HALF_D[2.0], abs=0.01)


def test_four_hypothesis_mc_recovers_the_square_law():
    # Corners of a square of side d in noise units: the nearest corner is
    # right on both axes at once, with probability Phi(d / 2)^2.
    d = 2.0
    means = np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0], [0.0, d, 0.0], [d, d, 0.0]])
    expected = oracles.PHI_HALF_D[d] ** 2
    acc = oracles.four_hypothesis_mc(means, sigma=1.0, samples=1, n_trials=200_000, seed=12)
    assert acc == pytest.approx(expected, abs=4 * oracles.binomial_sigma(expected, 200_000))


def test_union_bound_degenerate_case():
    residuals = np.zeros((4, 6))
    assert oracles.union_bound_accuracy(residuals, 1.0, 1) == [0.0, 0.0, 0.0, 0.0]


def test_point_mass_reference_inverse_square():
    near = oracles.point_mass_reference((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), 2.0, 6.674e-11)
    far = oracles.point_mass_reference((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), 2.0, 6.674e-11)
    assert near[0] == pytest.approx(4.0 * far[0], rel=1e-12)
    assert near[1] == far[1] == 0.0
