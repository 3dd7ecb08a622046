"""Independent reference computations that pin expected test values.

Nothing here calls into the package under test. Exact results come from
rational arithmetic over the ring Q(sqrt 2) (every BB84 amplitude lives
there) and from exhaustive enumeration of the protocol's discrete round
combinations; normal-distribution values come from the C library's erf/erfc.
Eve's attack on one round is re-derived on the full field, with nearest-mean
distances in place of the package's plane scores and its own Born law.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Amp:
    """Exact ring element p + q * sqrt(2) with rational p, q."""

    p: Fraction = Fraction(0)
    q: Fraction = Fraction(0)

    def __add__(self, other: "Amp") -> "Amp":
        return Amp(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "Amp") -> "Amp":
        return Amp(self.p - other.p, self.q - other.q)

    def __mul__(self, other: "Amp") -> "Amp":
        return Amp(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    def square_rational(self) -> Fraction:
        # (p + q sqrt2)^2 = p^2 + 2 q^2 + 2 p q sqrt2 is rational iff p q = 0,
        # which holds for every amplitude and overlap arising from BB84 states.
        if self.p * self.q != 0:
            raise ValueError(f"square of {self} is irrational")
        return self.p * self.p + 2 * self.q * self.q

    def to_float(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(2.0)


ZERO = Amp()
ONE = Amp(Fraction(1))
INV_SQRT2 = Amp(Fraction(0), HALF)  # sqrt(2)/2

# Amplitudes (on |0>, |1>) of the four BB84 states in (Z0, Z1, Xp, Xm) order.
STATES: dict[str, tuple[Amp, Amp]] = {
    "Z0": (ONE, ZERO),
    "Z1": (ZERO, ONE),
    "Xp": (INV_SQRT2, INV_SQRT2),
    "Xm": (INV_SQRT2, Amp(Fraction(0), -HALF)),
}
LABELS = ("Z0", "Z1", "Xp", "Xm")
BASIS_OF = {"Z0": "Z", "Z1": "Z", "Xp": "X", "Xm": "X"}
BIT_OF = {"Z0": 0, "Z1": 1, "Xp": 0, "Xm": 1}


def overlap_sq(a: str, b: str) -> Fraction:
    """Exact |<a|b>|^2 for two BB84 states."""
    a0, a1 = STATES[a]
    b0, b1 = STATES[b]
    return (a0 * b0 + a1 * b1).square_rational()


def eve_outcome_distribution(prepared: str) -> dict[str, Fraction]:
    """Exact interception outcome law P(s | prepared) = |<s|prepared>|^2 / 2."""
    dist = {s: overlap_sq(s, prepared) * HALF for s in LABELS}
    assert sum(dist.values()) == 1
    return dist


# The exact outcome law of every preparation, computed once for the per-round reference below.
OUTCOME_LAW = {p: eve_outcome_distribution(p) for p in LABELS}


def bob_bit_distribution(state: str, basis: str) -> dict[int, Fraction]:
    """Exact bit law when a BB84 state is measured in a basis."""
    first = "Z0" if basis == "Z" else "Xp"
    second = "Z1" if basis == "Z" else "Xm"
    p0 = overlap_sq(first, state)
    p1 = overlap_sq(second, state)
    total = p0 + p1
    return {0: p0 / total, 1: p1 / total}


def intercept_resend_qber() -> Fraction:
    """Exact sifted error rate of measure-and-resend, by full enumeration.

    Enumerates preparation x interception outcome x Bob basis (32 cells,
    many with zero probability), accumulates sifted and error probability
    mass, and returns their exact ratio.
    """
    sifted_mass = Fraction(0)
    error_mass = Fraction(0)
    quarter = Fraction(1, 4)
    for prepared in LABELS:
        for outcome, p_outcome in eve_outcome_distribution(prepared).items():
            for bob_basis in ("Z", "X"):
                weight = quarter * p_outcome * HALF
                if weight == 0 or bob_basis != BASIS_OF[prepared]:
                    continue
                sifted_mass += weight
                wrong = 1 - BIT_OF[prepared]
                error_mass += weight * bob_bit_distribution(outcome, bob_basis)[wrong]
    return error_mass / sifted_mass


def resend_guess_joint() -> dict[tuple[int, str], Fraction]:
    """Exact joint law of (Alice's bit, Eve's guess category) on sifted rounds.

    Eve guesses the bit of her measured outcome when its basis matches the
    announced one and lands in a no-guess category otherwise. Sifting is
    independent of her outcome, so the sifted joint equals the unconditioned
    one.
    """
    joint: dict[tuple[int, str], Fraction] = {}
    quarter = Fraction(1, 4)
    for prepared in LABELS:
        for outcome, p_outcome in eve_outcome_distribution(prepared).items():
            if p_outcome == 0:
                continue
            if BASIS_OF[outcome] == BASIS_OF[prepared]:
                guess = str(BIT_OF[outcome])
            else:
                guess = "none"
            key = (BIT_OF[prepared], guess)
            joint[key] = joint.get(key, Fraction(0)) + quarter * p_outcome
    assert sum(joint.values()) == 1
    return joint


def resend_mutual_information() -> Fraction:
    """Exact I(Alice bit; Eve guess) for measure-and-resend: 1/2 bit.

    From the joint: matching-basis rounds (probability 1/2) reveal the bit
    exactly and mismatched rounds reveal nothing, so I = 1/2 * 1 + 1/2 * 0.
    The joint is asserted to have exactly that structure.
    """
    joint = resend_guess_joint()
    assert joint == {
        (0, "0"): Fraction(1, 4),
        (0, "none"): Fraction(1, 4),
        (1, "1"): Fraction(1, 4),
        (1, "none"): Fraction(1, 4),
    }
    return HALF


def resend_measured_fidelity() -> Fraction:
    """Exact average |<prepared|resent>|^2 when Eve resends her outcome."""
    total = Fraction(0)
    quarter = Fraction(1, 4)
    for prepared in LABELS:
        for outcome, p_outcome in eve_outcome_distribution(prepared).items():
            total += quarter * p_outcome * overlap_sq(prepared, outcome)
    return total


def uniform_resend_fidelity() -> Fraction:
    """Exact average fidelity when Eve resends a uniformly random symbol.

    This is the b = 0 behavior of inference-based resending without the
    outcome-probability factor: all four hypotheses tie and the tie-break is
    uniform, independent of the preparation.
    """
    total = Fraction(0)
    quarter = Fraction(1, 4)
    for prepared in LABELS:
        for resent in LABELS:
            total += quarter * quarter * overlap_sq(prepared, resent)
    return total


def full_field_inference(readings, outcome, config_matrix, residuals, sigma, born, tie_u):
    """Eve's inference from full-field readings: (inferred index, posterior).

    readings is (samples, dim); outcome is Eve's outcome index,
    config_matrix holds the (4, dim) configuration fields and residuals the
    (4, dim) nonlinear residual of each preparation hypothesis. Hypothesis
    h scores -|S - samples * r_h|^2 / (2 * samples * sigma^2), with S the
    readings' sum minus samples times Eve's configuration field, plus
    log P(outcome | h) when born. Ties at the best score go to number
    floor(tie_u * ties), counted in symbol order.
    """
    readings = np.asarray(readings, dtype=float)
    count = len(readings)
    statistic = readings.sum(axis=0) - count * config_matrix[outcome]
    distance = ((statistic - count * np.asarray(residuals)) ** 2).sum(axis=1)
    law = [OUTCOME_LAW[h][LABELS[outcome]] if born else 1 for h in LABELS]
    nearest = min(d for d, p in zip(distance, law) if p > 0)
    logits = np.array(
        [math.log(p) - (d - nearest) / (2 * count) / sigma / sigma if p > 0 else -math.inf
         for d, p in zip(distance, law)]
    )
    weights = np.exp(logits - logits.max())
    ties = [h for h in range(4) if logits[h] == logits.max()]
    return ties[min(int(tie_u * len(ties)), len(ties) - 1)], weights / weights.sum()


def full_field_round(
    prepared, config_matrix, mix_matrix, decay, sigma, born, mode, tau, outcome_u, noise, tie_u
):
    """Eve's attack on one round over the full field: (outcome, inferred, posterior, resent).

    The round is fed its variates; prepared is Alice's symbol index. Eve's
    outcome is the symbol whose interval of the exact cumulative law
    P(s | prepared) holds outcome_u. Her readings are config_matrix[outcome]
    + decay * mix_matrix[prepared] plus sigma times the (samples, dim)
    standard normals noise, and full_field_inference infers the preparation
    against the residuals decay * mix_matrix. Mode CloneInferred resends the
    inference, ResendMeasured the outcome and Threshold the inference only
    when the posterior peak reaches tau.
    """
    edges = itertools.accumulate(OUTCOME_LAW[LABELS[prepared]].values())
    outcome = sum(outcome_u >= edge for edge in edges)
    readings = config_matrix[outcome] + decay * mix_matrix[prepared] + sigma * np.asarray(noise)
    residuals = decay * np.asarray(mix_matrix)
    inferred, posterior = full_field_inference(
        readings, outcome, config_matrix, residuals, sigma, born, tie_u
    )
    confident = mode == "CloneInferred" or (mode == "Threshold" and posterior.max() >= tau)
    return outcome, inferred, posterior, inferred if confident else outcome


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the C library's erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_tail(x: float) -> float:
    """Standard normal upper tail Q(x) via erfc, accurate in the far tail."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def two_hypothesis_accuracy(d: float) -> float:
    """Exact accuracy of the binary Gaussian decision at separation d."""
    return normal_cdf(d / 2.0)


def two_hypothesis_mc(
    r0: np.ndarray,
    r1: np.ndarray,
    sigma: float,
    samples: int,
    n_trials: int,
    seed: int,
) -> float:
    """Monte Carlo accuracy of the exact ML rule between two Gaussian means.

    Draws the truth uniformly, simulates the sum of `samples` readings (a
    sufficient statistic with exactly known law), applies the
    nearest-scaled-mean rule, and returns the empirical accuracy.
    """
    rng = np.random.default_rng(seed)
    means = np.vstack([np.asarray(r0, dtype=float), np.asarray(r1, dtype=float)])
    truths = rng.integers(2, size=n_trials)
    sums = samples * means[truths] + sigma * math.sqrt(samples) * rng.standard_normal(
        (n_trials, means.shape[1])
    )
    d0 = ((sums - samples * means[0]) ** 2).sum(axis=1)
    d1 = ((sums - samples * means[1]) ** 2).sum(axis=1)
    guesses = (d1 < d0).astype(np.int64)
    return float((guesses == truths).mean())


def four_hypothesis_mc(
    means: np.ndarray,
    sigma: float,
    samples: int,
    n_trials: int,
    seed: int,
) -> float:
    """Monte Carlo accuracy of the nearest-scaled-mean rule among four Gaussian means.

    Draws the truth uniformly, simulates the sum of `samples` readings with
    noise in every field component (no projection onto any subspace),
    guesses the hypothesis whose mean, times samples, lies nearest, and
    returns the empirical accuracy. That rule is Eve's inference without
    the outcome factor.
    """
    rng = np.random.default_rng(seed)
    means = np.asarray(means, dtype=float)
    truths = rng.integers(4, size=n_trials)
    sums = samples * means[truths] + sigma * math.sqrt(samples) * rng.standard_normal(
        (n_trials, means.shape[1])
    )
    distances = [((sums - samples * mean) ** 2).sum(axis=1) for mean in means]
    guesses = np.argmin(np.stack(distances, axis=1), axis=1)
    return float((guesses == truths).mean())


def union_bound_accuracy(residuals: np.ndarray, sigma: float, samples: int) -> list[float]:
    """Per-hypothesis union-bound accuracy floor, re-derived in pure Python.

    For true hypothesis i the error is at most the sum over j != i of
    Q(d_ij / 2) with d_ij = sqrt(samples) * |r_i - r_j| / sigma.
    """
    rows = [np.asarray(r, dtype=float) for r in residuals]
    scale = math.sqrt(samples) / sigma
    bounds = []
    for i, r_i in enumerate(rows):
        tail_sum = 0.0
        for j, r_j in enumerate(rows):
            if i == j:
                continue
            d = scale * math.sqrt(float(((r_i - r_j) ** 2).sum()))
            tail_sum += normal_tail(d / 2.0)
        bounds.append(max(0.0, 1.0 - min(1.0, tail_sum)))
    return bounds


def point_mass_reference(site, probe, mass: float, grav_const: float) -> tuple:
    """Inverse-square acceleration vector at a probe, in pure Python."""
    offset = tuple(s - p for s, p in zip(site, probe))
    distance = math.sqrt(sum(c * c for c in offset))
    scale = grav_const * mass / distance**3
    return tuple(scale * c for c in offset)


def binary_entropy_reference(p: float) -> float:
    """h2(p) in bits with the 0 log 0 = 0 convention."""
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def break_ties_reference(logits: np.ndarray, peak: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of each row's maximum, ties split by u, through cumulative peak counts.

    Row i picks its peak number floor(u[i] * ties), counted from 0 in
    column order; peak is the (n, 1) column of row maxima. A row with no
    entry equal to its peak gives 0.
    """
    is_peak = logits == peak
    ties = np.cumsum(is_peak, axis=1)
    n_ties = ties[:, -1]
    pick = np.minimum((u * n_ties).astype(np.int64), n_ties - 1)
    return (is_peak & (ties - 1 == pick[:, np.newaxis])).argmax(axis=1)


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of an empirical frequency with success rate p."""
    return math.sqrt(p * (1.0 - p) / n)


# Frozen normal-CDF values Phi(d / 2) for the classifier-validation grid,
# computed once by adaptive quadrature of the normal density and re-checked
# against erf in the oracle self-tests.
PHI_HALF_D = {
    0.5: 0.5987063256829237,
    2.0: 0.8413447460685429,
    4.0: 0.977249868051824,
    6.0: 0.9986501019683699,
    8.0: 0.9999683287581698,
}

# Frozen far-tail value Q(5), used by the high-separation accuracy bound.
Q_OF_5 = 2.8665157035203983e-07

# Frozen h2(1/4), the entropy charge of the intercept-resend error rate.
H2_QUARTER = 0.8112781244591328
