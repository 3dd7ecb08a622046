"""Property tests: the attack kernel's reductions over the hypotheses equal the per-round ones.

The kernel is hypothesis-major: it keeps the four hypotheses on axis 0,
one contiguous row each, and a round's four scores in a column. It takes
the maximum and the sum over the hypotheses (hmax, hsum) with numpy's
axis-0 max and sum, and _break_ties ranks them row by row. On (4, n)
arrays made from (n, 4) rounds, hmax and hsum must equal, bit for bit,
both a fold of np.maximum or + over the four rows in order and the
reduction of each round along the last axis; _break_ties must pick the
reference choice. This holds on rounds with exact ties, signed zeros,
infinities, NaN and rounds that the prior masks entirely. Any NaN counts
as equal to any NaN. _logits must give, bit for bit, the transpose of
what the same kernel written for rounds of (n, dim) statistics (the
einsum "...d,...hd->...h") gives, and Monte Carlo hits
(scored with a 0.0 prior) must count what its logits choose. _mc_hits
takes the sensor and forms the statistic itself; it counts trials from
their critical amplitudes, or runs the kernel on every trial when its
rounding band holds one, so its count must equal that of the engine's
table route (_plane_statistic on an _AttackTable row) on skewed planes,
at any sigma and sample count, at amplitudes placed on a trial's critical
amplitude and one ulp of the decay either side, with an end of the band
exactly on one, and where the band covers every trial; the kernel must run
at most once, on every trial and on the engine's statistic bit for bit,
exactly when the band holds a trial or covers them all, and a setting
whose scores overflow must raise _check_table's message.
"""

import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gravsim.attack
import oracles
from gravsim import (
    EveConfig,
    EveStrategy,
    Geometry,
    NonlinearParams,
    SensorModel,
    ValidationError,
    decay_factor,
)
from gravsim.attack import (
    _break_ties,
    _check_table,
    _critical_amplitudes,
    _gather,
    _logits,
    _mc_hits,
    _mc_trials,
    _offsets,
    _plane_statistic,
    _rounding_band,
)
from gravsim.gravity import _plane_constants

# A small pool makes exact ties, signed zeros and specials common.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan, 5e-324, -1e308, 1e308]
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ROWS = arrays(np.float64, st.tuples(st.integers(0, 40), st.just(4)), elements=ENTRIES)
TIE_DRAWS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)]),
    st.floats(0.0, 1.0, exclude_max=True),
)


def bits(values) -> np.ndarray:
    """The float64 bit patterns of values, with every NaN mapped to one pattern."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), -1, values.view(np.int64))


def hypothesis_major(rounds) -> np.ndarray:
    """(n, 4) rounds as the kernel lays them out: a contiguous (4, n) array, one row per hypothesis."""
    return np.ascontiguousarray(rounds.T)


def fold_max(x) -> np.ndarray:
    """np.maximum folded over the four rows of x in order."""
    return np.maximum(np.maximum(np.maximum(x[0], x[1]), x[2]), x[3])


def fold_sum(x) -> np.ndarray:
    """The four rows of x added from 0 in order."""
    return 0 + x[0] + x[1] + x[2] + x[3]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=ROWS)
@example(x=np.array([[0.0, -0.0, -1.0, -2.0], [-0.0, 0.0, -0.0, -0.0], [np.nan, 1.0, np.inf, 1.0]]))
def test_hmax_is_the_row_max(x):
    h = hypothesis_major(x)
    assert np.array_equal(bits(h.max(axis=0)), bits(fold_max(h)))
    assert np.array_equal(bits(h.max(axis=0)), bits(x.max(axis=-1)))


@st.composite
def masked_rows(draw):
    """Rows as ROWS draws them and a mask of the same shape, True where the prior rules out."""
    x = draw(ROWS)
    return x, draw(arrays(np.bool_, x.shape))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=masked_rows())
@example(
    case=(
        np.array([[np.nan, 3.0, -0.0, 0.0], [0.0, -0.0, 1.0, 1.0]]),
        np.array([[True, False, False, False], [False, False, True, True]]),
    )
)
def test_hmax_under_a_prior_mask_is_the_masked_row_max(case):
    # _logits masks the hypotheses its prior rules out this way.
    x, masked = case
    prior = hypothesis_major(np.where(masked, -np.inf, 0.0))
    best = np.where(prior == -np.inf, -np.inf, hypothesis_major(x))
    assert np.array_equal(bits(best.max(axis=0)), bits(fold_max(best)))
    expected = x.max(axis=-1, where=~masked, initial=-np.inf)
    assert np.array_equal(bits(best.max(axis=0)), bits(expected))


def test_hmax_of_an_all_masked_row_is_minus_infinity():
    x = hypothesis_major(np.array([[1.0, np.nan, -0.0, 2.0]]))
    best = np.where(np.full((4, 1), True), -np.inf, x)
    assert best.max(axis=0).tolist() == fold_max(best).tolist() == [-np.inf]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=ROWS)
@example(
    x=np.array([[-0.0, -0.0, -0.0, -0.0], [np.inf, -np.inf, 1.0, 0.0], [1e308, 1e308, -1e308, 0.0]])
)
def test_hsum_is_the_row_sum(x):
    h = hypothesis_major(x)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(bits(h.sum(axis=0)), bits(fold_sum(h)))
        assert np.array_equal(bits(h.sum(axis=0)), bits(x.sum(axis=1)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(logits=ROWS, data=st.data())
def test_break_ties_picks_the_reference_peak(logits, data):
    u = np.array(data.draw(st.lists(TIE_DRAWS, min_size=len(logits), max_size=len(logits))))
    peak = logits.max(axis=1, keepdims=True)
    expected = oracles.break_ties_reference(logits, peak, u)
    chosen = _break_ties(logits.T, peak[:, 0], u)
    assert chosen.dtype == np.int64
    assert np.array_equal(chosen, expected)


def test_break_ties_spreads_a_four_way_tie_over_every_column():
    logits = np.zeros((4, 4))
    u = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])
    peak = logits.max(axis=1, keepdims=True)
    assert _break_ties(logits.T, peak[:, 0], u).tolist() == [0, 1, 2, 3]
    assert oracles.break_ties_reference(logits, peak, u).tolist() == [0, 1, 2, 3]


def row_major_logits(statistic, residuals, offsets, sigma, log_prior=0.0):
    """The scoring kernel written with a round per row: (n, dim) statistics -> (n, 4) logits.

    residuals are (4, dim) or (n, 4, dim), offsets (4,) or (n, 4), sigma a
    number or an (n, 1) column and log_prior a number or (n, 4).
    """
    score = np.einsum("...d,...hd->...h", statistic, residuals)
    score -= offsets
    best = np.where(log_prior == -np.inf, -np.inf, score).max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        return np.minimum(score - best, 0.0) / sigma / sigma + log_prior


# Finite values whose products and sums stay finite, as the overflow rule
# guarantees every caller; the pool makes signed zeros and exact ties common.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 1e-300, 1e100, -1e100]),
    st.floats(-1e100, 1e100),
)
# Tiny sigmas send every score below the best to -inf.
SIGMAS = st.one_of(st.sampled_from([5e-324, 1e-170, 1e-30, 2.5e-12, 1.0]), st.floats(1e-300, 1e10))
PRIORS = st.sampled_from([0.0, -np.inf, float(np.log(0.5)), float(np.log(0.25))])


@st.composite
def plane_batches(draw):
    """A batch of n plane statistics with shared or per-row residuals, offsets, sigma and priors."""
    n = draw(st.integers(1, 30))
    statistic = draw(arrays(np.float64, (n, 2), elements=VALUES))
    shared = draw(st.booleans())
    residuals = draw(arrays(np.float64, (4, 2) if shared else (n, 4, 2), elements=VALUES))
    offsets = draw(arrays(np.float64, (4,) if shared else (n, 4), elements=VALUES))
    if draw(st.booleans()):
        sigma = draw(SIGMAS)
    else:
        sigma = draw(arrays(np.float64, (n, 1), elements=SIGMAS))
    log_prior = draw(
        st.one_of(st.just(0.0), arrays(np.float64, (n, 4), elements=PRIORS))
    )
    return statistic, residuals, offsets, sigma, log_prior


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=plane_batches())
@example(
    case=(
        np.array([[0.0, -0.0], [-0.0, -0.0], [1.0, 2.0]]),
        np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 0.5], [-1.0, 0.5]]),
        np.zeros(4),
        5e-324,
        np.array([[0.0, -np.inf, -np.inf, -np.inf], [-np.inf] * 4, [0.0, 0.0, -np.inf, 0.0]]),
    )
)
@example(
    case=(
        np.array([[0.0, -0.0], [-0.0, 1.0], [1.0, 2.0]]),
        np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, 0.5], [1.0, 0.5]]),
        np.array([0.0, -0.0, 0.5, 0.5]),
        5e-324,
        0.0,
    )
)
def test_logits_equal_the_row_major_kernel_bit_for_bit(case):
    statistic, residuals, offsets, sigma, log_prior = case
    expected = row_major_logits(statistic, residuals, offsets, sigma, log_prior)
    per_row = residuals.ndim == 3
    got = _logits(
        np.ascontiguousarray(statistic.T),
        np.ascontiguousarray(residuals.transpose(1, 2, 0)) if per_row else residuals,
        np.ascontiguousarray(offsets.T) if per_row else offsets[:, np.newaxis],
        np.ravel(sigma) if np.ndim(sigma) else sigma,
        np.ascontiguousarray(log_prior.T) if np.ndim(log_prior) else log_prior,
    )
    assert got.shape == (4, len(statistic))
    assert np.array_equal(got.T.view(np.int64), expected.view(np.int64))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 30), sigma=SIGMAS)
def test_logits_of_one_full_field_row_equal_the_row_major_kernel(data, dim, sigma):
    # infer_alice_state scores one (dim,) statistic against (4, dim) residuals.
    log_prior = data.draw(arrays(np.float64, (4,), elements=PRIORS))
    statistic = data.draw(arrays(np.float64, (dim,), elements=VALUES))
    residuals = data.draw(arrays(np.float64, (4, dim), elements=VALUES))
    offsets = data.draw(arrays(np.float64, (4,), elements=VALUES))
    expected = row_major_logits(statistic, residuals, offsets, sigma, log_prior)
    got = _logits(statistic, residuals, offsets, sigma, log_prior)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def kernel_hits(table, trials) -> int:
    """Hits of row 0 of table on every trial, each scored by the kernel on the engine's route."""
    statistic = _plane_statistic(table, 0, trials.truths, trials.normals)
    residuals, offsets = _gather(table.residuals, 0), _gather(table.offsets, 0)
    logits = _logits(statistic, residuals, offsets, table.sigma[0], 0.0)
    chosen = _break_ties(logits, logits.max(axis=0), trials.ties)
    return int(np.count_nonzero(chosen == trials.truths))


@pytest.mark.parametrize(
    "b, sigma",
    [(0.0, 2.5e-12), (0.02, 2.5e-12), (0.05, 1e-170), (2e-21, 1e-30)],
    ids=["four-way-ties", "default", "tiny-sigma", "tiny-sigma-near-ties"],
)
def test_monte_carlo_hits_count_the_choices_of_zero_prior_logits(b, sigma):
    geom, params, sensor = Geometry(), NonlinearParams(b=b), SensorModel(sigma=sigma)
    table = EveConfig(geom, params, sensor, EveStrategy())._table
    plane = geom.plane_constants
    trials = _mc_trials(np.random.default_rng(7), 2000, plane)
    statistic = _plane_statistic(table, 0, trials.truths, trials.normals)
    residuals, offsets = _gather(table.residuals, 0), _gather(table.offsets, 0)
    logits = _logits(statistic, residuals, offsets, table.sigma[0], 0.0)
    if b == 0.0:
        assert (logits == 0.0).all()  # every column a four-way tie
    elif sigma == 1e-170:
        assert (logits == -np.inf).any()  # scores below the best overflow to -inf
    chosen = _break_ties(logits, logits.max(axis=0), trials.ties)
    hits = _mc_hits(sensor, decay_factor(params), plane, trials)
    assert hits == np.count_nonzero(chosen == trials.truths) == kernel_hits(table, trials)
    row = table_row(sensor, decay_factor(params), geom.plane)  # the engine's own table
    assert all(np.array_equal(a, b) for a, b in zip(row, table, strict=True))
    if b > 0.0:  # a hit is a trial whose critical amplitude lies below x, in noise units
        x = decay_factor(params) * np.sqrt(table.count[0]) / table.sigma[0]
        assert hits == np.count_nonzero(trials.critical < x)


def table_row(sensor, decay, plane):
    """An engine table of one row on the sensor whose residuals are decay * plane, for any plane.

    The amplitude columns are formed as EveConfig._columns forms them from
    its geometry's plane.
    """
    table = EveConfig(Geometry(), NonlinearParams(), sensor, EveStrategy())._table
    residuals = np.array([decay])[:, np.newaxis, np.newaxis] * plane
    return table._replace(
        residuals=residuals,
        offsets=_offsets(residuals, table.count[:, np.newaxis]),
        reach=np.abs(residuals).max(axis=(1, 2)),
    )


def plane_of(first, second) -> np.ndarray:
    """Rows Z0, Z1, Xp and Xm of a plane: each half diagonal followed by its negative."""
    return np.array([first, -np.asarray(first), second, -np.asarray(second)], dtype=float)


SKEWED = Geometry(
    Geometry().sites + [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, -0.03, 0.0]],
    Geometry().probes,
)
# Planes of the bundled and a skewed geometry, a plane so large that most
# decays overflow the scores (its longest row is not along an axis, so its
# largest component is not its largest row), and planes whose second half
# diagonal has any length and angle against the first, at any scale.
HUGE = plane_of([1.0, 0.0], [1.5, 1.5]) * 1e154
PLANES = st.one_of(
    st.sampled_from([Geometry().plane, SKEWED.plane, HUGE]),
    st.builds(
        lambda ratio, angle, scale: scale
        * plane_of([1.0, 0.0], ratio * np.array([np.cos(angle), np.sin(angle)])),
        st.floats(0.05, 3.0),
        st.floats(0.0, np.pi),
        st.floats(-15.0, 10.0).map(lambda exponent: 10.0**exponent),
    ),
)
GEOM_PLANE = Geometry().plane
COINCIDENT = plane_of([0.5, 0.25], [0.5, 0.25])  # rows Z0 and Xp coincide, and Z1 and Xm
SENSOR_SIGMAS = st.one_of(
    st.sampled_from([1e-200, 1e-170, 2.5e-12, 1e5]),
    st.floats(-200.0, 5.0).map(lambda exponent: 10.0**exponent),
)


def drawn(plane, seed, n=200):
    """The _Plane of the (4, 2) plane and n trials on it from default_rng(seed)."""
    constants = _plane_constants(plane)
    return constants, _mc_trials(np.random.default_rng(seed), n, constants)


def on_band_end(plane, trials, amplitude, sigma, samples, end):
    """A decay whose rounding band has its low (end 0) or high (end 1) end exactly on amplitude.

    The band's half width hardly changes over a few ulps of the decay, so
    the decays within 64 ulps of where the end should fall reach most floats
    near amplitude; when none of them puts the end on it, the nearest one.
    """
    count = float(samples)
    unit = sigma / math.sqrt(count)  # the decay of x = 1
    band = _rounding_band(amplitude * unit, count, sigma, plane, trials)
    if band is None:
        return amplitude * unit
    half = (band[1] - band[0]) / 2.0
    estimate = (amplitude + half if end == 0 else amplitude - half) * unit
    up = down = estimate
    for _ in range(64):
        for decay in (up, down):
            band = _rounding_band(decay, count, sigma, plane, trials)
            if band is not None and band[end] == amplitude:
                return decay
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    return estimate


@st.composite
def monte_carlo_settings(draw):
    """A _Plane, trials on it, a sensor and a decay, often one that puts a trial on the band.

    A placed decay puts x on a critical amplitude or one ulp of the decay
    off it, or puts an end of the rounding band exactly on one, where the
    count depends on which end includes its trial.
    """
    plane, trials = drawn(draw(PLANES), draw(st.integers(0, 2**32)), draw(st.integers(1, 300)))
    sigma = draw(SENSOR_SIGMAS)
    samples = draw(st.integers(1, 50))
    decay = draw(st.floats(0.0, 1.0))
    positive = [] if trials.critical is None else trials.critical[trials.critical > 0.0]
    if len(positive) and draw(st.booleans()):
        amplitude = float(draw(st.sampled_from(positive)))
        place = draw(st.sampled_from(["x", "low", "high"]))
        if place == "x":
            # x = decay * sqrt(samples) / sigma on a critical amplitude, or one ulp of decay off
            decay = amplitude * sigma / np.sqrt(samples)
            decay = float(np.nextafter(decay, draw(st.sampled_from([-np.inf, decay, np.inf]))))
        else:
            end = ["low", "high"].index(place)
            decay = on_band_end(plane, trials, amplitude, sigma, samples, end)
    return plane, trials, sigma, samples, decay


END_PLANE, END_TRIALS = drawn(GEOM_PLANE, 4)


def at_end(index, toward):
    """A setting with x on a positive critical amplitude of END_TRIALS, or one ulp of decay off.

    index 0 is the smallest positive amplitude in the sorted array and -1
    the largest; the decay moves one ulp toward `toward`.
    """
    positive = END_TRIALS.critical[END_TRIALS.critical > 0.0]
    decay = float(positive[index]) * 2.5e-12  # sigma 2.5e-12, one sample
    return END_PLANE, END_TRIALS, 2.5e-12, 1, float(np.nextafter(decay, toward))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=monte_carlo_settings())
@example(case=(*drawn(GEOM_PLANE, 1), 2.5e-12, 1, 0.0))
@example(case=(*drawn(GEOM_PLANE, 2), 1e-170, 3, 0.05))
@example(case=(*drawn(COINCIDENT, 3), 0.3, 2, 0.4))
# the scores overflow, and the readings overflow
@example(case=(*drawn(HUGE, 5), 2.5e-12, 1, 0.5))
@example(case=(*drawn(GEOM_PLANE, 6), 1e308, 4, 0.5))
# x on the smallest and on the largest positive critical amplitude, and one ulp either side
@example(case=at_end(0, -np.inf))
@example(case=at_end(0, 0.0))
@example(case=at_end(0, np.inf))
@example(case=at_end(-1, -np.inf))
@example(case=at_end(-1, 0.0))
@example(case=at_end(-1, np.inf))
def test_monte_carlo_hits_are_the_kernel_count_on_every_setting(case):
    plane, trials, sigma, samples, decay = case
    sensor = SensorModel(sigma=sigma, samples=samples)
    table = table_row(sensor, decay, plane.rows)
    try:
        _check_table(table, trials.extent)
    except ValidationError as error:  # the scores overflow: the kernel is never run
        with pytest.raises(ValidationError, match=f"^{re.escape(str(error))}$"):
            _mc_hits(sensor, decay, plane, trials)
        return
    with mock.patch.object(gravsim.attack, "_logits", wraps=_logits) as kernel:
        hits = _mc_hits(sensor, decay, plane, trials)
    assert hits == kernel_hits(table, trials)
    # The kernel runs once, on every trial, exactly when the band holds a trial or is None,
    # on the engine's statistic bit for bit.
    band = _rounding_band(decay, float(samples), sensor.sigma, plane, trials)
    held = band is None or bool(
        ((band[0] <= trials.critical) & (trials.critical <= band[1])).any()
    )
    scored = [call.args[0] for call in kernel.call_args_list]
    assert len(scored) == held
    engine = _plane_statistic(table, 0, trials.truths, trials.normals)
    assert all(np.array_equal(bits(statistic), bits(engine)) for statistic in scored)


def scalar_critical_amplitudes(truths, normals, plane):
    """Each trial's max over h != t of -2 N.(P_t - P_h) / |P_t - P_h|^2, and a tolerance.

    None when a squared row distance is 0, subnormal or infinite. The
    tolerance of a trial is 8 ulps of the largest sum of absolute terms,
    2 (|N_0 d_0| + |N_1 d_1|) / |d|^2, which bounds the rounding of any
    order of the products and the sum.
    """
    rows = plane.tolist()
    differences = {
        (t, h): (rows[t][0] - rows[h][0], rows[t][1] - rows[h][1])
        for t in range(4)
        for h in range(4)
        if h != t
    }
    squares = {pair: d0 * d0 + d1 * d1 for pair, (d0, d1) in differences.items()}
    if not all(sys.float_info.min <= square < math.inf for square in squares.values()):
        return None
    amplitudes, tolerances = [], []
    for t, n0, n1 in zip(truths.tolist(), *normals.tolist()):
        taus, terms = [], []
        for h in range(4):
            if h != t:
                (d0, d1), square = differences[t, h], squares[t, h]
                taus.append(-2.0 * (n0 * d0 + n1 * d1) / square)
                terms.append(2.0 * (abs(n0 * d0) + abs(n1 * d1)) / square)
        amplitudes.append(max(taus))
        tolerances.append(8 * sys.float_info.epsilon * max(terms))
    return np.array(amplitudes), np.array(tolerances)


@pytest.mark.parametrize(
    "plane",
    [GEOM_PLANE, SKEWED.plane, HUGE / 4, GEOM_PLANE * 1e-140, COINCIDENT, HUGE, GEOM_PLANE * 1e-150],
    ids=["default", "skewed", "quarter-huge", "tiny", "coincident", "huge", "subnormal"],
)
def test_critical_amplitudes_match_a_scalar_reference(plane):
    # The hoisted weights, gathered by truth with take and contracted with
    # einsum, give each trial's critical amplitude to a few ulps; a plane
    # with coincident rows or squared distances out of range gives none.
    constants = _plane_constants(plane)
    trials = _mc_trials(np.random.default_rng(9), 500, constants)
    reference = scalar_critical_amplitudes(trials.truths, trials.normals, plane)
    if reference is None:
        assert constants.weights is None and trials.critical is None
        return
    amplitudes, tolerances = reference
    critical = _critical_amplitudes(trials.truths, trials.normals, constants.weights)
    assert (np.abs(critical - amplitudes) <= tolerances).all()
    assert np.array_equal(trials.critical, np.sort(critical))
    assert not constants.weights.flags.writeable
