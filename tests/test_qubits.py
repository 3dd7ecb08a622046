"""Unit tests for symbols, the Born table, and Born-rule measurements.

Eve's and Bob's measurements are checked as the session engine makes them:
each reads one uniform of its round's block against a row of the Born table.
"""

import numpy as np
import pytest

import oracles
from gravsim import (
    Basis,
    Bb84Symbol,
    EveConfig,
    EveStrategy,
    Geometry,
    NonlinearParams,
    SYMBOLS,
    SensorModel,
    ValidationError,
    branch_weights,
    run_session,
)
from gravsim import protocol
from gravsim.attack import _EVE_EDGES, _attack_batch
from gravsim.qubits import BRANCH_WEIGHTS, _BOB_P0, as_symbol

GEOM = Geometry()


def session(n, seed, mode="ResendMeasured"):
    """An n-round session at b = 0 with Eve on every round, and its uniforms, (n, 8)."""
    cfg = EveConfig(GEOM, NonlinearParams(b=0.0), SensorModel(), EveStrategy(mode))
    _, transcript = run_session(n, cfg, seed=seed)
    return transcript, protocol._uniforms(protocol._round_draws(seed, 0, n))


def honest_session(n, seed):
    """An n-round session without Eve, and its uniforms, (n, 8)."""
    _, transcript = run_session(n, seed=seed)
    return transcript, protocol._uniforms(protocol._round_draws(seed, 0, n))


def test_symbol_order_and_properties():
    assert [s.label for s in SYMBOLS] == ["Z0", "Z1", "Xp", "Xm"]
    assert [int(s) for s in SYMBOLS] == [0, 1, 2, 3]
    assert [s.basis for s in SYMBOLS] == [Basis.Z, Basis.Z, Basis.X, Basis.X]
    assert [s.bit for s in SYMBOLS] == [0, 1, 0, 1]


def test_as_symbol_label_roundtrip_and_error():
    for s in SYMBOLS:
        assert as_symbol(s.label) is s
    with pytest.raises(ValidationError, match="Z2"):
        as_symbol("Z2")


def test_as_symbol_coercions():
    assert as_symbol(Bb84Symbol.XP) is Bb84Symbol.XP
    assert as_symbol(2) is Bb84Symbol.XP
    assert as_symbol("Xp") is Bb84Symbol.XP
    with pytest.raises(ValidationError):
        as_symbol(7)
    with pytest.raises(ValidationError):
        as_symbol("Q0")


def test_as_symbol_takes_no_bool_or_float_and_names_its_path():
    assert as_symbol(np.int64(3), "here") is Bb84Symbol.XM
    for value in (True, np.bool_(False), 1.0, -1, 4, "z1", None):
        with pytest.raises(ValidationError, match=r"^here: expected a BB84 symbol"):
            as_symbol(value, "here")


def test_prepare_returns_the_symbol():
    # A preparation is its symbol, given as the symbol, its index or its label.
    for s in SYMBOLS:
        for given in (s, int(s), s.label):
            assert np.array_equal(branch_weights(given), BRANCH_WEIGHTS[s])


def test_prepare_rejects_non_symbol():
    with pytest.raises(ValidationError, match="^branch_weights: "):
        branch_weights(9)


def test_branch_weights_row_is_read_only():
    row = branch_weights(Bb84Symbol.Z0)
    with pytest.raises(ValueError):
        row[0] = 0.0


def test_branch_weights_exact_table():
    expected = {
        Bb84Symbol.Z0: (0.5, 0.0, 0.25, 0.25),
        Bb84Symbol.Z1: (0.0, 0.5, 0.25, 0.25),
        Bb84Symbol.XP: (0.25, 0.25, 0.5, 0.0),
        Bb84Symbol.XM: (0.25, 0.25, 0.0, 0.5),
    }
    for s, values in expected.items():
        assert tuple(branch_weights(s)) == values  # exact floats, no tolerance


def amplitudes(symbol):
    return np.array([a.to_float() for a in oracles.STATES[symbol.label]])


def test_branch_weights_agree_with_oracle_and_born_rule():
    for s in SYMBOLS:
        oracle = oracles.eve_outcome_distribution(s.label)
        weights = branch_weights(s)
        for t in SYMBOLS:
            assert weights[t] == float(oracle[t.label])
        # Born rule 0.5 * <t|s>^2 from the oracle's (real) amplitudes in floating point
        born = [0.5 * np.dot(amplitudes(t), amplitudes(s)) ** 2 for t in SYMBOLS]
        assert np.allclose(weights, born, atol=1e-15)


def test_branch_weights_validation():
    # No caller supplies weights: every row of the table is a distribution by construction.
    assert BRANCH_WEIGHTS.shape == (4, 4)
    assert (BRANCH_WEIGHTS >= 0.0).all()
    assert BRANCH_WEIGHTS.sum(axis=1).tolist() == [1.0] * 4
    assert _EVE_EDGES[:, -1].tolist() == [1.0] * 4
    with pytest.raises(ValueError):
        BRANCH_WEIGHTS[0, 0] = 0.0


def test_eve_measure_frequencies_and_impossible_outcome():
    transcript, _ = session(80_000, 31)
    outcomes = transcript["outcome"][transcript["alice"] == Bb84Symbol.Z1]
    n = len(outcomes)
    counts = np.bincount(outcomes, minlength=4)
    assert counts[Bb84Symbol.Z0] == 0
    for t, p in ((Bb84Symbol.Z1, 0.5), (Bb84Symbol.XP, 0.25), (Bb84Symbol.XM, 0.25)):
        assert counts[t] / n == pytest.approx(p, abs=4 * oracles.binomial_sigma(p, n))


def test_eve_measure_consumes_exactly_one_draw():
    # Each round's outcome is read from its own block's outcome uniform alone.
    transcript, uniforms = session(2000, 17)
    u = uniforms[:, protocol._EVE_OUTCOME]
    edges = _EVE_EDGES[transcript["alice"]]
    assert np.array_equal(transcript["outcome"], (u[:, np.newaxis] >= edges).sum(axis=1))


def test_eve_measure_thresholds_are_exact_quarters():
    def below(edge):
        return np.nextafter(edge, 0.0)

    cases = {
        # Z0 outcomes: Z0 on [0, 1/2), never Z1, Xp on [1/2, 3/4), Xm on [3/4, 1)
        Bb84Symbol.Z0: (
            (0.0, Bb84Symbol.Z0),
            (below(0.5), Bb84Symbol.Z0),
            (0.5, Bb84Symbol.XP),
            (below(0.75), Bb84Symbol.XP),
            (0.75, Bb84Symbol.XM),
            (below(1.0), Bb84Symbol.XM),
        ),
        # Xp outcomes: Z0 on [0, 1/4), Z1 on [1/4, 1/2), Xp on [1/2, 1), never Xm
        Bb84Symbol.XP: (
            (below(0.25), Bb84Symbol.Z0),
            (0.25, Bb84Symbol.Z1),
            (below(0.5), Bb84Symbol.Z1),
            (0.5, Bb84Symbol.XP),
            (below(1.0), Bb84Symbol.XP),
        ),
    }
    table = EveConfig(GEOM, NonlinearParams(b=0.0), SensorModel(), EveStrategy())._table
    for prepared, draws in cases.items():
        u = np.array([draw for draw, _ in draws])
        n = len(u)
        outcome, *_ = _attack_batch(np.full(n, prepared), table, 0, u, np.zeros((n, 2)), u)
        assert outcome.tolist() == [int(want) for _, want in draws], prepared


def test_bob_measure_eigenstates_are_deterministic():
    # Without Eve, Bob measures Alice's state; in its own basis he reads its bit.
    transcript, _ = honest_session(4000, 3)
    sifted = transcript[transcript["sifted"]]
    assert set(sifted["alice"].tolist()) == {0, 1, 2, 3}
    assert sifted["bob_basis"].tolist() == [Bb84Symbol(a).basis is Basis.X for a in sifted["alice"]]
    assert np.array_equal(sifted["bob_bit"], sifted["alice"] & 1)
    assert not sifted["error"].any()


def test_bob_measure_conjugate_basis_is_fair():
    transcript, _ = honest_session(20_000, 11)
    bits = transcript["bob_bit"][~transcript["sifted"]]
    n = len(bits)
    assert bits.mean() == pytest.approx(0.5, abs=4 * oracles.binomial_sigma(0.5, n))


def test_bob_measure_consumes_exactly_one_draw():
    # Bob's bit is read from his round's bit uniform alone, against the state Eve resent.
    transcript, uniforms = session(2000, 23)
    p0 = _BOB_P0[transcript["resent"], transcript["bob_basis"]]
    assert np.array_equal(transcript["bob_bit"], uniforms[:, protocol._BOB_BIT] >= p0)
