"""Unit tests for symbols, the Born table, and Born-rule measurements."""

import numpy as np
import pytest

import oracles
from gravsim import (
    Basis,
    Bb84Symbol,
    SYMBOLS,
    ValidationError,
    bob_measure,
    branch_weights,
    default_geometry,
    eve_dual_basis_measure,
    mix_field,
    prepare,
)
from gravsim.qubits import as_symbol


def test_symbol_order_and_properties():
    assert [s.label for s in SYMBOLS] == ["Z0", "Z1", "Xp", "Xm"]
    assert [int(s) for s in SYMBOLS] == [0, 1, 2, 3]
    assert [s.basis for s in SYMBOLS] == [Basis.Z, Basis.Z, Basis.X, Basis.X]
    assert [s.bit for s in SYMBOLS] == [0, 1, 0, 1]


def test_from_label_roundtrip_and_error():
    for s in SYMBOLS:
        assert Bb84Symbol.from_label(s.label) is s
    with pytest.raises(ValidationError, match="Z2"):
        Bb84Symbol.from_label("Z2")


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
    for s in SYMBOLS:
        assert prepare(s) is s
        assert prepare(int(s)) is s


def test_prepare_rejects_non_symbol():
    with pytest.raises(ValidationError):
        prepare(9)


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
    # A caller-supplied weight vector enters the model only through mix_field,
    # which owns the checks the table rows satisfy by construction.
    geom = default_geometry()
    with pytest.raises(ValidationError, match="non-negative"):
        mix_field((-0.1, 0.5, 0.3, 0.3), geom)
    with pytest.raises(ValidationError, match="sum to 1"):
        mix_field((0.5, 0.5, 0.25, 0.25), geom)
    with pytest.raises(ValidationError, match="four"):
        mix_field((0.5, 0.5), geom)


def test_eve_measure_frequencies_and_impossible_outcome():
    rng = np.random.default_rng(31)
    state = prepare(Bb84Symbol.Z1)
    n = 20_000
    counts = np.zeros(4, dtype=int)
    for _ in range(n):
        counts[eve_dual_basis_measure(state, rng)] += 1
    assert counts[Bb84Symbol.Z0] == 0
    for t, p in ((Bb84Symbol.Z1, 0.5), (Bb84Symbol.XP, 0.25), (Bb84Symbol.XM, 0.25)):
        assert counts[t] / n == pytest.approx(p, abs=4 * oracles.binomial_sigma(p, n))


def test_eve_measure_consumes_exactly_one_draw():
    state = prepare(Bb84Symbol.XM)
    used = np.random.default_rng(17)
    shadow = np.random.default_rng(17)
    eve_dual_basis_measure(state, used)
    shadow.random()
    assert used.random() == shadow.random()


class FixedDraw:
    """Stands in for a Generator whose next uniform is known."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


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
    for prepared, draws in cases.items():
        for u, outcome in draws:
            assert eve_dual_basis_measure(prepared, FixedDraw(u)) is outcome, (prepared, u)


def test_measurements_reject_non_symbols():
    rng = np.random.default_rng(0)
    for state in (2, "Z0", None):
        with pytest.raises(ValidationError, match="eve_dual_basis_measure"):
            eve_dual_basis_measure(state, rng)
        with pytest.raises(ValidationError, match="bob_measure"):
            bob_measure(state, Basis.Z, rng)


def test_bob_measure_eigenstates_are_deterministic():
    rng = np.random.default_rng(3)
    for s, basis, bit in (
        (Bb84Symbol.Z0, Basis.Z, 0),
        (Bb84Symbol.Z1, Basis.Z, 1),
        (Bb84Symbol.XP, Basis.X, 0),
        (Bb84Symbol.XM, Basis.X, 1),
    ):
        bits = {bob_measure(prepare(s), basis, rng) for _ in range(64)}
        assert bits == {bit}


def test_bob_measure_conjugate_basis_is_fair():
    rng = np.random.default_rng(11)
    n = 10_000
    ones = sum(bob_measure(prepare(Bb84Symbol.Z0), Basis.X, rng) for _ in range(n))
    assert ones / n == pytest.approx(0.5, abs=4 * oracles.binomial_sigma(0.5, n))


def test_bob_measure_consumes_exactly_one_draw():
    used = np.random.default_rng(23)
    shadow = np.random.default_rng(23)
    bob_measure(prepare(Bb84Symbol.XP), Basis.Z, used)
    shadow.random()
    assert used.random() == shadow.random()
