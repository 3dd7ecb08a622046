"""Unit tests for states, symbols, and Born-rule measurements."""

import math

import numpy as np
import pytest

import oracles
from gravsim import (
    Basis,
    Bb84Symbol,
    BranchWeights,
    QubitState,
    SYMBOLS,
    ValidationError,
    bob_measure,
    branch_weights,
    eve_dual_basis_measure,
    outcome_distribution,
    prepare,
    state_overlap,
)
from gravsim.qubits import INV_SQRT2, as_symbol


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


def test_prepared_amplitudes_match_reference():
    for s in SYMBOLS:
        state = prepare(s)
        a0, a1 = oracles.STATES[s.label]
        assert complex(state.amp0) == pytest.approx(a0.to_float(), abs=1e-15)
        assert complex(state.amp1) == pytest.approx(a1.to_float(), abs=1e-15)
        assert state.norm_sq == pytest.approx(1.0, abs=1e-12)


def test_prepare_rejects_non_symbol():
    with pytest.raises(ValidationError):
        prepare(9)


def test_amplitudes_vector_is_read_only():
    amps = prepare(Bb84Symbol.Z0).amplitudes()
    with pytest.raises(ValueError):
        amps[0] = 0.0


def test_state_overlap_conjugates_the_bra():
    assert state_overlap(prepare(Bb84Symbol.Z0), prepare(Bb84Symbol.XP)) == pytest.approx(
        INV_SQRT2
    )
    value = state_overlap(QubitState(1j, 0.0), QubitState(1.0, 0.0))
    assert value == pytest.approx(-1j)


def test_outcome_distribution_matches_oracle():
    for s in SYMBOLS:
        dist = outcome_distribution(prepare(s))
        expected = oracles.eve_outcome_distribution(s.label)
        for t in SYMBOLS:
            assert dist[t] == pytest.approx(float(expected[t.label]), abs=1e-15)
        # the orthogonal partner is impossible exactly, not approximately
        partner = dist[[t for t in SYMBOLS if t.basis is s.basis and t is not s][0]]
        assert partner == 0.0


def test_branch_weights_exact_table():
    expected = {
        Bb84Symbol.Z0: (0.5, 0.0, 0.25, 0.25),
        Bb84Symbol.Z1: (0.0, 0.5, 0.25, 0.25),
        Bb84Symbol.XP: (0.25, 0.25, 0.5, 0.0),
        Bb84Symbol.XM: (0.25, 0.25, 0.0, 0.5),
    }
    for s, values in expected.items():
        assert branch_weights(s).w == values  # exact floats, no tolerance


def test_branch_weights_agree_with_oracle_and_born_rule():
    for s in SYMBOLS:
        oracle = oracles.eve_outcome_distribution(s.label)
        weights = branch_weights(s)
        for t in SYMBOLS:
            assert weights.w[t] == float(oracle[t.label])
        assert np.allclose(weights.as_array(), outcome_distribution(prepare(s)), atol=1e-15)


def test_branch_weights_validation():
    with pytest.raises(ValidationError, match="non-negative"):
        BranchWeights((-0.1, 0.5, 0.3, 0.3))
    with pytest.raises(ValidationError, match="sum to 1"):
        BranchWeights((0.5, 0.5, 0.25, 0.25))
    with pytest.raises(ValidationError, match="four"):
        BranchWeights((0.5, 0.5))


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


def test_eve_measure_rejects_unnormalized_state():
    with pytest.raises(ValidationError):
        eve_dual_basis_measure(QubitState(0.5, 0.5), np.random.default_rng(0))


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
