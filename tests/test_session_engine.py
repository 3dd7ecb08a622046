"""Contract tests for the batch session engine and its counter-based random stream.

run_session simulates rounds in vectorised chunks. These tests pin that
engine to the scalar reference (attack_round, bob_measure) fed the very
same variates, and check the stream contract: a session is a prefix of any
longer one with the same seed, the chunk size never changes a result, and
memory does not grow with the session length.
"""

import tracemalloc

import numpy as np
import pytest

from gravsim import (
    SYMBOLS,
    Basis,
    EveConfig,
    EveStrategy,
    NonlinearParams,
    SensorModel,
    attack_round,
    bob_measure,
    default_geometry,
    run_session,
)
from gravsim import protocol

GEOM = default_geometry()


class Replay:
    """A generator stand-in handing out fixed variates in the order they are asked for."""

    def __init__(self, uniforms, normals=None):
        self._uniforms = list(uniforms)
        self._normals = normals

    def random(self):
        return self._uniforms.pop(0)

    def standard_normal(self, shape):
        normals, self._normals = self._normals, None
        return normals.reshape(shape)

    def exhausted(self) -> bool:
        return not self._uniforms and self._normals is None


def eve_config(
    mode="CloneInferred", b=0.05, sigma=2.5e-12, samples=1, fraction=1.0, born=True, tau=0.9
):
    return EveConfig(
        geometry=GEOM,
        params=NonlinearParams(b=b),
        sensor=SensorModel(sigma=sigma, samples=samples),
        strategy=EveStrategy(mode, tau=tau),
        attack_fraction=fraction,
        born_factor=born,
    )


SCALAR_CASES = {
    "clone": eve_config(),
    "resend": eve_config("ResendMeasured"),
    # tau 0.6 at b = 0.05 takes both branches of the Threshold rule
    "threshold": eve_config("Threshold", tau=0.6),
    "fraction-0.7": eve_config(fraction=0.7, samples=3),
    # b = 0 without the Born factor: four-way ties on every round
    "b0-ties": eve_config(b=0.0, born=False),
    "b0-born": eve_config("Threshold", b=0.0),
    "break": eve_config(b=0.1, sigma=1e-30),
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_engine_matches_the_scalar_reference(case):
    cfg = SCALAR_CASES[case]
    seed, n = 17, 300
    _, records = run_session(n, cfg, seed=seed)
    n_normals = cfg.sensor.samples * GEOM.field_dim
    uniforms, normals = protocol._round_variates(seed, 0, n, n_normals)
    resends = set()
    for record, u, z in zip(records, uniforms.tolist(), normals):
        alice_u, coin_u, outcome_u, tie_u, basis_u, bit_u = u
        alice = SYMBOLS[int(4.0 * alice_u)]
        assert record.alice is alice
        state, eve = alice, None
        if coin_u < cfg.attack_fraction:
            rng = Replay([outcome_u, tie_u], z)
            state, eve = attack_round(
                alice, cfg.geometry, cfg.params, cfg.sensor, cfg.strategy, rng, cfg.born_factor
            )
            assert rng.exhausted()
        bob_basis = (Basis.Z, Basis.X)[int(2.0 * basis_u)]
        bob_bit = bob_measure(state, bob_basis, Replay([bit_u]))
        assert (record.bob_basis, record.bob_bit) == (bob_basis, bob_bit)
        assert record.sifted == (bob_basis is alice.basis)
        assert record.error == ((bob_bit != alice.bit) if record.sifted else None)
        assert (record.eve is None) == (eve is None)
        if eve is not None:
            got = record.eve
            assert (got.outcome, got.inferred, got.resent, got.cloned) == (
                eve.outcome,
                eve.inferred,
                eve.resent,
                eve.cloned,
            )
            np.testing.assert_allclose(got.posterior, eve.posterior, rtol=0.0, atol=1e-12)
            resends.add(got.resent == got.inferred)
    if case == "threshold":
        assert resends == {True, False}
    if case == "fraction-0.7":
        assert 0 < sum(r.eve is None for r in records) < n


def test_session_is_a_prefix_of_a_longer_one():
    cfg = eve_config("Threshold", fraction=0.7, tau=0.6)
    short_stats, short = run_session(300, cfg, seed=8)
    _, long = run_session(700, cfg, seed=8)
    assert short == long[:300]
    assert short_stats == run_session(300, cfg, seed=8, with_records=False)[0]
    _, honest_short = run_session(50, seed=8)
    _, honest_long = run_session(2100, seed=8)
    assert honest_short == honest_long[:50]


@pytest.mark.parametrize("variates", [1, 40, 200])
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, variates):
    cases = [
        eve_config("Threshold", fraction=0.7, samples=3, tau=0.6),
        eve_config(b=0.0, born=False),
        None,
    ]
    expected = [run_session(500, cfg, seed=21) for cfg in cases]
    monkeypatch.setattr(protocol, "_CHUNK_VARIATES", variates)
    assert [run_session(500, cfg, seed=21) for cfg in cases] == expected


def test_round_block_layout():
    # six uniforms, Box-Muller inputs rounded up to even, padded to whole Philox blocks
    assert protocol._round_block(0) == 8
    assert protocol._round_block(3) == 12
    assert protocol._round_block(24) == 32
    assert protocol._round_block(26) == 32
    uniforms, normals = protocol._round_variates(5, 3, 4, 3)
    raw = np.random.Philox(5).random_raw(4 * 12)[3 * 12 :]
    assert uniforms[0].tolist() == ((raw[:6] >> 11) * 2.0**-53).tolist()
    assert normals.shape == (1, 3)
    assert protocol.RNG_CONTRACT == 2


def test_session_memory_does_not_grow_with_length():
    cfg = eve_config(fraction=0.7)
    run_session(10, cfg, seed=1)
    peaks = []
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            run_session(n, cfg, seed=1, with_records=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert large <= 1.05 * small
