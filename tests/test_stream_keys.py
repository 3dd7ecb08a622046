"""The session streams of one engine pass: Philox keys hashed for many seeds, and re-keying.

_simulate draws every session of a pass from one Philox, re-keyed to each
session's key, as Generator.random floats. These tests pin the keys to
numpy's own SeedSequence and Philox(seed) on edge seeds and on arbitrary
integers, pin those floats to the raw draws' uniforms, and check that a
sweep's rows equal its points' lone sessions when seeds cross 2**128 and
sessions span several chunks.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravsim import SweepSpec, load_config, run_session, sweep
from gravsim import protocol

# The edges of SeedSequence's word split: one, two, four and more 32-bit words.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200 + 7]


def seed_sequence_key(seed: int) -> list[int]:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()


def philox_key(seed: int) -> list[int]:
    return np.random.Philox(seed).state["state"]["key"].tolist()


def test_hashed_keys_are_the_keys_philox_derives_on_edge_seeds():
    expected = [seed_sequence_key(s) for s in EDGE_SEEDS]
    assert expected == [philox_key(s) for s in EDGE_SEEDS]
    assert protocol._hashed_keys(EDGE_SEEDS) == expected
    for seed, key in zip(EDGE_SEEDS, expected):
        assert protocol._hashed_keys([seed]) == [key]
    for edge in (2**64, 2**128):  # two and three, four and five 32-bit words
        seeds = range(edge - 8, edge + 8)
        assert protocol._hashed_keys(seeds) == [philox_key(s) for s in seeds]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=2**300 - 1), min_size=1, max_size=20))
def test_hashed_keys_equal_seed_sequence_on_any_seeds(seeds):
    assert protocol._hashed_keys(seeds) == [seed_sequence_key(s) for s in seeds]


@pytest.mark.parametrize("seed", [7, 2**130 + 1])
def test_a_rekeyed_generator_enters_the_stream_as_a_fresh_one(seed):
    bitgen = np.random.Philox(12345)
    bitgen.random_raw(3)  # a partly used buffer is discarded by the re-key
    (key,) = protocol._hashed_keys([seed])
    protocol._rekey(bitgen, key)
    raw = bitgen.random_raw(3 * protocol._BLOCK).reshape(3, -1)
    assert np.array_equal(raw, protocol._round_draws(seed, 0, 3))


def generator_uniforms(bitgen: np.random.Philox, rounds: int) -> np.ndarray:
    """The (rounds, 8) uniforms _simulate draws from bitgen: Generator.random into a buffer."""
    out = np.empty((rounds, protocol._BLOCK))
    np.random.Generator(bitgen).random(out=out)
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# _simulate draws the contract's uniforms (x >> 11) * 2**-53 as floats with
# Generator.random; the raw draws of _round_draws through _uniforms are the
# reference.
@pytest.mark.parametrize("seed", [7, 2**130 + 1])
def test_generator_floats_are_the_uniforms_of_the_raw_draws(seed):
    fresh = generator_uniforms(np.random.Philox(seed), 37)
    assert same_bits(fresh, protocol._uniforms(protocol._round_draws(seed, 0, 37)))
    advanced = np.random.Philox(seed)
    advanced.advance(5 * protocol._BLOCK // 4)
    expected = protocol._uniforms(protocol._round_draws(seed, 5, 42))
    assert same_bits(generator_uniforms(advanced, 37), expected)
    rekeyed = np.random.Philox(12345)
    np.random.Generator(rekeyed).random(3)  # a partly used buffer is discarded by the re-key
    (key,) = protocol._hashed_keys([seed])
    protocol._rekey(rekeyed, key)
    assert same_bits(generator_uniforms(rekeyed, 37), fresh)


def test_a_pass_without_sessions_draws_nothing():
    assert protocol._simulate(10, []).shape == (0, 14)
    assert protocol._simulate(10, range(3, 3)).shape == (0, 14)


def straddling_spec(rounds: int) -> SweepSpec:
    """16 points whose seeds run from 2**128 - 8 (four words) to 2**128 + 7 (five)."""
    return SweepSpec(
        grids=(
            ("b", (0.0, 0.05)),
            ("sigma", (1e-30, 2.5e-12)),
            ("strategy", ("CloneInferred", "Threshold")),
            ("attackFraction", (0.5, 1.0)),
        ),
        rounds_per_point=rounds,
        seed_base=2**128 - 8,
    )


# 5000 rounds: a point continues in the next chunk, and the point after it
# re-keys inside that chunk; 1500 and 37 rounds: one chunk holds several or
# many points, so the re-keys fall inside a chunk.
@pytest.mark.parametrize("rounds", [5000, 1500, 37])
@pytest.mark.parametrize("with_eve", [True, False])
def test_sweep_rows_equal_lone_sessions_across_the_128_bit_seed_edge(rounds, with_eve):
    base = load_config("default.json")
    base = replace(base, eve=replace(base.eve, enabled=with_eve))
    spec = straddling_spec(rounds)
    rows = sweep(spec, base)
    assert len(rows) == 16
    for k, row in enumerate(rows):
        values = {name: row[name] for name in spec.parameter_names}
        eve = base.with_overrides(values).to_eve_config() if with_eve else None
        stats, _ = run_session(rounds, eve, seed=spec.seed_base + k, with_records=False)
        assert row == {**values, **stats.to_dict()}


def test_pass_counts_equal_lone_counts_for_seeds_of_every_width():
    seeds = EDGE_SEEDS + list(range(2**128 - 4, 2**128 + 4))
    together = protocol._simulate(1030, seeds)
    alone = [protocol._simulate(1030, [s])[0] for s in seeds]
    assert np.array_equal(together, np.array(alone))
