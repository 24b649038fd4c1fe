"""The fleet's vectorized host seeding against ``np.random.default_rng``.

:func:`repro.now.fleet._host_generators` re-implements SeedSequence's
entropy hash in NumPy uint32 arithmetic so a whole fleet's generators are
seeded in one pass.  The stream contract is that host ``key`` on stream
``s`` gets exactly ``default_rng([seed, s, key])``; these tests hold it to
that oracle state for state and draw for draw, across the entropy layouts
that take different paths through the hash (one- and two-word keys, and
seeds long enough to overflow the 4-word pool).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.now.fleet import (
    FleetSpec,
    _host_generators,
    _SeedWords,
    plan_fleet_schedules,
    run_fleet,
)

EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 12345, 2**40 + 7]
SEEDS = [0, 7, 2**32 + 5]
N_DRAWS = 256


def _oracle(seed: int, stream: int, key: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, key])


def _draws(g: np.random.Generator) -> list[np.ndarray]:
    return [
        g.exponential(3.0, N_DRAWS),
        g.uniform(0.0, 1.0, N_DRAWS),
        g.integers(0, 1000, N_DRAWS),
        g.integers(0, 2**62, N_DRAWS),
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", [0, 1])
def test_edge_keys_match_default_rng(seed, stream):
    gens = _host_generators(seed, stream, EDGE_KEYS)
    assert len(gens) == len(EDGE_KEYS)
    for key, g in zip(EDGE_KEYS, gens):
        ref = _oracle(seed, stream, key)
        assert g.bit_generator.state == ref.bit_generator.state, key
        for got, want in zip(_draws(g), _draws(ref)):
            np.testing.assert_array_equal(got, want)
        assert g.bit_generator.state == ref.bit_generator.state, key


def test_numpy_integer_inputs():
    keys = np.array([0, 2**32, 9], dtype=np.int64)
    gens = _host_generators(np.int64(11), np.int64(1), keys)
    for key, g in zip(keys.tolist(), gens):
        assert g.bit_generator.state == _oracle(11, 1, key).bit_generator.state


def test_empty_key_set():
    assert _host_generators(3, 0, []) == []


def test_negative_key_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        _host_generators(0, 0, [1, -2])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    stream=st.sampled_from([0, 1]),
    keys=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=24, unique=True),
)
def test_random_key_sets_match_default_rng(seed, stream, keys):
    for key, g in zip(keys, _host_generators(seed, stream, keys)):
        ref = _oracle(seed, stream, key)
        assert g.bit_generator.state == ref.bit_generator.state
        assert g.integers(0, 2**32) == ref.integers(0, 2**32)


class TestSeedWords:
    WORDS = np.random.SeedSequence([0, 0, 0]).generate_state(4, np.uint64)

    def test_answers_the_pcg64_request(self):
        got = _SeedWords(self.WORDS).generate_state(4, np.uint64)
        np.testing.assert_array_equal(got, self.WORDS)
        assert got.dtype == np.uint64

    @pytest.mark.parametrize(
        "n_words, dtype",
        [(4, np.uint32), (2, np.uint64), (8, np.uint64), (8, np.uint32),
         (4, np.int64), (1, np.uint32)],
    )
    def test_rejects_other_requests(self, n_words, dtype):
        with pytest.raises(ValueError, match="4 uint64 words"):
            _SeedWords(self.WORDS).generate_state(n_words, dtype)

    def test_rejects_default_dtype(self):
        with pytest.raises(ValueError, match="4 uint64 words"):
            _SeedWords(self.WORDS).generate_state(4)


@pytest.mark.parametrize("policy", ["sharing", "stealing"])
def test_run_fleet_builds_no_default_rng_per_host(monkeypatch, policy):
    spec = FleetSpec.homogeneous(40, seed=3)
    plan = plan_fleet_schedules(spec)
    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    res = run_fleet(spec, np.full(160, 1.0), 400.0, policy=policy, plan=plan)
    assert res.finished
    assert calls == []

