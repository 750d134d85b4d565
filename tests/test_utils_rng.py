"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import default_rng, spawn_rngs, stable_hash_seed


class TestDefaultRng:
    def test_none_gives_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = default_rng(42).integers(0, 1000, size=10)
        b = default_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_generator_passes_through_unchanged(self):
        gen = np.random.default_rng(1)
        assert default_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        rng = default_rng(seq)
        assert isinstance(rng, np.random.Generator)


class TestSpawnRngs:
    def test_spawns_requested_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_are_independent_streams(self):
        children = spawn_rngs(123, 3)
        draws = [c.integers(0, 2**32, size=8) for c in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_deterministic_given_seed(self):
        a = [g.integers(0, 100, 4) for g in spawn_rngs(9, 2)]
        b = [g.integers(0, 100, 4) for g in spawn_rngs(9, 2)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(5)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2


class TestStableHashSeed:
    def test_deterministic(self):
        assert stable_hash_seed(1, "elt") == stable_hash_seed(1, "elt")

    def test_distinct_inputs_distinct_seeds(self):
        seeds = {
            stable_hash_seed(i, tag) for i in range(50) for tag in ("a", "b")
        }
        assert len(seeds) == 100

    def test_fits_in_63_bits(self):
        for i in range(100):
            assert 0 <= stable_hash_seed(i, "x") < 2**63

    def test_order_sensitive(self):
        assert stable_hash_seed(1, 2) != stable_hash_seed(2, 1)

    @pytest.mark.parametrize(
        "parts, seed",
        [
            ((), 1469598103934665603),
            ((0,), 5187598658539770339),
            ((1, "elt"), 4422564010918039149),
            ((-1, "x"), 6881446254168385401),
            (("ünïcödé", np.int64(-7), 2**62), 4901827841233345138),
            ((2**63 - 1, -(2**63)), 8114806633640365499),
        ],
    )
    def test_pinned_values(self, parts, seed):
        # Seeds feed every generator stream and store key: the literal
        # FNV-1a outputs must never move.
        assert stable_hash_seed(*parts) == seed
