import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpc.shuffle


def _list_shuffle(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


class TestShuffleReplay:
    SIZES = sorted({0, 1, 2, 3} | {2**k + d for k in range(1, 18) for d in (-1, 0, 1)})

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40 + 1, 2**70])
    def test_equals_list_shuffle(self, seed):
        # Each bit length of the bounds starts at a power of two, so these
        # sizes start and end the draws on every side of a bit-length edge.
        for n in self.SIZES:
            got = fpc.shuffle.shuffled_range(n, seed)
            assert got.dtype == np.int32
            assert got.tolist() == _list_shuffle(n, seed), n

    @pytest.mark.parametrize("window,chunk", [(1, 1), (1, 5), (2, 3), (7, 1), (16, 64), (64, 16)])
    @pytest.mark.parametrize("seed", [0, -3, 2**70])
    def test_window_and_chunk_edges(self, monkeypatch, window, chunk, seed):
        # Tiny windows end a fixpoint inside every run of one bit length, and
        # tiny chunks split the steps that drew one value across blocks.
        monkeypatch.setattr(fpc.shuffle, "_DRAW_WINDOW", window)
        monkeypatch.setattr(fpc.shuffle, "_SWAP_CHUNK", chunk)
        for n in [0, 1, 2, 3, 4, 5, 17, 63, 64, 65, 300, 1025]:
            assert fpc.shuffle.shuffled_range(n, seed).tolist() == _list_shuffle(n, seed), n

    def test_chunk_edges_at_default_sizes(self):
        chunk = fpc.shuffle._SWAP_CHUNK
        for n in [chunk - 1, chunk, chunk + 1, chunk + 2, 2 * chunk + 1, 3 * chunk]:
            assert fpc.shuffle.shuffled_range(n, 11).tolist() == _list_shuffle(n, 11), n

    @given(n=st.integers(0, 3000), seed=st.integers(-(2**80), 2**80))
    @settings(max_examples=60, deadline=None)
    def test_equals_list_shuffle_any_seed(self, n, seed):
        assert fpc.shuffle.shuffled_range(n, seed).tolist() == _list_shuffle(n, seed)

    def test_draws_are_randbelow(self):
        # The draws alone, against the generator's own bounded draws.
        rng = random.Random(5)
        expected = [rng._randbelow(b) for b in range(1000, 1, -1)]
        got = np.concatenate(list(fpc.shuffle._shuffle_draws(random.Random(5), 1000)))
        assert got.tolist() == expected
