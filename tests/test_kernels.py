"""Kernel differential tests: projective numpy scan vs naive re-encode vs explicit spans."""

import random

import numpy as np
import pytest

from cartcodes import make_field
from cartcodes import _kernels
from helpers import span_words


def _random_rows(field, k, length, rng):
    return np.array(
        [[rng.randrange(field.q) for _ in range(length)] for _ in range(k)],
        dtype=np.int64,
    )


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_scan_paths_agree(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(100 * p + e)
    for _ in range(5):
        k = rng.randint(1, 4)
        length = rng.randint(1, 9)
        G = _random_rows(F, k, length, rng)
        ref = _kernels.scan_min_weight(G, T, method="naive")
        assert _kernels.scan_min_weight(G, T, method="numpy") == ref
        # independent: minimum weight over the explicitly spanned words
        words = span_words(F, G.tolist())
        expected = min(
            (sum(1 for x in w if x) for w in words if any(w)), default=length + 1
        )
        assert ref == expected


# K = 5 rows with block sizes on both sides of K: the leading digit of a
# message lands in the low block for some sizes and in the odometer for others.
@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_scan_partition_independence(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(11)
    G = _random_rows(F, 5, 7, rng)
    results = {
        _kernels.scan_min_weight(G, T, method="numpy", block_digits=b)
        for b in (1, 2, 3, 5, 8)
    }
    assert results == {_kernels.scan_min_weight(G, T, method="naive")}


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_scan_early_exit_matches_full(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(12)
    G = _random_rows(F, 4, 8, rng)
    full = _kernels.scan_min_weight(G, T, method="naive")
    for b in (2, None):  # K = 4 > 2: early exit may fire inside the odometer
        assert _kernels.scan_min_weight(G, T, target=full, block_digits=b) == full


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (3, 2)])
def test_rank_paths_agree_with_span_oracle(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(200 * p + e)
    for _ in range(5):
        k = rng.randint(1, 3)
        length = rng.randint(1, 5)
        M = _random_rows(F, k, length, rng)
        r = _kernels.rank_mod(M, T)
        # span size is q^rank
        assert len(span_words(F, M.tolist())) == F.q**r


def test_unknown_method_rejected():
    F = make_field(2)
    with pytest.raises(ValueError):
        _kernels.scan_min_weight(np.ones((1, 2), dtype=np.int64), F.tables(), method="bogus")
