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


def _prefix_test_matrix(F, rng):
    """Random rows plus zero, repeated and scaled rows, with a late first nonzero.

    Column 0 is zero in every row but the last, so the pivot of column 0 comes
    from the last row while earlier rows are still live.
    """
    cols = rng.randint(2, 6)
    base = _random_rows(F, rng.randint(1, 4), cols, rng).tolist()
    rows = []
    for _ in range(rng.randint(2, 9)):
        kind = rng.randrange(4)
        if kind == 0 or not rows:
            rows.append(list(rng.choice(base)))
        elif kind == 1:
            rows.append([0] * cols)
        elif kind == 2:
            rows.append(list(rng.choice(rows)))
        else:
            c = rng.randrange(1, F.q)
            rows.append([F.mul(c, x) for x in rng.choice(rows)])
    for row in rows:
        row[0] = 0
    rows.append([rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(cols - 1)])
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_rank_prefix_profile(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(300 * p + e)
    for trial in range(12):
        M = _prefix_test_matrix(F, rng) if trial % 2 else _random_rows(
            F, rng.randint(1, 7), rng.randint(1, 6), rng)
        counts = list(range(M.shape[0] + 1))
        profile = _kernels.rank_mod(M, T, prefixes=counts)
        assert profile == [_kernels.rank_mod(M[:R], T) for R in counts]
        assert profile[-1] == _kernels.rank_mod(M, T)
        for R in counts[1:]:
            if F.q ** min(R, M.shape[1]) <= 1 << 10:  # span sizes stay small
                assert len(span_words(F, M[:R].tolist())) == F.q ** profile[R]
