"""Kernel differential tests: projective numpy scan vs naive re-encode vs explicit spans."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from cartcodes import make_field, normalize_spec
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
        ref = _kernels.scan_min_weight_naive(G, T)
        assert _kernels.scan_min_weight(G, T) == ref
        # independent: minimum weight over the explicitly spanned words
        words = span_words(F, G.tolist())
        expected = min(
            (sum(1 for x in w if x) for w in words if any(w)), default=length + 1
        )
        assert ref == expected


SCAN_PARTITION_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _block_rows(q):
    """Rows in the fast scan's low block: its q^j words stay within 2^13."""
    return max(1, int(13 / math.log2(q)))


def _planted_rows(F, k, t, digits, rng):
    """Dense random rows, with row t set so that the message (digits, 1 at t) encodes a
    weight-1 word.

    The rows are 2k + 4 long, so other words seldom weigh as little.
    """
    length = 2 * k + 4
    G = _random_rows(F, k, length, rng)
    word = [0] * length
    word[rng.randrange(length)] = rng.randrange(1, F.q)
    for i, m in enumerate(digits):  # G[t] = word - sum_{i < t} m_i G[i]
        word = [F.sub(w, F.mul(m, g)) for w, g in zip(word, G[i].tolist())]
    G[t] = word
    return G


# K rows on both sides of the default block size j: the last nonzero digit of a
# message lands in the low block (t < j) or in the odometer (t >= j), and the
# odometer's digits run through their highest values.
@pytest.mark.parametrize("p,e", SCAN_PARTITION_FIELDS)
def test_scan_partition_independence(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(11 * p + e)
    j = _block_rows(F.q)
    for k in (j - 1, j, j + 1, j + 2):
        if k < 1 or F.q**k > 1 << 18:
            continue
        t = rng.randrange(k)
        cases = [
            _random_rows(F, k, 7, rng),
            # the last row, every lower digit at its last value
            _planted_rows(F, k, k - 1, [F.q - 1] * (k - 1), rng),
            _planted_rows(F, k, t, [rng.randrange(F.q) for _ in range(t)], rng),
        ]
        for G in cases:
            assert _kernels.scan_min_weight(G, T) == _kernels.scan_min_weight_naive(G, T)


@pytest.mark.parametrize("p,e", SCAN_PARTITION_FIELDS)
def test_scan_early_exit_matches_full(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(12 * p + e)
    j = _block_rows(F.q)
    # the minimum-weight word has its last nonzero digit at row j, in the odometer
    G = _planted_rows(F, j + 1, j, [rng.randrange(F.q) for _ in range(j)], rng)
    full = _kernels.scan_min_weight_naive(G, T)
    assert full == 1
    assert _kernels.scan_min_weight(G, T, target=full) == full
    assert _kernels.scan_min_weight(G, T) == full


# With a small entry cap the block shrinks with the word length, down to one row.
@pytest.mark.parametrize("cap", [1, 40])
@pytest.mark.parametrize("p,e", SCAN_PARTITION_FIELDS)
def test_scan_block_entry_cap(monkeypatch, p, e, cap):
    monkeypatch.setattr(_kernels, "SCAN_BLOCK_ENTRIES", cap)
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(13 * p + e + cap)
    for k in range(1, 5):
        t = rng.randrange(k)
        cases = [
            _random_rows(F, k, rng.randint(1, 9), rng),
            _planted_rows(F, k, t, [rng.randrange(F.q) for _ in range(t)], rng),
        ]
        for G in cases:
            full = _kernels.scan_min_weight_naive(G, T)
            assert _kernels.scan_min_weight(G, T) == full
            assert _kernels.scan_min_weight(G, T, target=full) == full


def test_scan_memory_bounded_on_long_words():
    # F2^13 at d = 1: 14 rows of 8192 codes; a block of 2^13 such words would be 512 MiB
    F = make_field(2)
    G = normalize_spec(F, [(0, 1)] * 13, 1).generator_matrix().array
    tracemalloc.start()
    try:
        w = _kernels.scan_min_weight(G, F.tables())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == 1 << 12
    assert peak < 96 * 2**20


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (3, 2)])
def test_rank_paths_agree_with_span_oracle(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(200 * p + e)
    for _ in range(5):
        k = rng.randint(1, 3)
        length = rng.randint(1, 5)
        M = _random_rows(F, k, length, rng)
        r = _kernels.rank_mod(M.copy(), T)
        # span size is q^rank
        assert len(span_words(F, M.tolist())) == F.q**r


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
        profile = _kernels.rank_mod(M.copy(), T, prefixes=counts)
        assert profile == [_kernels.rank_mod(M[:R].copy(), T) for R in counts]
        assert profile[-1] == _kernels.rank_mod(M.copy(), T)
        for R in counts[1:]:
            if F.q ** min(R, M.shape[1]) <= 1 << 10:  # span sizes stay small
                assert len(span_words(F, M[:R].tolist())) == F.q ** profile[R]
