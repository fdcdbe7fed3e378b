"""Kernel differential tests: projective numpy scan vs naive re-encode vs explicit spans."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from cartcodes import make_field, normalize_spec
from cartcodes import _kernels
from helpers import lazy_codes, ref_pivot_rows, span_words


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


def _block_rows(q, length):
    """Rows j in the fast scan's low block over words of this length, as the scan sizes
    it: the most with q^j * length <= SCAN_BLOCK_ENTRIES codes, and at least one."""
    j = 1
    while q ** (j + 1) * length <= _kernels.SCAN_BLOCK_ENTRIES:
        j += 1
    return j


def _planted_rows(F, k, t, digits, rng, length=None):
    """Dense random rows, with row t set so that the message (digits, 1 at t) encodes a
    weight-1 word.

    The rows are 2k + 4 long unless given, so other words seldom weigh as little.
    """
    if length is None:
        length = 2 * k + 4
    G = _random_rows(F, k, length, rng)
    word = [0] * length
    word[rng.randrange(length)] = rng.randrange(1, F.q)
    for i, m in enumerate(digits):  # G[t] = word - sum_{i < t} m_i G[i]
        word = [F.sub(w, F.mul(m, g)) for w, g in zip(word, G[i].tolist())]
    G[t] = word
    return G


# The word length of the partition tests.  At the default entry bound it gives every
# field a block of j <= 13 rows, so K <= j + 2 planted rows are at least 2K + 4 long
# (asserted), as _planted_rows needs.
PARTITION_LENGTH = 40


# Messages the naive reference re-encodes in the partition test, at most.
PARTITION_MESSAGES = 1 << 18


# K rows on both sides of the block size j at this word length: the last nonzero
# digit of a message lands in the low block (t < j) or in the odometer (t >= j),
# and the odometer's digits run through their highest values.  The default block
# is used where the naive reference reaches K = j + 2; elsewhere (F9) the entry
# bound is lowered to a block of three rows, so no K is skipped.
@pytest.mark.parametrize("p,e", SCAN_PARTITION_FIELDS)
def test_scan_partition_independence(monkeypatch, p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(11 * p + e)
    j = _block_rows(F.q, PARTITION_LENGTH)
    if F.q ** (j + 2) > PARTITION_MESSAGES:
        monkeypatch.setattr(_kernels, "SCAN_BLOCK_ENTRIES", F.q**3 * PARTITION_LENGTH)
        j = _block_rows(F.q, PARTITION_LENGTH)
        assert j == 3
    assert 2 * (j + 2) + 4 <= PARTITION_LENGTH
    for k in (j - 1, j, j + 1, j + 2):
        assert k >= 1 and F.q**k <= PARTITION_MESSAGES  # every k runs
        t = rng.randrange(k)
        cases = [
            _random_rows(F, k, PARTITION_LENGTH, rng),
            # the last row, every lower digit at its last value
            _planted_rows(F, k, k - 1, [F.q - 1] * (k - 1), rng, PARTITION_LENGTH),
            _planted_rows(F, k, t, [rng.randrange(F.q) for _ in range(t)], rng, PARTITION_LENGTH),
        ]
        for G in cases:
            assert _kernels.scan_min_weight(G, T) == _kernels.scan_min_weight_naive(G, T)


# Primes whose uint8 codes are summed in uint8 (F_127) and in uint16 (F_131, F_251).
NARROW_SUM_PRIMES = [(127, 1), (131, 1), (251, 1)]


# With a small entry cap the block shrinks with the word length, down to one row,
# and it grows a few coordinates (down to one) per slice.  Over the large primes
# the naive reference bounds K: F_127 and F_131 reach K = 3, so their odometers
# add uint8 codes too, in uint8 and in uint16 sums.
@pytest.mark.parametrize("cap", [1, 40])
@pytest.mark.parametrize("p,e", SCAN_PARTITION_FIELDS + NARROW_SUM_PRIMES)
def test_scan_block_entry_cap(monkeypatch, p, e, cap):
    monkeypatch.setattr(_kernels, "SCAN_BLOCK_ENTRIES", cap)
    monkeypatch.setattr(_kernels, "CHUNK_ENTRIES", cap)
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(13 * p + e + cap)
    for k in range(1, 5):
        if F.q**k > 1 << 22:  # the naive scan re-encodes all q^k messages
            break
        t = rng.randrange(k)
        cases = [
            _random_rows(F, k, rng.randint(1, 9), rng),
            _planted_rows(F, k, t, [rng.randrange(F.q) for _ in range(t)], rng),
        ]
        for G in cases:
            full = _kernels.scan_min_weight_naive(G, T)
            assert _kernels.scan_min_weight(G, T) == full


def _scan_peak(G, tables):
    """The fast scan's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        w = _kernels.scan_min_weight(G, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return w, peak


# A scan's tracemalloc peak, in units of SCAN_BLOCK_ENTRIES bytes: the block of uint8
# codes, the comparison each step makes and, while the block grows, its last growth.
SCAN_PEAK_BLOCKS = 4


def test_scan_memory_bounded_on_long_words():
    # The F2 grid {0,1}^13 at d = 1: 14 rows of 8192 codes.  The block is 2^6 words,
    # 512 KiB of uint8 codes plus 512 KiB of comparison; a block of 2^13 such words
    # would be 64 MiB.
    F = make_field(2)
    G = normalize_spec(F, [(0, 1)] * 13, 1).generator_matrix().array
    w, peak = _scan_peak(G, F.tables())
    assert w == 1 << 12
    assert peak < SCAN_PEAK_BLOCKS * _kernels.SCAN_BLOCK_ENTRIES


# One entry bound sizes the block whatever the word length: 2^18 words of length 2
# and 2^13 of length 64, each filled by enough rows (2^6 of length 8192 above).
@pytest.mark.parametrize("length,k", [(2, 20), (64, 15)])
def test_scan_memory_bounded_by_block_entries(length, k):
    F = make_field(2)
    j = _block_rows(F.q, length)
    assert j < k and F.q**j * length == _kernels.SCAN_BLOCK_ENTRIES
    G = np.random.default_rng(length).integers(0, F.q, (k, length))
    _, peak = _scan_peak(G, F.tables())
    assert peak < SCAN_PEAK_BLOCKS * _kernels.SCAN_BLOCK_ENTRIES


# Short words take more than 2^13 words per block (2^17 of length 4, 2^14 of
# length 24): K rows fill the block or pass it by one or two odometer rows.
@pytest.mark.parametrize("length,k", [(4, 17), (4, 19), (24, 14), (24, 15)])
def test_scan_short_words_past_2_13_words(length, k):
    F = make_field(2)
    T = F.tables()
    assert F.q ** min(k, _block_rows(F.q, length)) > 1 << 13
    rng = random.Random(length + k)
    cases = [
        _random_rows(F, k, length, rng),
        # the last row, every lower digit at its last value
        _planted_rows(F, k, k - 1, [1] * (k - 1), rng, length),
    ]
    for G in cases:
        full = _kernels.scan_min_weight_naive(G, T)
        assert _kernels.scan_min_weight(G, T) == full


def test_scan_memory_bounded_while_block_grows():
    # F_256, two rows of 2^16 codes: the one-row block is forced past the entry cap
    # (16 MiB of uint8 codes); growing it in one step would take 128 MiB per
    # int64 temporary.
    F = make_field(2, 8)
    T = F.tables()
    G = np.random.default_rng(7).integers(0, F.q, (2, 1 << 16))
    w, peak = _scan_peak(G, T)
    expected = min(
        np.count_nonzero(T.add(T.mul(a, G[0]), G[1])) for a in range(F.q)
    )
    assert w == min(expected, np.count_nonzero(G[0]))
    assert peak < 48 * 2**20


# The block holds uint8 codes up to q = 256 and uint16 codes from q = 257 on.  The
# planted row 1 is mostly 1, and -1 is 256 in F_257: codes narrowed to uint8 would
# read it as 0 and weigh the word row 1 below the true minimum (at least 6).  Over
# F_127, F_131 and F_251 the block grows by modular sums of uint8 codes.
@pytest.mark.parametrize("p,e", [(2, 8), (257, 1)] + NARROW_SUM_PRIMES)
def test_scan_code_dtype_boundary(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(p + e)
    planted = np.array(
        [rng.sample(range(1, F.q), 8), [1] * 6 + [2] * 2], dtype=np.int64
    )
    cases = [planted] + [_random_rows(F, 2, rng.randint(1, 9), rng) for _ in range(4)]
    for G in cases:
        full = _kernels.scan_min_weight_naive(G, T)
        assert _kernels.scan_min_weight(G, T) == full
    assert _kernels.scan_min_weight_naive(planted, T) >= 6


# Weights are summed in uint8 up to L = 255 and in uint16 from L = 256 on.  Every
# nonzero word is a multiple of one full-weight word of length L, so the minimum
# is L: a uint8 sum would wrap it to 0 (dropped as a zero word) or to 1.  With
# the entry cap at 1 the block has one row and the odometer the other three.
@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("length", [255, 256, 257])
@pytest.mark.parametrize("p,e", [(3, 1), (2, 2)])
def test_scan_weight_dtype_boundary(monkeypatch, p, e, length, cap):
    if cap is not None:
        monkeypatch.setattr(_kernels, "SCAN_BLOCK_ENTRIES", cap)
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(length + p + e)
    word = [rng.randrange(1, F.q) for _ in range(length)]
    G = np.array(
        [[F.mul(c, x) for x in word] for c in (1, 0, rng.randrange(1, F.q), 1)],
        dtype=np.int64,
    )
    assert _kernels.scan_min_weight_naive(G, T) == length
    assert _kernels.scan_min_weight(G, T) == length


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (3, 2)])
def test_rank_paths_agree_with_span_oracle(p, e):
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(200 * p + e)
    for _ in range(5):
        k = rng.randint(1, 3)
        length = rng.randint(1, 5)
        M = _random_rows(F, k, length, rng)
        r = _kernels.rank_mod(lazy_codes(M, T), T).size
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
        profile = np.searchsorted(_kernels.rank_mod(lazy_codes(M, T), T), counts).tolist()
        assert profile == [_kernels.rank_mod(lazy_codes(M[:R], T), T).size for R in counts]
        for R in counts[1:]:
            if F.q ** min(R, M.shape[1]) <= 1 << 10:  # span sizes stay small
                assert len(span_words(F, M[:R].tolist())) == F.q ** profile[R]


# -- column panels: the same pivots and entries as the right-looking reference --

RANK_PANEL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 11)]


def _full_rank_rows(F, rows, cols, rng):
    """Random rows x cols codes of rank min(rows, cols) (by the reference)."""
    while True:
        M = _random_rows(F, rows, cols, rng)
        if ref_pivot_rows(M.copy(), F.tables()).size == min(rows, cols):
            return M


def _panel_end_pivots(F, rows, rng):
    """Wide rows x cols codes whose pivot k falls on the last column of panel k.

    Column hi_k - 1 of panel k is zero above row k, nonzero in row k and random
    below it, and every other column of the first panels is zero; the columns
    past them are random.
    """
    bounds = list(_kernels._panels(rows, 10 * rows + 7, 1))
    cols = bounds[-1][1]
    M = _random_rows(F, rows, cols, rng)
    planted = min(rows, len(bounds) - 1)
    M[:, : bounds[planted - 1][1]] = 0
    for k in range(planted):
        c = bounds[k][1] - 1
        M[k, c] = rng.randrange(1, F.q)
        M[k + 1 :, c] = [rng.randrange(F.q) for _ in range(rows - k - 1)]
    return M


def _rank_panel_cases(F, rng):
    """(name, matrix) pairs: wide, rank-deficient, square, tall, zero columns, panel ends."""
    cases = []
    for rows in (1, 2, 3, 5):
        cases.append(("wide full rank", _full_rank_rows(F, rows, 12 * rows + rng.randrange(9), rng)))
        basis = _random_rows(F, max(1, rows - 2), 11 * rows + 3, rng)
        mix = _random_rows(F, rows, basis.shape[0], rng)
        deficient = np.zeros((rows, basis.shape[1]), dtype=np.int64)  # rows of mix @ basis
        T = F.tables()
        for i in range(basis.shape[0]):
            deficient = T.add(deficient, T.mul(mix[:, i : i + 1], basis[i]))
        cases.append(("wide rank-deficient", deficient))
        cases.append(("square", _random_rows(F, rows, rows, rng)))
        cases.append(("tall", _random_rows(F, 2 * rows + 1, rows, rng)))
        Z = _full_rank_rows(F, rows, 9 * rows + 5, rng)
        Z[:, rng.sample(range(Z.shape[1]), Z.shape[1] // 2)] = 0
        Z[:, : 2 * rows] = 0  # the whole first panel when it is 2 * rows wide
        cases.append(("zero columns", Z))
        cases.append(("pivots on panel ends", _panel_end_pivots(F, rows, rng)))
    return cases


def _last_pivot_column(M, tables):
    """The column of the last pivot of M (full row rank), by column-prefix ranks."""
    rows = M.shape[0]
    lo, hi = 0, M.shape[1] - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ref_pivot_rows(M[:, : mid + 1].copy(), tables).size == rows:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _narrow_cases(fields):
    """(p, e, dtype) for each field and each narrow dtype, uint8 or uint16, that holds
    its codes: a source held in either is evaluated into tables.code panels."""
    return [(p, e, dt) for p, e in fields for dt in ("uint8", "uint16")
            if np.iinfo(dt).max >= p**e - 1]


def _assert_eliminates_as_reference(M, T, name):
    """rank_mod on M, evaluated in tables.code, against the int64 right-looking reference:
    the same pivots, the same prefix ranks with the panel bounds at multiples of 3, and
    the same entries up to the last pivot's panel, each column evaluated once and none
    past that panel (the elimination returned)."""
    rows, cols = M.shape
    ref_M = M.astype(np.int64)
    ref = ref_pivot_rows(ref_M, T)
    lazy = lazy_codes(M, T)
    assert _kernels.rank_mod(lazy, T).tolist() == ref.tolist(), name
    counts = list(range(rows + 1))
    thirds = lazy_codes(M, T, 3)
    got = np.searchsorted(_kernels.rank_mod(thirds, T), counts).tolist()
    assert got == np.searchsorted(ref, counts).tolist(), name
    bounds = [(lo, lo + P.shape[1]) for lo, P in thirds.panels]
    assert all(lo % 3 == 0 and (hi % 3 == 0 or hi == cols) for lo, hi in bounds), name
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]], name  # each column once
    end = cols
    if ref.size == rows:
        last = _last_pivot_column(M, T)
        end = next(hi for lo, hi in _kernels._panels(rows, cols, 1) if lo <= last < hi)
    bounds = [(lo, lo + P.shape[1]) for lo, P in lazy.panels]
    assert bounds == [(lo, hi) for lo, hi in _kernels._panels(rows, cols, 1) if lo < end], name
    assert np.array_equal(np.hstack([P for _, P in lazy.panels]), ref_M[:, :end]), name


@pytest.mark.parametrize("panel", [1, 2, 3])
@pytest.mark.parametrize("p,e", RANK_PANEL_FIELDS)
def test_rank_panels_match_right_looking_reference(monkeypatch, p, e, panel):
    _check_rank_panels(monkeypatch, p, e, panel, "int64")


@pytest.mark.parametrize("panel", [1, 2, 3])
@pytest.mark.parametrize("p,e,dtype", _narrow_cases(RANK_PANEL_FIELDS))
def test_rank_panels_match_reference_on_narrow_codes(monkeypatch, p, e, dtype, panel):
    _check_rank_panels(monkeypatch, p, e, panel, dtype)


def _check_rank_panels(monkeypatch, p, e, panel, dtype):
    """The panel elimination of M, held in dtype, against the int64 right-looking reference."""
    monkeypatch.setattr(_kernels, "PANEL_COLS", panel)
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(400 * p + 10 * e + panel)
    for name, M in _rank_panel_cases(F, rng):
        _assert_eliminates_as_reference(M.astype(dtype), T, name)


@pytest.mark.parametrize("p,e", RANK_PANEL_FIELDS)
def test_rank_leaves_columns_past_the_first_panel_untouched(p, e):
    # M = [A | B] with A invertible: every row is a pivot by column r - 1, so the
    # elimination returns within the first panel and never evaluates B's columns
    # past it (the right-looking elimination rewrote all of them)
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(500 * p + e)
    r = 6
    A = _full_rank_rows(F, r, r, rng)
    B = _random_rows(F, r, 3 * _kernels.PANEL_COLS, rng)
    M = np.hstack([A, B])
    lazy = lazy_codes(M, T)
    assert _kernels.rank_mod(lazy, T).size == r
    first = next(_kernels._panels(r, M.shape[1], 1))[1]
    assert first == _kernels.PANEL_COLS
    [(lo, P)] = lazy.panels
    assert lo == 0 and P.shape == (r, first)
    assert not np.array_equal(P, M[:, :first])


def test_rank_panel_schedule():
    # one panel for square, tall and every matrix up to max(2 * rows, PANEL_COLS)
    # columns; past that the panel ends grow fourfold, so a few panels cover it all
    w = _kernels.PANEL_COLS
    for rows, cols in [(343, 343), (495, 125), (10, 125), (91, 1), (1, w)]:
        assert list(_kernels._panels(rows, cols, 1)) == [(0, cols)]
    assert list(_kernels._panels(91, 4096, 1)) == [(0, w), (w, 4 * w), (4 * w, 4096)]
    assert list(_kernels._panels(300, 4096, 1)) == [(0, 600), (600, 2400), (2400, 4096)]
    for rows, cols in [(1, 10**6), (7, 999), (200, 12345)]:
        bounds = list(_kernels._panels(rows, cols, 1))
        assert bounds[0] == (0, min(cols, max(2 * rows, w)))
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1][1] == cols
        assert len(bounds) <= 2 + math.log(cols / bounds[0][1], 4)


# -- step tables: over fields with q^2 <= CHUNK_ENTRIES a table step takes and gathers
# from q x q tables, on every step of a field of at most SMALL_FIELD_Q elements and on
# the steps with at least q hit rows of a larger one; the other steps add row by row
# through tables.add --

RANK_TABLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 11), (131, 1), (251, 1)]


def _combined_rows(F, rows, rank, cols, rng):
    """Dense random rows x cols codes, each a random combination of `rank` random rows."""
    T = F.tables()
    basis = _random_rows(F, rank, cols, rng)
    mix = _random_rows(F, rows, rank, rng)
    M = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rank):
        M = T.add(M, T.mul(mix[:, i : i + 1], basis[i]))
    return M


def _rank_table_cases(F, rng):
    """(name, matrix) pairs for one field.

    Sizes follow min(q, 9), so over F_2^11, F_131 and F_251 every step hits
    far fewer than q rows.  Tall and low-rank matrices keep many live rows
    nonzero in every pivot column; the wide low-rank ones span several
    panels, so their replays step too.
    """
    s = min(F.q, 9)
    rows = 6 * s + 8
    return [
        ("tall", _random_rows(F, rows, 8, rng)),
        ("wide low rank", _combined_rows(F, rows, 5, 6 * rows, rng)),
        ("wide low rank, zero first panel", np.hstack(
            [np.zeros((rows, 2 * rows), dtype=np.int64), _combined_rows(F, rows, 4, 3 * rows, rng)]
        )),
        ("square", _random_rows(F, 3 * s + 3, 3 * s + 3, rng)),
        ("wide full rank", _full_rank_rows(F, 2 * s + 2, 9 * (2 * s + 2), rng)),
    ]


def _count_row_updates(monkeypatch, T):
    """The list that records the shape of every row block M[sel, lo:hi] that a step
    adds to through tables.add (a 2-D first operand), as it happens."""
    updates = []
    real_add = type(T).add

    def counted_add(self, a, b):
        if np.ndim(a) == 2:
            updates.append(np.shape(a))
        return real_add(self, a, b)

    monkeypatch.setattr(type(T), "add", counted_add)
    return updates


def _row_by_row_updates(updates, M, T):
    """The row blocks that rank_mod adds to through tables.add while it eliminates M."""
    updates.clear()
    _kernels.rank_mod(lazy_codes(M, T), T)
    return list(updates)


def _assert_step_policy(F, M, untabled, name):
    """A field of at most SMALL_FIELD_Q elements adds row by row only on steps whose q
    multiples would exceed CHUNK_ENTRIES.  A larger one with q^2 <= CHUNK_ENTRIES adds
    row by row only on steps with fewer than q hit rows and on those wide steps, which go
    CHUNK_ENTRIES // width < q rows at a time: every block has fewer than q rows.  Over
    any larger field a matrix of at most q rows adds row by row on every step."""
    q = F.q
    if q <= _kernels.SMALL_FIELD_Q:
        assert all(q * width > _kernels.CHUNK_ENTRIES for _, width in untabled), (name, untabled)
        return
    if q * q <= _kernels.CHUNK_ENTRIES:
        assert all(rows < q for rows, _ in untabled), (name, untabled)
    if M.shape[0] <= q:
        assert untabled, name


@pytest.mark.parametrize("chunk", ["default", "q rows"])
@pytest.mark.parametrize("panel", [1, 3])
@pytest.mark.parametrize("p,e", RANK_TABLE_FIELDS)
def test_rank_table_steps_match_right_looking_reference(monkeypatch, p, e, panel, chunk):
    _check_rank_table_steps(monkeypatch, p, e, panel, chunk, "int64")


@pytest.mark.parametrize("chunk", ["default", "q rows"])
@pytest.mark.parametrize("panel", [1, 3])
@pytest.mark.parametrize("p,e,dtype", _narrow_cases(RANK_TABLE_FIELDS))
def test_rank_table_steps_match_reference_on_narrow_codes(monkeypatch, p, e, dtype, panel, chunk):
    _check_rank_table_steps(monkeypatch, p, e, panel, chunk, dtype)


def _check_rank_table_steps(monkeypatch, p, e, panel, chunk, dtype):
    """The table steps on M, held in dtype, against the int64 right-looking reference."""
    monkeypatch.setattr(_kernels, "PANEL_COLS", panel)
    F = make_field(p, e)
    T = F.tables()
    updates = _count_row_updates(monkeypatch, T)
    rng = random.Random(600 * p + 10 * e + panel)
    for name, M in _rank_table_cases(F, rng):
        M = M.astype(dtype)
        if chunk == "q rows":  # every step's q multiples fit, but the hit rows go q at a time
            monkeypatch.setattr(_kernels, "CHUNK_ENTRIES", F.q * max(F.q, M.shape[1]))
        _assert_eliminates_as_reference(M, T, name)
        untabled = _row_by_row_updates(updates, M, T)
        _assert_step_policy(F, M, untabled, name)  # F_2^11, F_131, F_251: every step row by row


# The edges of the step tables, each side of each bound:
# - the odd-p sum index on uint8 codes goes from uint8 (q^2 - 1 = 168 at F_13) to
#   uint16 (288 at F_17);
# - F_31, F_32 and F_3^3 are the last fields that take every step from the tables,
#   F_37, F_64 and F_7^2 the first that take only steps with q hit rows;
# - F_181, F_128 and F_13^2 are the last fields with q x q tables, F_191, F_256 and
#   F_3^5 the first without;
# - the "few hit rows" case has more than q rows, so every field with q^2 <=
#   CHUNK_ENTRIES builds its tables, but only 4 nonzero ones, so every step hits
#   fewer than q rows; F_7 is one more small field whose steps take the tables.
# Each case's source is held in each dtype; its panels are evaluated into tables.code.
STEP_TABLE_EDGES = [
    (13, 1), (17, 1),
    (31, 1), (37, 1), (2, 5), (2, 6), (3, 3), (7, 2),
    (181, 1), (191, 1), (2, 7), (2, 8), (13, 2), (3, 5),
    (7, 1),
]


@pytest.mark.parametrize("dtype", ["uint8", "uint16", "int32", "int64"])
@pytest.mark.parametrize("p,e", STEP_TABLE_EDGES)
def test_rank_step_table_edges(monkeypatch, p, e, dtype):
    F = make_field(p, e)
    T = F.tables()
    q = F.q
    assert (q <= _kernels.SMALL_FIELD_Q) == (q in (7, 13, 17, 27, 31, 32))
    assert (q * q <= _kernels.CHUNK_ENTRIES) == (q not in (191, 243, 256))
    updates = _count_row_updates(monkeypatch, T)
    rng = random.Random(900 * p + e)
    wide = _combined_rows(F, 12, 5, 300, rng)  # two panels; first-panel steps ~250 columns
    cases = [
        ("square", _random_rows(F, 24, 24, rng)),
        ("tall", _random_rows(F, 40, 10, rng)),
        ("wide low rank", wide),
        ("few hit rows", np.vstack([_random_rows(F, 4, 30, rng), np.zeros((q + 16, 30), int)])),
        ("q hit rows", _random_rows(F, q + 20, 6, rng)),  # every step hits at least q rows
    ]
    for name, M in cases:
        M = M.astype(dtype)
        _assert_eliminates_as_reference(M, T, name)
        untabled = _row_by_row_updates(updates, M, T)
        _assert_step_policy(F, M, untabled, name)
        if name == "few hit rows":
            assert bool(untabled) == (q > _kernels.SMALL_FIELD_Q), name
        if name == "q hit rows":
            assert bool(untabled) == (q * q > _kernels.CHUNK_ENTRIES), (name, untabled)
    # a first-panel step's q multiples pass CHUNK_ENTRIES = 100 q, so even over the
    # small fields it adds row by row
    monkeypatch.setattr(_kernels, "CHUNK_ENTRIES", 100 * q)
    M = wide.astype(dtype)
    _assert_eliminates_as_reference(M, T, "wide, narrow chunks")
    untabled = _row_by_row_updates(updates, M, T)
    _assert_step_policy(F, M, untabled, "wide, narrow chunks")
    assert untabled


class _ColumnReads(np.ndarray):
    """A matrix that records the column of every single-column read M[rows, c], also
    through the column panels M[:, lo:hi] that the elimination reads them from: a panel
    is a view of the same class that records its reads at their offset lo, and so is
    its code-dtype copy (lazy_codes)."""

    def __array_finalize__(self, obj):
        self.reads, self.offset = getattr(obj, "reads", None), getattr(obj, "offset", 0)

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], (int, np.integer)):
            self.reads.append(self.offset + int(key[1]))
        if isinstance(key, tuple) and all(isinstance(k, slice) for k in key):
            panel = np.asarray(self)[key].view(_ColumnReads)
            panel.reads, panel.offset = self.reads, self.offset + (key[1].start or 0)
            return panel
        return np.asarray(self)[key]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 2), (2, 11)])
def test_rank_search_jumps_over_dead_columns(p, e):
    # rank 3 of 8 rows over 900 columns: past the column of the third pivot the
    # live rows are zero everywhere, and the search reads about one column per
    # SEARCH_COLS there instead of every one
    F = make_field(p, e)
    T = F.tables()
    rng = random.Random(700 * p + e)
    M = _combined_rows(F, 8, 3, 900, rng)
    ref = ref_pivot_rows(M.copy(), T)
    assert ref.size == 3
    last = next(j for j in range(900) if ref_pivot_rows(M[:, : j + 1].copy(), T).size == 3)
    work = M.view(_ColumnReads)
    work.reads = []
    assert _kernels.rank_mod(lazy_codes(work, T), T).tolist() == ref.tolist()
    dead = [c for c in work.reads if c > last]
    assert 0 < len(dead) <= 2 * 900 // _kernels.SEARCH_COLS, len(dead)
