"""Hot enumeration kernels: codeword scans and rank over F_q.

The minimum-weight scan is a blocked pure-numpy walk over one message per
projective point: a word's weight does not change when its message is
multiplied by a nonzero scalar, so only messages whose last nonzero digit is
1 are encoded, (q^K - 1)/(q - 1) words instead of q^K.  Its inner loop does
no field arithmetic: the weight of word r of the block plus a high part h is
the number of coordinates c where WT[c, r] differs from -h[c].  The block WT
of the first j rows' q^j words is coordinate-major (one row per coordinate)
in the field's code dtype, tables.code (uint8 up to q = 256), and the
mismatches are summed a coordinate at a time in the narrowest dtype that
holds L, so each step streams L * q^j narrow codes, not int64 ones.  One
bound sizes the block: j is the most rows whose q^j * L codes stay within
SCAN_BLOCK_ENTRIES, and at least one.  So a short word takes many rows per
step and a long word few, and a step streams about as many codes either
way.  The block grows in coordinate slices of CHUNK_ENTRIES codes, so the
scan's memory is bounded on long words too.  G, the scaled rows and the
odometer's high part are narrow codes as well.  scan_min_weight_naive
re-encodes all q^K messages from scratch; the tests use it as the
differential reference.

Rank is one swap-free Gaussian elimination: in each column the pivot is the
live row of lowest index, and the other live rows are updated from the next
column on.  Because no row ever moves,
the same elimination gives the rank of every row prefix M[:R]; the rank
oracle uses this to read dim C_d at every degree d from one matrix, whose
degree <= d monomials are its first C(n + d, n) rows.  rank_mod takes the
matrix as a LazyMatrix and evaluates one column panel at a time, as the
elimination reaches it, in the field's code dtype, and eliminates it in
place.  A step updates only its own panel, and a step that a later panel
replays records its multipliers, the pivot's entry and the hit rows'
entries in its column, so each later panel replays the recorded steps
without reading an earlier one, and no panel is kept once it is
eliminated.  The elimination returns as soon as every row
is a pivot: a wide matrix of full row rank never touches the columns past
the panel of its last pivot, so it never evaluates them.  Square
and tall matrices are one panel.  The pivot search jumps,
up to SEARCH_COLS columns at a time, over the columns where every live row
is zero, so a rank-deficient matrix does not search column by column once
its live rows are zero.  A table step costs the same few calls however many
rows it hits: it forms the pivot row's q multiples from a q x q product
table, and each hit row adds its multiplier's row of them, by XOR or through
a q x q addition table.  Over fields of at most SMALL_FIELD_Q elements every
step is a table step; over larger ones with q^2 <= CHUNK_ENTRIES a step with
at least q hit rows is, and the others scale the pivot row once per hit row.

All kernels do their field arithmetic through the field's vectorized
FieldTables operations, so they are field-agnostic.  Those return codes in
the field's code dtype, tables.code, for codes in it, so both kernels keep
their codes narrow: the scan converts G once, and rank eliminates its
panels, evaluated in tables.code, in place; only the logarithm sums and
table offsets of the scan and of the row-by-row steps are int64.  numpy's
[] gathers by a narrow index array several times slower than take, so the
row-by-row steps and the Zech add gather by take at arrays of codes.
"""

from __future__ import annotations

import numpy as np

# Entries per vectorized table-arithmetic update (an elimination step of
# rank_mod, a slice of the scan's block as it grows); bounds the
# temporaries on large inputs.
CHUNK_ENTRIES = 1 << 15

# Codes in the scan's block WT, the one bound on its size; bounds its memory
# (and that of the comparison each step makes) whatever the word length.
SCAN_BLOCK_ENTRIES = 1 << 19

# Least width of a column panel of the rank elimination (see _panels).
PANEL_COLS = 256

# Columns ahead that the rank elimination's pivot search tests at once for a live nonzero.
SEARCH_COLS = 64

# Fields of at most this many elements take every rank step from q x q tables.
# Larger fields with q^2 <= CHUNK_ENTRIES take only the steps with at least q hit
# rows from them: a step over such a field that hits few rows costs less by
# scaling the pivot row once per hit row than by forming its q multiples.
SMALL_FIELD_Q = 32


# ---------------------------------------------------------------------------
# minimum-weight scan over all q^K words m . G
# ---------------------------------------------------------------------------


def scan_min_weight(G, tables) -> int:
    """Minimum positive Hamming weight over all q^K combinations of the rows of G.

    The all-zero word is ignored.  Every projective message is encoded: the
    scan has one exit, after the last word.
    """
    # Message m = (m_0, ..., m_{K-1}) encodes sum_i m_i G[i].  Every nonzero
    # message is a unique scalar multiple of one whose last nonzero digit m_t
    # is 1, i.e. G[t] plus any combination of the rows below t.  Those
    # combinations are the block WT of the first j rows (grown in place for
    # t < j) plus, for t >= j, an odometer over the high digits below t.
    q = tables.q
    # G, the block WT (coordinate-major, L x q^j), the scaled rows and the high
    # part are codes in tables.code, which every table operation returns for
    # it; weights are summed a coordinate at a time in the narrowest dtype that
    # holds L.
    G = np.ascontiguousarray(G, dtype=tables.code)
    K, L = G.shape
    j = min(K, 1)  # the block's rows: the most with q^j * L <= SCAN_BLOCK_ENTRIES codes, at least one
    while j < K and q ** (j + 1) * L <= SCAN_BLOCK_ENTRIES:
        j += 1
    count = np.min_scalar_type(L)
    log, neg, exp = tables.log, tables.neg, tables.exp
    best = L + 1
    ne = None  # a step's mismatches: a new array while the block grows, then one buffer

    def scan(nh):
        # weight(WT[:, r] + h) = #{c : WT[c, r] != nh[c]}, for nh = -h
        nonlocal best
        # the mismatches read as 0/1 bytes, so a uint8 count sums them without a cast
        mism = np.not_equal(WT, nh[:, None], out=ne).view(np.uint8)
        weights = np.add.reduce(mism, axis=0, dtype=count)
        w = int(weights.min())
        if w == 0:  # zero words (from dependent rows) have no weight
            nz = weights[weights > 0]
            w = int(nz.min()) if nz.size else best
        best = min(best, w)

    WT = np.zeros((L, 1), dtype=tables.code)
    for t in range(j):
        scan(neg[G[t]])
        if t < K - 1:  # the block of all j rows is needed only when high rows follow
            # the words WT[:, r] + m * G[t] in any order, as the block is scanned whole:
            # m-major, so each coordinate's sums run along the words of WT
            grown = np.empty((L, q, WT.shape[1]), dtype=tables.code)
            rows = max(1, CHUNK_ENTRIES // grown[0].size)  # coordinates per slice
            for c in range(0, L, rows):  # bounded temporaries
                scaled = exp[log[G[t, c : c + rows, None]] + log]  # G[t, c] * m for every code m
                grown[c : c + rows] = tables.add(WT[c : c + rows, None, :], scaled[:, :, None])
            WT = grown.reshape(L, -1)
    ne = np.empty(WT.shape, dtype=bool)
    # The odometer carries the negated high part -h.  Moving digit i from c to
    # c + 1 (mod q) adds delta[c] * G[j + i] to h, so -delta[c] * G[j + i] to -h.
    codes = np.arange(q, dtype=np.int64)
    lminus = log[neg[tables.sub((codes + 1) % q, codes)]].tolist()  # log(-delta[c])
    lhigh = log[G[j:]]
    for t in range(j, K):
        msg = [0] * (t - j)
        nh = neg[G[t]]
        for n in range(q ** (t - j)):
            if n > 0:
                i = 0
                while msg[i] == q - 1:
                    nh = tables.add(nh, exp[lhigh[i] + lminus[q - 1]])
                    msg[i] = 0
                    i += 1
                nh = tables.add(nh, exp[lhigh[i] + lminus[msg[i]]])
                msg[i] += 1
            scan(nh)
    return best


def scan_min_weight_naive(G, tables) -> int:
    """scan_min_weight by re-encoding every one of the q^K messages from scratch.

    The differential reference for the fast scan: no blocks and no projective
    reduction.
    """
    G = np.asarray(G, dtype=np.int64)
    K, L = G.shape
    q = tables.q
    total = q**K
    powers = q ** np.arange(K, dtype=np.int64)
    best = L + 1
    chunk = 4096  # messages re-encoded at once
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % q
        words = np.zeros((idx.size, L), dtype=np.int64)
        for i in range(K):
            words = tables.add(words, tables.mul(digits[:, i][:, None], G[i][None, :]))
        weights = np.count_nonzero(words, axis=1)
        nz = weights[weights > 0]
        if nz.size:
            best = min(best, int(nz.min()))
    return best


# ---------------------------------------------------------------------------
# rank over F_q: one elimination gives the rank of every row prefix
# ---------------------------------------------------------------------------


class LazyMatrix:
    """A rows x cols matrix of codes that is evaluated only where it is read.

    evaluate(rows, lo, hi) returns the codes of the rows in the slice `rows`
    and of the columns [lo, hi) as a new writable array in the field's code
    dtype, tables.code; lo and hi are multiples of `unit`, or hi is cols.
    rank_mod reads it a column panel at a time, with the panel bounds at
    multiples of unit (_panels), and eliminates each panel in place.
    M[rows, lo:hi] evaluates the columns from the multiple of unit at or
    below lo to the one at or above hi and returns the part asked for, and
    M[i] is row i, so len(M) and len(M[0]) read the shape as they do on an
    array (the benchmark's rank counter sizes rank_mod's argument so).
    """

    def __init__(self, shape, unit, evaluate):
        self.shape, self.unit, self.evaluate = shape, unit, evaluate

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        lo, hi, _ = cols.indices(self.shape[1])
        a, b = lo - lo % self.unit, min(hi + -hi % self.unit, self.shape[1])
        if isinstance(rows, slice):
            return self.evaluate(rows, a, b)[:, lo - a : hi - a]
        i = range(self.shape[0])[rows]
        return self.evaluate(slice(i, i + 1), a, b)[0, lo - a : hi - a]


def _panels(rows, cols, unit):
    """Column panels [lo, hi) of the elimination of a rows x cols matrix.

    The first panel is max(2 * rows, PANEL_COLS) columns wide, rounded up to
    a multiple of `unit`, and each later one ends at four times the end of
    the one before, so every bound but cols is a multiple of unit, a matrix
    has at most 1 + ceil(log4(cols / PANEL_COLS)) panels, and square or tall
    ones have one.  Every panel replays the recorded steps, one call each; a
    matrix that never runs out of live rows pays that on every panel, which
    the fourfold growth keeps to a few percent (doubling cost 20-40% on
    91 x 4096).
    """
    first = max(2 * rows, PANEL_COLS)
    lo, hi = 0, min(cols, first + -first % unit)
    while lo < cols:
        yield lo, hi
        lo, hi = hi, min(cols, 4 * hi)


def rank_mod(M, tables) -> np.ndarray:
    """Sorted indices of the pivot rows of a swap-free elimination of the LazyMatrix M.

    Their count is the row rank of M over the field described by the
    tables.  The pivot of column c is the live row of lowest index that is
    nonzero there; it retires, and every other live row nonzero in c gets a
    multiple of it added from column c + 1 on (the entries up to c are never
    read again).  A row of index >= R becomes a pivot only when every live
    row below R is zero in that column, and then it changes none of them, so
    the first R rows are eliminated exactly as they would be on their own:
    rank(M[:R]) is the number of pivots below R, which
    np.searchsorted(pivots, R) reads off.

    The columns are eliminated a panel at a time (_panels), each evaluated
    as M[:, lo:hi] when the elimination reaches it, with the bounds at
    multiples of M.unit, and eliminated in place.  A step updates the
    columns of its own panel only, reading each chunk of its hit rows once,
    from its pivot's column on, with the multipliers in that first column.
    A step that a later panel replays keeps a copy of its multipliers, the
    pivot's entry and the hit rows' entries in its column, from the pivot
    search's read of that column: each later panel first replays the
    recorded steps in order, reading no earlier panel, which gives every
    entry the same updates in the same order as updating all columns at
    once.  No panel is kept once it is eliminated, and the elimination
    returns as soon as no live row is left, so the columns past the panel of
    the last pivot are never evaluated.

    A column with no live nonzero sends the search ahead: the next
    SEARCH_COLS columns are tested at once, and it jumps to the first with a
    live nonzero.  The columns it jumps over are zero in every live row and
    stay so, since a step adds a multiple of its pivot row, which was live
    and so is zero there too.  Once the live rows are zero on the rest of a
    panel, the search there costs one test per SEARCH_COLS columns, not one
    per column, and a column that has a pivot costs no test at all.

    Over a field with q^2 <= CHUNK_ENTRIES the call builds, once, a q x q
    product table, the negated inverses -1/a and, for odd p, a q x q
    addition table read at q * b + a, all in tables.code.  The offsets
    q * b are held in the narrowest dtype that holds q^2 - 1 (uint8 up to
    q = 13), so they need no int64 temporaries.  A table step takes the
    same few calls however many rows it hits: one take normalizes the pivot
    row to -row / row[c], one take along the product table's columns forms
    its q multiples, and each hit row adds its multiplier's row of them, by
    XOR for p = 2 and by one gather from the addition table for odd p.  Over
    a field of at most SMALL_FIELD_Q elements every step is a table step;
    over a larger one only a step with at least q hit rows is, as the q
    multiples of a wide pivot row cost more than scaling it for a few rows.
    The other steps, those whose q multiples would exceed CHUNK_ENTRIES, and
    every step over a field with q^2 > CHUNK_ENTRIES scale the pivot row
    once per hit row, through logarithms, and add it by tables.add.  The
    arithmetic is exact, so both give the same entries, and every code
    written is in tables.code.
    """
    rows, cols = M.shape
    q = tables.q
    n = q - 1
    log, exp = tables.log, tables.exp
    odd = tables.p != 2
    shift = n // 2 if odd else 0  # log(-1)
    prod = None  # prod[a, b] = a * b; None where no step takes the tables
    if q * q <= CHUNK_ENTRIES and (q <= SMALL_FIELD_Q or q < rows):  # only q + 1 rows give q hit rows
        prod = exp[log[:, None] + log]
        neginv = exp[(shift - log) % n]  # -1/a (entry 0 unused)
        multiples = prod  # row m of multiples.take(row, axis=1) is m * row
        if odd:  # ... times q, an offset into plus: a + b = plus[q * b + a]
            codes = np.arange(q, dtype=tables.code)
            plus = tables.add(codes, codes[:, None]).ravel()
            multiples = np.multiply(prod, q, dtype=np.min_scalar_type(q * q - 1))

    def step(P, piv, a, hit, m, lo):
        # P[hit, lo:] -= (m / a) * P[piv, lo:], for the pivot's entry a and the hit rows'
        # entries m in its column; m is None in the pivot's own panel, whose column lo - 1 it is
        prow = P[piv, lo:]
        chunk = max(1, CHUNK_ENTRIES // prow.size)
        tabled = prod is not None and (q <= SMALL_FIELD_Q or hit.size >= q) and q * prow.size <= CHUNK_ENTRIES
        if tabled:  # take, not [] gathers: numpy indexes with a narrow index array several times slower
            scaled = multiples.take(prod[neginv[a]].take(prow), axis=1)
        else:  # log(-row / a) of the pivot row, in [0, N) or the sentinel where it is 0
            lrow = log.take(exp[log.take(prow) + (shift - int(log[a])) % n])
        for s in range(0, hit.size, chunk):  # bounded temporaries
            sel = hit[s : s + chunk]
            if m is None:  # one read of the rows, with the multipliers in its first column
                block = P[sel, lo - 1 :]
                ms, block = block[:, 0], block[:, 1:]
            else:
                ms, block = m[s : s + chunk], P[sel, lo:]
            if not tabled:
                P[sel, lo:] = tables.add(block, exp[log.take(ms)[:, None] + lrow])
            elif odd:
                P[sel, lo:] = plus.take(scaled.take(ms, axis=0) + block)
            else:
                block ^= scaled.take(ms, axis=0)
                P[sel, lo:] = block

    live = np.arange(rows)
    pivots, steps = [], []
    for lo, hi in _panels(rows, cols, M.unit):
        if live.size == 0:
            break
        P = M[:, lo:hi]
        for recorded in steps:
            step(P, *recorded, 0)
        record = hi < cols  # only a later panel replays
        c, width = 0, hi - lo
        while c < width and live.size:
            col = P[live, c]
            nz = col.nonzero()[0]
            if nz.size == 0:  # jump past the columns ahead that are zero in every live row
                ahead = P[live, c + 1 : min(c + 1 + SEARCH_COLS, width)].any(axis=0).nonzero()[0]
                c += 1 + (int(ahead[0]) if ahead.size else SEARCH_COLS)
                continue
            k = nz[0]
            piv = live[k]
            pivots.append(piv)
            hit = live[nz[1:]]
            live = np.concatenate((live[:k], live[k + 1 :]))
            if hit.size:
                if c + 1 < width:
                    step(P, piv, col[k], hit, None, c + 1)
                if record:  # a copy of the multipliers, for the replays
                    steps.append((piv, col[k], hit, col[nz[1:]]))
            c += 1
        del P  # before the next panel is evaluated
    return np.sort(np.array(pivots, dtype=np.int64))
