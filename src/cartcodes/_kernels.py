"""Hot enumeration kernels: codeword scans and rank over F_q.

The minimum-weight scan is a blocked pure-numpy walk over one message per
projective point: a word's weight does not change when its message is
multiplied by a nonzero scalar, so only messages whose last nonzero digit is
1 are encoded, (q^K - 1)/(q - 1) words instead of q^K.  Its inner loop does
no field arithmetic: the weight of word r of the block plus a high part h is
the number of coordinates c where WT[c, r] differs from -h[c].  The block WT
of the first j rows' q^j words is coordinate-major (one row per coordinate)
in the narrowest unsigned code dtype (uint8 up to q = 256), and the
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
column on, with the pivot row held as logarithms.  Because no row ever moves,
the same elimination gives the rank of every row prefix M[:R]; the rank
oracle uses this to read dim C_d at every degree d from one matrix, whose
degree <= d monomials are its first C(n + d, n) rows.  The columns are taken
a panel at a time: a step updates only its own panel, each later panel
replays the recorded steps before its first column is read, and the
elimination returns as soon as every row is a pivot.  A wide matrix of full
row rank therefore never touches the columns past the panel of its last
pivot; square and tall matrices are one panel.  The pivot search jumps,
up to SEARCH_COLS columns at a time, over the columns where every live row
is zero, so a rank-deficient matrix does not search column by column once
its live rows are zero.  A step with at least q hit rows scales the pivot
row once per field element, and each hit row adds its multiplier's row of
that table.

All kernels do their field arithmetic through the field's vectorized
FieldTables operations, so they are field-agnostic.  mul returns int64
codes.  add is the XOR of the codes for p = 2 and their modular sum for an
odd prime q = p, and both return the dtype of their inputs, so narrow codes
stay narrow; for an odd extension field add goes through the Zech table and
returns int64 codes.  The scan keeps its codes narrow; rank eliminates an
int64 matrix.
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


# ---------------------------------------------------------------------------
# minimum-weight scan over all q^K words m . G
# ---------------------------------------------------------------------------


def scan_min_weight(G, tables, *, target=None) -> int:
    """Minimum positive Hamming weight over all q^K combinations of the rows of G.

    The all-zero word is ignored.  `target` permits early exit once the
    running minimum reaches it (confirm mode); None forces a complete pass.
    """
    # Message m = (m_0, ..., m_{K-1}) encodes sum_i m_i G[i].  Every nonzero
    # message is a unique scalar multiple of one whose last nonzero digit m_t
    # is 1, i.e. G[t] plus any combination of the rows below t.  Those
    # combinations are the block WT of the first j rows (grown in place for
    # t < j) plus, for t >= j, an odometer over the high digits below t.
    q = tables.q
    # G, the block WT (coordinate-major, L x q^j), the scaled rows and the high
    # part are codes in the narrowest code dtype; weights are summed a
    # coordinate at a time in the narrowest dtype that holds L.
    code = np.min_scalar_type(q - 1)
    G = np.ascontiguousarray(G, dtype=code)
    target = -1 if target is None else int(target)
    K, L = G.shape
    j = min(K, 1)  # the block's rows: the most with q^j * L <= SCAN_BLOCK_ENTRIES codes, at least one
    while j < K and q ** (j + 1) * L <= SCAN_BLOCK_ENTRIES:
        j += 1
    count = np.min_scalar_type(L)
    log, neg, nexp = tables.log, tables.neg, tables.narrow_exp
    best = L + 1

    def scan(nh):
        # weight(WT[:, r] + h) = #{c : WT[c, r] != nh[c]}, for nh = -h
        nonlocal best
        # the mismatches read as 0/1 bytes, so a uint8 count sums them without a cast
        weights = np.add.reduce((WT != nh[:, None]).view(np.uint8), axis=0, dtype=count)
        w = int(weights.min())
        if w == 0:  # zero words (from dependent rows) have no weight
            nz = weights[weights > 0]
            w = int(nz.min()) if nz.size else best
        best = min(best, w)
        return target >= 0 and best <= target

    WT = np.zeros((L, 1), dtype=code)
    for t in range(j):
        if scan(neg[G[t]]):
            return best
        if t < K - 1:  # the block of all j rows is needed only when high rows follow
            # the words WT[:, r] + m * G[t] in any order, as the block is scanned whole:
            # m-major, so each coordinate's sums run along the words of WT
            grown = np.empty((L, q, WT.shape[1]), dtype=code)
            rows = max(1, CHUNK_ENTRIES // grown[0].size)  # coordinates per slice
            for c in range(0, L, rows):  # bounded temporaries
                scaled = nexp[log[G[t, c : c + rows, None]] + log]  # G[t, c] * m for every code m
                grown[c : c + rows] = tables.add(WT[c : c + rows, None, :], scaled[:, :, None])
            WT = grown.reshape(L, -1)
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
                    nh = tables.add(nh, nexp[lhigh[i] + lminus[q - 1]])
                    msg[i] = 0
                    i += 1
                # narrowed again where the add returns int64 (Zech), so the scan compares narrow codes
                nh = tables.add(nh, nexp[lhigh[i] + lminus[msg[i]]]).astype(code, copy=False)
                msg[i] += 1
            if scan(nh):
                return best
    return best


def scan_min_weight_naive(G, tables) -> int:
    """scan_min_weight by re-encoding every one of the q^K messages from scratch.

    The differential reference for the fast scan: no blocks, no projective
    reduction and no early exit.
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


def rank_mod(M, tables, *, prefixes=None):
    """Row rank of M over the field described by the tables.

    With `prefixes`, a sequence of row counts R, the result is instead the
    list of rank(M[:R]) for each R, read off the same single elimination.
    M is consumed: an int64 array is eliminated in place, so a caller that
    needs the matrix afterwards passes a copy.  The elimination stops once
    every row is a pivot, so the columns past the panel of the last pivot
    may be left unreduced.
    """
    M = np.asarray(M, dtype=np.int64)
    pivots = _pivot_rows(M, tables) if M.size else np.zeros(0, dtype=np.int64)
    if prefixes is None:
        return int(pivots.size)
    return [int(r) for r in np.searchsorted(pivots, prefixes)]


def _panels(rows, cols):
    """Column panels [lo, hi) of the elimination of a rows x cols matrix.

    The first panel is max(2 * rows, PANEL_COLS) columns wide, and each later
    one ends at four times the end of the one before, so a matrix has at most
    1 + ceil(log4(cols / PANEL_COLS)) panels and square or tall ones have one.
    Every panel replays the recorded steps, one call each; a matrix that
    never runs out of live rows pays that on every panel, which the fourfold
    growth keeps to a few percent (doubling cost 20-40% on 91 x 4096).
    """
    lo, hi = 0, min(cols, max(2 * rows, PANEL_COLS))
    while lo < cols:
        yield lo, hi
        lo, hi = hi, min(cols, 4 * hi)


def _pivot_rows(M, tables) -> np.ndarray:
    """Sorted indices of the pivot rows of a swap-free elimination of M (in place).

    The pivot of column c is the live row of lowest index that is nonzero
    there; it retires, and every other live row nonzero in c gets a multiple
    of it added from column c + 1 on (the entries up to c are never read
    again).  A row of index >= R becomes a pivot only when every live row
    below R is zero in that column, and then it changes none of them, so the
    first R rows are eliminated exactly as they would be on their own:
    rank(M[:R]) is the number of pivots below R.

    The columns are eliminated a panel at a time (_panels).  A step updates
    the columns of its own panel only; each later panel first replays the
    recorded steps in order, which gives every entry the same updates in the
    same order as updating all columns at once.  The elimination returns as
    soon as no live row is left, so the panels past that are never read.

    A column with no live nonzero sends the search ahead: the next
    SEARCH_COLS columns are tested at once, and it jumps to the first with a
    live nonzero.  The columns it jumps over are zero in every live row and
    stay so, since a step adds a multiple of its pivot row, which was live
    and so is zero there too.  Once the live rows are zero on the rest of a
    panel, the search there costs one test per SEARCH_COLS columns, not one
    per column, and a column that has a pivot costs no test at all.

    A step with at least q hit rows scales the pivot row once per field
    element (a q-row table) and adds to each hit row its multiplier's row;
    for odd p that addition is one gather from a q x q addition table.  Both
    tables are held to CHUNK_ENTRIES entries, so large fields never build
    them.  A step with fewer hit rows scales the pivot row once per hit row.
    The arithmetic is exact, so both give the same entries.
    """
    rows, cols = M.shape
    q = tables.q
    n = q - 1
    log, exp = tables.log, tables.exp
    odd = tables.p != 2
    shift = n // 2 if odd else 0  # log(-1)
    plus = None  # a + b = plus[q * b + a], for the table steps of odd p
    if odd and q < rows and q * q <= CHUNK_ENTRIES:  # only q + 1 rows give q hit rows
        plus = tables.add(np.arange(q), np.arange(q)[:, None]).ravel()

    def step(piv, c, hit, lo, hi):
        # hit rows -= (M[hit, c] / M[piv, c]) * pivot row, on columns [lo, hi);
        # log(-row / row[c]) of the pivot row, in [0, N) or the sentinel where it is 0
        prow = M[piv, lo:hi]
        lrow = log[exp[log[prow] + (shift - int(log[M[piv, c]])) % n]]
        table = hit.size >= q and q * max(q, lrow.size) <= CHUNK_ENTRIES
        if table:  # row m: the codes of m * lrow, times q for odd p (an index into plus)
            scaled = exp[log[:, None] + lrow]
            if odd:
                scaled *= q
        chunk = max(1, CHUNK_ENTRIES // lrow.size)
        for s in range(0, hit.size, chunk):  # bounded temporaries
            sel = hit[s : s + chunk]
            mult = M[sel, c]
            if not table:
                M[sel, lo:hi] = tables.add(M[sel, lo:hi], exp[log[mult][:, None] + lrow])
            elif odd:
                M[sel, lo:hi] = plus[scaled[mult] + M[sel, lo:hi]]
            else:
                M[sel, lo:hi] ^= scaled[mult]

    live = np.arange(rows)
    pivots, steps = [], []
    for lo, hi in _panels(rows, cols):
        for piv, c, hit in steps:
            step(piv, c, hit, lo, hi)
        record = hi < cols  # only a later panel replays
        c = lo
        while c < hi:
            nz = M[live, c].nonzero()[0]
            if nz.size == 0:  # jump past the columns ahead that are zero in every live row
                ahead = M[live, c + 1 : min(c + 1 + SEARCH_COLS, hi)].any(axis=0).nonzero()[0]
                c += 1 + (int(ahead[0]) if ahead.size else SEARCH_COLS)
                continue
            k = nz[0]
            piv = live[k]
            pivots.append(piv)
            hit = live[nz[1:]]
            live = np.concatenate((live[:k], live[k + 1 :]))
            if live.size == 0:
                return np.sort(np.array(pivots, dtype=np.int64))
            if hit.size:
                if c + 1 < hi:
                    step(piv, c, hit, c + 1, hi)
                if record:
                    steps.append((piv, c, hit))
            c += 1
    return np.sort(np.array(pivots, dtype=np.int64))
