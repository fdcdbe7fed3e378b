"""Hot enumeration kernels: codeword scans and rank over F_q.

The minimum-weight scan is a blocked pure-numpy walk over one message per
projective point: a word's weight does not change when its message is
multiplied by a nonzero scalar, so only messages whose last nonzero digit is
1 are encoded, (q^K - 1)/(q - 1) words instead of q^K.  method="naive"
re-encodes all q^K messages from scratch and serves as the differential
reference; "auto" and "numpy" select the fast kernel.  All kernels work on
int64 element codes through dense q x q lookup tables, so they are
field-agnostic.
"""

from __future__ import annotations

import numpy as np

METHODS = ("auto", "numpy", "naive")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# minimum-weight scan over all q^K words m . G
# ---------------------------------------------------------------------------


def scan_min_weight(G, tables, *, target=None, method="auto", block_digits=None) -> int:
    """Minimum positive Hamming weight over all q^K combinations of the rows of G.

    The all-zero word is ignored.  `target` permits early exit once the
    running minimum reaches it (confirm mode); None forces a complete pass.
    `block_digits` tunes the fast kernel's block size and never changes the
    result.
    """
    G = np.ascontiguousarray(np.asarray(G, dtype=np.int64))
    tgt = -1 if target is None else int(target)
    _check_method(method)
    if method == "naive":
        return _scan_naive(G, tables)
    return _scan_numpy(G, tables, tgt, block_digits)


def _scan_numpy(G, tables, target, block_digits=None) -> int:
    # Message m = (m_0, ..., m_{K-1}) encodes sum_i m_i G[i].  Every nonzero
    # message is a unique scalar multiple of one whose last nonzero digit m_t
    # is 1, i.e. G[t] plus any combination of the rows below t.  Those
    # combinations are the block W of the first j rows (grown in place for
    # t < j) plus, for t >= j, an odometer over the high digits below t.
    K, L = G.shape
    q = tables.q
    if block_digits is None:
        block_digits = max(1, int(13 / np.log2(q)))
    j = min(K, block_digits)
    addt, subt, mult = tables.add, tables.sub, tables.mul
    best = L + 1

    def scan(block):
        nonlocal best
        weights = np.count_nonzero(block, axis=1)
        nz = weights[weights > 0]
        if nz.size:
            best = min(best, int(nz.min()))
        return target >= 0 and best <= target

    W = np.zeros((1, L), dtype=np.int64)
    for t in range(j):
        if scan(addt[W, G[t][None, :]]):
            return best
        if t < K - 1:  # the block of all j rows is needed only when high rows follow
            scaled = mult[np.arange(q, dtype=np.int64)[:, None], G[t][None, :]]
            W = addt[W[:, None, :], scaled[None, :, :]].reshape(-1, L)
    high = G[j:]
    for t in range(K - j):
        msg = np.zeros(t, dtype=np.int64)
        whigh = high[t].copy()
        for step in range(q**t):
            if step > 0:
                i = 0
                while msg[i] == q - 1:
                    whigh = subt[whigh, mult[q - 1, high[i]]]
                    msg[i] = 0
                    i += 1
                c = msg[i]
                whigh = addt[subt[whigh, mult[c, high[i]]], mult[c + 1, high[i]]]
                msg[i] = c + 1
            if scan(addt[W, whigh[None, :]]):
                return best
    return best


def _scan_naive(G, tables, chunk=4096) -> int:
    """Re-encodes every message from scratch; differential reference path."""
    K, L = G.shape
    q = tables.q
    total = q**K
    addt, mult = tables.add, tables.mul
    powers = q ** np.arange(K, dtype=np.int64)
    best = L + 1
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % q
        words = np.zeros((idx.size, L), dtype=np.int64)
        for i in range(K):
            words = addt[words, mult[digits[:, i][:, None], G[i][None, :]]]
        weights = np.count_nonzero(words, axis=1)
        nz = weights[weights > 0]
        if nz.size:
            best = min(best, int(nz.min()))
    return best


# ---------------------------------------------------------------------------
# rank over F_q by Gaussian elimination on codes
# ---------------------------------------------------------------------------


def rank_mod(M, tables, *, method="auto") -> int:
    """Row rank of M over the field described by the tables."""
    M = np.array(M, dtype=np.int64, copy=True)
    if M.size == 0:
        return 0
    _check_method(method)  # one rank kernel serves every method
    return _rank_numpy(M, tables)


def _rank_numpy(M, tables) -> int:
    subt, mult, inv = tables.sub, tables.mul, tables.inv
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = mult[inv[M[r, c]], M[r]]
        rest = M[r + 1 :]
        f = rest[:, c]
        mask = f != 0
        if mask.any():
            rest[mask] = subt[rest[mask], mult[f[mask][:, None], M[r][None, :]]]
        r += 1
        if r == rows:
            break
    return r
