"""Shared helpers for the test suite."""

import math
import random
from itertools import combinations

import numpy as np

from cartcodes import (
    CartesianCode,
    DuplicateElementError,
    EmptySetError,
    GeneratorMatrix,
    Grid,
    MultiPoly,
    _kernels,
    decompose_k_ell,
    oracle,
    poly,
)


def random_poly(field, n, max_deg, rng: random.Random, max_terms=6, caps=None, nonzero=False):
    """Random sparse polynomial of total degree <= max_deg.

    caps, when given, bounds the exponent in variable i by caps[i] - 1
    (normal-form shape).  With nonzero the result is never the zero
    polynomial.
    """
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = []
            remaining = max_deg
            for i in range(n):
                hi = remaining if caps is None else min(remaining, caps[i] - 1)
                a = rng.randint(0, hi) if hi > 0 else 0
                exps.append(a)
                remaining -= a
            coeff = rng.randrange(field.q)
            key = tuple(exps)
            terms[key] = field.add(terms.get(key, 0), coeff)
        poly = MultiPoly(field, n, terms)
        if not nonzero or not poly.is_zero():
            return poly


def ref_grid_sets(field, sets):
    """Grid's validated sets, checked with one field.validate call per element.

    The per-element reference for Grid's construction: the same sorted
    tuples, or the same typed error with the same message.
    """
    raw = [tuple(s) for s in sets]
    if not raw:
        raise EmptySetError("a grid needs at least one coordinate set")
    clean = []
    for i, s in enumerate(raw):
        if not s:
            raise EmptySetError(f"coordinate set {i + 1} is empty")
        vals = tuple(sorted(field.validate(c) for c in s))
        if len(set(vals)) != len(vals):
            raise DuplicateElementError(f"coordinate set {i + 1} repeats an element")
        clean.append(vals)
    return tuple(clean)


def ref_dimension_formula(cards, d):
    """code.dimension_formula by listing all 2^n subsets of the cards.

    The reference for the grouped sum: (-1)^|S| C(n + d - sum S, n) over
    every subset S whose card sum is at most d.
    """
    n = len(cards)
    total = 0
    for size in range(n + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(cards, size):
            rem = d - sum(subset)
            if rem >= 0:
                total += sign * math.comb(n + rem, rem)
    return total


def random_grid(field, cards, rng: random.Random) -> Grid:
    """Grid whose coordinate sets are random subsets of the stated sizes."""
    sets = [sorted(rng.sample(range(field.q), c)) for c in cards]
    return Grid(field, sets)


def lazy_codes(M, tables, unit=1):
    """The array M as a _kernels.LazyMatrix of the given unit, for rank_mod.

    Each evaluation is a copy in tables.code of the part of M asked for, so
    M is never written, and keeps the class of M's own part (a subclass view
    keeps its attributes).  The matrix's `panels` lists (lo, codes) for
    every evaluation, in order, and the codes are those rank_mod eliminated.
    """
    panels = []

    def evaluate(rows, lo, hi):
        codes = M[rows, lo:hi].astype(tables.code)
        panels.append((lo, codes))
        return codes

    lazy = _kernels.LazyMatrix(M.shape, unit, evaluate)
    lazy.panels = panels
    return lazy


def full_rank_profile(grid, dmax):
    """oracle._rank_profile without dropping repeated rows: every monomial of degree <= dmax.

    The reference for the reduced matrix: one elimination of the unreduced
    grevlex all-monomials matrix, read at the prefixes C(n + d, n).
    """
    n = grid.n
    T = grid.field.tables()
    arr = poly.monomial_rows(grid, list(poly.grevlex_exponents([dmax] * n, dmax)))
    prefixes = [math.comb(n + d, n) for d in range(dmax + 1)]
    return np.searchsorted(_kernels.rank_mod(lazy_codes(arr, T), T), prefixes).tolist()


def ref_pivot_rows(M, tables) -> np.ndarray:
    """_kernels.rank_mod by right-looking elimination: every step updates all later columns.

    The same swap-free elimination with the same pivot rule, on the whole
    matrix at once and to its last column.  M is eliminated in place.
    """
    rows, cols = M.shape
    n = tables.q - 1
    log, exp, z = tables.log, tables.exp, tables.sentinel
    shift = 0 if tables.p == 2 else n // 2  # log(-1)
    live = np.arange(rows)
    pivots = []
    for c in range(cols):
        nz = M[live, c].nonzero()[0]
        if nz.size == 0:
            continue
        k = nz[0]
        piv = live[k]
        pivots.append(piv)
        hit = live[nz[1:]]
        live = np.concatenate((live[:k], live[k + 1 :]))
        if hit.size == 0 or c == cols - 1:
            continue
        # log(-row / row[c]) of the pivot row; zero entries keep the sentinel
        prow = M[piv, c + 1 :]
        lrow = (log[prow] - log[M[piv, c]] + shift) % n
        lrow[prow == 0] = z
        chunk = max(1, _kernels.CHUNK_ENTRIES // lrow.size)
        for s in range(0, hit.size, chunk):  # bounded temporaries
            sel = hit[s : s + chunk]
            scaled = exp[log[M[sel, c]][:, None] + lrow[None, :]]
            M[sel, c + 1 :] = tables.add(M[sel, c + 1 :], scaled)
    return np.sort(np.array(pivots, dtype=np.int64))


def ref_matrix_format(matrix):
    """GeneratorMatrix.format by one str() per code, joined a row at a time."""
    lines = [f"{matrix.grid.field.q} {matrix.rows} {matrix.cols}"]
    if matrix.array.size:
        strs = np.array([str(c) for c in range(int(matrix.array.max()) + 1)], dtype=object)
        lines += [" ".join(strs[row].tolist()) for row in matrix.array]
    return "\n".join(lines) + "\n"


def span_words(field, rows):
    """All field combinations of the given rows, as tuples (small cases only)."""
    words = {tuple(0 for _ in rows[0])}
    for row in rows:
        nxt = set()
        for w in words:
            for c in range(field.q):
                nxt.add(tuple(field.add(x, field.mul(c, y)) for x, y in zip(w, row)))
        words = nxt
    return words


def ref_extremal_codeword(code):
    """extremal_codeword as a product of MultiPoly linear factors, evaluated on the grid."""
    grid = code.grid
    k, ell = decompose_k_ell(grid.cards, code.d)
    F, n = grid.field, grid.n
    f = MultiPoly.constant(F, n, 1)
    minus_one = F.neg(1)
    for i in range(k + 1):
        count = grid.cards[i] - 1 if i < k else ell
        unit = tuple(1 if j == i else 0 for j in range(n))
        for c in grid.sets[i][:count]:
            f = f * MultiPoly(F, n, {(0,) * n: c, unit: minus_one})
    return f, poly.evaluate_on_grid(f, grid)


# -- polynomial-arithmetic reference for the field tables -----------------------
# Element codes are base-p digit vectors over the polynomial basis, so these
# work digit by digit, with products reduced by the field's modulus.


def ref_digits(field, a):
    out = []
    for _ in range(field.e):
        out.append(a % field.p)
        a //= field.p
    return out


def ref_code(field, digits):
    code = 0
    for c in reversed(digits):
        code = code * field.p + c % field.p
    return code


def ref_add(field, a, b):
    p = field.p
    return ref_code(field, [(x + y) % p for x, y in zip(ref_digits(field, a), ref_digits(field, b))])


def ref_neg(field, a):
    return ref_code(field, [-x % field.p for x in ref_digits(field, a)])


def ref_mul(field, a, b):
    p, e, mod = field.p, field.e, field.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(ref_digits(field, a)):
        for j, y in enumerate(ref_digits(field, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * e - 2, e - 1, -1):  # rewrite t^i through the monic modulus
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
    return ref_code(field, prod[:e])


def ref_pow(field, a, k):
    """a^k for k >= 0 by square-and-multiply on ref_mul."""
    out = 1
    while k:
        if k & 1:
            out = ref_mul(field, out, a)
        k >>= 1
        a = ref_mul(field, a, a)
    return out


def ref_inv(field, a):
    return ref_pow(field, a, field.q - 2)


def ref_primitive_element(field):
    """The smallest code a with a^((q-1)/r) != 1 for every prime r dividing q - 1.

    The scalar search: each candidate in turn, one ref_pow per prime.
    """
    n = m = field.q - 1
    primes, r = [], 2
    while r * r <= m:  # trial division
        if m % r == 0:
            primes.append(r)
            while m % r == 0:
                m //= r
        r += 1
    primes += [m] if m > 1 else []
    return next(a for a in range(1, field.q) if all(ref_pow(field, a, n // r) != 1 for r in primes))


def ref_monomial_rows(grid, exps_list):
    """monomial_rows as lists: the value of each monomial at each point, one ref_mul per coordinate."""
    F = grid.field
    powers = {}
    rows = []
    for a in exps_list:
        row = []
        for pt in grid.points():
            v = 1
            for x, k in zip(pt, a):
                if (x, k) not in powers:
                    powers[x, k] = ref_pow(F, x, k)
                v = ref_mul(F, v, powers[x, k])
            row.append(v)
        rows.append(row)
    return rows


def ref_matrix_text(grid, exps_list):
    """The matrix file of the rows of exps_list on the grid: ref_monomial_rows, one str() per code."""
    lines = [f"{grid.field.q} {len(exps_list)} {grid.size}"]
    lines += [" ".join(str(v) for v in row) for row in ref_monomial_rows(grid, exps_list)]
    return "\n".join(lines) + "\n"


# -- negative control ---------------------------------------------------------------


def inject_damaged_matrices(monkeypatch):
    """Damage the matrices the oracles read, so verification must fail.

    The rank oracle's all-monomials matrix gets its second row replaced by
    its first (rank drops by one), and entry (0, 0) of the generator matrix
    the scans read is shifted by one.
    """
    real_rows = poly.monomial_rows
    real_matrix = CartesianCode.generator_matrix

    def damaged_rows(grid, exps_list):
        arr = real_rows(grid, exps_list)
        if arr.shape[0] >= 2:
            arr[1] = arr[0]
        return arr

    def damaged_matrix(code):
        mat = real_matrix(code)
        arr = mat.array.copy()
        arr[0, 0] = (int(arr[0, 0]) + 1) % code.field.q
        return GeneratorMatrix(mat.grid, mat.d, mat.monomials, arr)

    monkeypatch.setattr(oracle, "monomial_rows", damaged_rows)
    monkeypatch.setattr(CartesianCode, "generator_matrix", damaged_matrix)
