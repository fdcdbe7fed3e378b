"""Sparse multivariate polynomials over a finite field.

Monomials are exponent tuples, coefficients are element codes.  The grid
normal form caps the degree in t_i at |A_i| - 1 by rewriting with the
univariate polynomials that vanish on the coordinate sets; it agrees with
the input at every grid point and never raises the total degree.

Monomials are evaluated on a whole grid (monomial_rows, monomial_blocks) by
its Kronecker structure: the values of x^a on A_1 x ... x A_n are the
Kronecker product of the power vectors A_i^(a_i), built one coordinate at a
time through small product tables, a block of rows at a time.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import ArityMismatchError, FieldMismatchError
from .field import Field
from .grid import Grid


def grevlex_key(exps):
    """Sort key for graded reverse lexicographic order with t1 > t2 > ... > tn."""
    return (sum(exps), tuple(-a for a in reversed(exps)))


def grevlex_exponents(caps, d: int):
    """Yield the exponent vectors with a_i <= caps[i] and |a| <= d, ascending grevlex.

    Within one total degree the order is descending in a_n, then a_(n-1), and
    so on, with a_1 taking what is left; each exponent is drawn only from the
    range that can still be completed, so nothing outside the bounds is built.
    """
    caps = tuple(caps)
    room = [0]  # room[i]: largest total the first i exponents can reach
    for c in caps:
        room.append(room[-1] + c)

    def fill(i, rem, tail):
        if i == 0:
            yield (rem,) + tail
            return
        for a in range(min(caps[i], rem), max(0, rem - room[i]) - 1, -1):
            yield from fill(i - 1, rem - a, (a,) + tail)

    for s in range(min(d, room[-1]) + 1):
        yield from fill(len(caps) - 1, s, ())


_FACTOR = re.compile(r"^t(\d+)(?:\^(\d+))?$")

# Matrix entries in one block of rows (row_blocks), at least one row: the
# unit in which monomial_blocks evaluates and the matrix writer formats, so
# it bounds the temporaries of both.
BLOCK_ENTRIES = 1 << 16

# Least mean number of reads of each code of a product table of monomial_blocks: a
# table read less is not built, as it costs more than it saves on small calls.
TABLE_READS = 32


class MultiPoly:
    """Immutable sparse polynomial: a map from exponent tuple to nonzero code.

    The zero polynomial has an empty term map and total_degree None (an
    explicit marker, never a signed sentinel).
    """

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: Field, n: int, terms=None):
        if n < 1:
            raise ArityMismatchError("a polynomial needs at least one variable")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(a) for a in exps)
            if len(exps) != n:
                raise ArityMismatchError(f"monomial {exps} has arity {len(exps)}, expected {n}")
            if any(a < 0 for a in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = field.validate(c)
            if c:
                clean[exps] = c
        self.field = field
        self.n = n
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _from_terms(cls, field: Field, n: int, terms: dict) -> "MultiPoly":
        """A polynomial whose terms are already clean, taken as they are.

        For callers whose codes come out of the field tables: the exponents
        are tuples of n Python ints >= 0 and the codes Python ints in [1, q).
        """
        f = object.__new__(cls)
        f.field, f.n, f.terms = field, n, terms
        return f

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, {})

    @classmethod
    def constant(cls, field, n, c):
        return cls(field, n, {(0,) * n: c})

    @classmethod
    def variable(cls, field, n, i):
        """The coordinate t_{i+1} (i is 0-based)."""
        if not 0 <= i < n:
            raise ArityMismatchError(f"variable index {i} outside 0..{n - 1}")
        return cls(field, n, {tuple(1 if j == i else 0 for j in range(n)): 1})

    # -- structure --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self):
        """Maximum term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int):
        if not self.terms:
            return None
        return max(e[i] for e in self.terms)

    def _check_compatible(self, other: "MultiPoly"):
        if self.field != other.field:
            raise FieldMismatchError("operands live in different fields")
        if self.n != other.n:
            raise ArityMismatchError(f"operands have {self.n} and {other.n} variables")

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check_compatible(other)
        F = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = F.add(out.get(exps, 0), c)
        return MultiPoly(F, self.n, out)  # which drops the zero sums

    def __neg__(self):
        F = self.field
        return MultiPoly(F, self.n, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, (int, np.integer)):
            c = F.validate(other)
            return MultiPoly(F, self.n, {e: F.mul(v, c) for e, v in self.terms.items()})
        self._check_compatible(other)
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = F.add(out.get(key, 0), F.mul(ca, cb))
        return MultiPoly(F, self.n, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, point) -> int:
        """Value at a point, via per-variable power tables."""
        point = tuple(point)
        if len(point) != self.n:
            raise ArityMismatchError(f"point has {len(point)} coordinates, expected {self.n}")
        F = self.field
        pt = [F.validate(x) for x in point]
        maxe = [0] * self.n
        for exps in self.terms:
            for i, a in enumerate(exps):
                if a > maxe[i]:
                    maxe[i] = a
        pows = []
        for i in range(self.n):
            row = [1]
            for _ in range(maxe[i]):
                row.append(F.mul(row[-1], pt[i]))
            pows.append(row)
        acc = 0
        for exps, c in self.terms.items():
            v = c
            for i, a in enumerate(exps):
                if a:
                    v = F.mul(v, pows[i][a])
            acc = F.add(acc, v)
        return acc

    __call__ = evaluate

    # -- text format -------------------------------------------------------------------

    def format(self) -> str:
        """Canonical text form: terms in descending grevlex joined by ' + '."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exps]
            factors = []
            if c != 1 or not any(exps):
                factors.append(str(c))
            for i, a in enumerate(exps):
                if a == 0:
                    continue
                factors.append(f"t{i + 1}" if a == 1 else f"t{i + 1}^{a}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __str__ = format

    def __repr__(self):
        return f"MultiPoly({self.format()!r}, n={self.n}, q={self.field.q})"

    @classmethod
    def parse(cls, field, n, text: str) -> "MultiPoly":
        """Parse 'c*t1^a1*...*tn^an + ...'.

        Whitespace is ignored everywhere; unit coefficients and exponents may
        be omitted.  Coefficients must be codes in [0, q).
        """
        compact = re.sub(r"\s+", "", text)
        if not compact:
            raise ValueError("empty polynomial text")
        terms: dict[tuple[int, ...], int] = {}
        for term_text in compact.split("+"):
            if not term_text:
                raise ValueError(f"empty term in {text!r}")
            coeff = 1
            exps = [0] * n
            for tok in term_text.split("*"):
                if not tok:
                    raise ValueError(f"empty factor in {term_text!r}")
                if tok.isdigit():
                    coeff = field.mul(coeff, field.validate(int(tok)))
                    continue
                m = _FACTOR.match(tok)
                if not m:
                    raise ValueError(f"bad factor {tok!r}")
                idx = int(m.group(1))
                if not 1 <= idx <= n:
                    raise ArityMismatchError(f"variable t{idx} outside t1..t{n}")
                exps[idx - 1] += int(m.group(2) or 1)
            key = tuple(exps)
            terms[key] = field.add(terms.get(key, 0), coeff)
        return cls(field, n, terms)


def vanishing_univariate(grid: Grid, i: int) -> MultiPoly:
    """prod_{c in A_i} (t_i - c), the monic polynomial cutting out A_i."""
    F = grid.field
    return _univariate(F, grid.n, i, _monic_root_product(F.tables(), grid.sets[i]).tolist())


def _univariate(F: Field, n: int, i: int, coeffs) -> MultiPoly:
    """sum_a coeffs[a] t_i^a, a polynomial in n variables (i is 0-based)."""
    return MultiPoly(F, n, {tuple(a if j == i else 0 for j in range(n)): c
                            for a, c in enumerate(coeffs)})


def _monic_root_product(T, roots) -> np.ndarray:
    """Little-endian int64 coefficients of prod_{c in roots} (t - c)."""
    buf = np.zeros(len(roots) + 2, dtype=np.int64)  # buf[0] stays 0, buf[1:] holds the coefficients
    buf[1] = 1
    for j, c in enumerate(roots):  # times (t - c): coefficient a - 1 minus c times coefficient a
        buf[1 : j + 3] = T.sub(buf[: j + 2], T.mul(c, buf[1 : j + 3]))
    return buf[1:]


def _reduced_powers(F: Field, elems, max_exp: int) -> list[list[int]]:
    """Coefficients of t^a modulo prod_{c in elems}(t - c), for a = 0..max_exp."""
    d = len(elems)
    full = _monic_root_product(F.tables(), elems).tolist()
    top_sub = [F.neg(c) for c in full[:d]]  # t^d = sum top_sub[j] t^j
    cur = [1] + [0] * (d - 1)
    rows = [cur]
    for _ in range(max_exp):
        spill = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if spill:
            nxt = [F.add(x, F.mul(spill, t)) for x, t in zip(nxt, top_sub)]
        rows.append(nxt)
        cur = nxt
    return rows


def reduce_mod_grid(f: MultiPoly, grid: Grid) -> MultiPoly:
    """Normal form with deg_{t_i} < |A_i|, equal to f at every grid point.

    Each term c * t^a becomes c times the product over i of the reduced
    powers t_i^(a_i) mod prod_{x in A_i}(t_i - x), summed by MultiPoly's own
    arithmetic.  Idempotent and linear; the total degree never increases.
    """
    if f.field != grid.field:
        raise FieldMismatchError("polynomial and grid fields differ")
    if f.n != grid.n:
        raise ArityMismatchError(f"polynomial has {f.n} variables, grid has {grid.n}")
    F, n = f.field, f.n
    powers = []  # powers[i][a]: t_i^a reduced, for a up to f's largest a_i
    for i in range(n):
        rows = _reduced_powers(F, grid.sets[i], max((e[i] for e in f.terms), default=0))
        powers.append([_univariate(F, n, i, row) for row in rows])
    out = MultiPoly.zero(F, n)
    for exps, coeff in f.terms.items():
        term = MultiPoly.constant(F, n, coeff)
        for i, a in enumerate(exps):
            term = term * powers[i][a]
        out = out + term
    return out


def row_blocks(rows: int, cols: int) -> list[slice]:
    """Consecutive slices of whole rows of a rows x cols matrix, of about
    BLOCK_ENTRIES entries each and at least one row."""
    step = max(1, BLOCK_ENTRIES // cols)
    return [slice(s, s + step) for s in range(0, rows, step)]


def monomial_blocks(grid: Grid, exps_list, items=None, out=None):
    """Yield the rows of monomial_rows(grid, exps_list) a block at a time.

    The blocks are the row_blocks slices in order: out[rows] when `out` is
    given, and otherwise rows of one buffer that every block reuses, so a
    caller without `out` must be done with a block when it asks for the
    next.  With `items`, an array indexed by code, a block holds items[code]
    in place of each code: the matrix command passes the writer's decimal
    text items (code.digit_items), so it never holds the whole matrix, and
    each block is gathered straight into text.

    A row is the Kronecker product of the power vectors A_i^(a_i), so a
    block is built one coordinate at a time.  The first coordinate's powers
    are formed, as logs, for the block's own exponents.  A later coordinate
    gathers, indexed by the partial codes x, from its product table
    T_i[k, x, j] = x * A_i[j]^(v_k) over its distinct exponents v_k, built
    once per call (0^0 = 1 is in it).  A table of more than BLOCK_ENTRIES
    codes, or read less than TABLE_READS times per code, is not built; that
    coordinate adds logs instead, log x + log A_i^a with the sentinel Z for
    a power that is 0, the last one into an int64 array every block reuses.
    The last table is composed with the items; after a log step the codes
    take one gather from them.
    """
    rows, n, q = len(exps_list), grid.n, grid.field.q
    if rows == 0:
        return
    T = grid.field.tables()
    log, exp = T.log, T.exp
    exps = np.fromiter(itertools.chain.from_iterable(exps_list), dtype=np.int64).reshape(rows, n)
    logs = [log.take(s) for s in grid.sets]

    def log_powers(i, a):  # [k, j] = log(A_i[j]^a[k]): in [0, N), or Z where that power is 0
        lp = np.multiply.outer(a, logs[i])
        lp %= q - 1
        if grid.sets[i][0] == 0:  # the sets are sorted, so 0 comes first
            lp[:, 0][a > 0] = T.sentinel
        return lp

    tables, reads = [None] * n, rows  # tables[i]: T_i, rows k * q + x, and each row's k * q
    for i, card in enumerate(grid.cards):
        reads *= card  # the codes that coordinate i makes over the call
        vals = sorted({a[i] for a in exps_list}) if i and TABLE_READS * q * card <= reads else ()
        size = len(vals) * q * card
        if vals and size <= BLOCK_ENTRIES and TABLE_READS * size <= reads:
            tab = exp[log_powers(i, np.array(vals))[:, None, :] + log[:, None]]
            tab = items[tab] if i == n - 1 and items is not None else tab
            tables[i] = (tab.reshape(-1, card), np.searchsorted(vals, exps[:, i : i + 1]) * q)
    blocks = row_blocks(rows, grid.size)
    last = exp if items is None else items  # what the last gather reads
    # the blocks, and the log sums of the last coordinate, go to arrays that every block reuses
    buf = np.empty((min(rows, blocks[0].stop), grid.size), last.dtype) if out is None else None
    work = np.empty(min(rows, blocks[0].stop) * grid.size if n > 1 and tables[-1] is None else 0, np.int64)
    for b in blocks:
        e = exps[b]
        block = buf[: len(e)] if out is None else out[b]
        codes, lsum = None, log_powers(0, e[:, 0])  # the partial rows: codes, or log sums
        for i in range(1, n):
            if tables[i] is None:
                step = log_powers(i, e[:, i])
                part = lsum if codes is None else log[codes]
                sums = work[: block.size].reshape(len(e), -1, step.shape[1]) if i == n - 1 else None
                lsum = np.add(part[:, :, None], step[:, None, :], out=sums).reshape(len(e), -1)
                codes = exp.take(lsum, mode="clip") if i < n - 1 else None
            else:
                codes = exp.take(lsum, mode="clip") if codes is None else codes
                dest = block.reshape(len(e), codes.shape[1], -1) if i == n - 1 else None
                codes = tables[i][0].take(tables[i][1][b] + codes, axis=0, out=dest, mode="clip")
                codes = codes.reshape(len(e), -1)
        if codes is None:  # one coordinate, or the last multiplied through the log tables
            if items is not None:
                lsum = exp.take(lsum, mode="clip")
            last.take(lsum, out=block.reshape(lsum.shape), mode="clip")
        yield block


def monomial_rows(grid: Grid, exps_list) -> np.ndarray:
    """Evaluations of monomials on the whole grid, one row per monomial.

    Columns follow grid.points() order.  The rows are evaluated a block of
    about BLOCK_ENTRIES codes at a time (monomial_blocks), and each block's
    last gather writes into them.  They are codes in the field's code dtype,
    FieldTables.code (uint8 up to q = 256), gathered from FieldTables.exp,
    so a call's fixed cost does not grow with q.  The rank oracle evaluates
    its column panels so, and eliminates each in place (_kernels.rank_mod).
    """
    arr = np.empty((len(exps_list), grid.size), dtype=grid.field.tables().code)
    for _ in monomial_blocks(grid, exps_list, out=arr):
        pass
    return arr


def evaluate_on_grid(f: MultiPoly, grid: Grid) -> np.ndarray:
    """Values of f at every grid point, flat in grid.points() order."""
    if f.field != grid.field:
        raise FieldMismatchError("polynomial and grid fields differ")
    if f.n != grid.n:
        raise ArityMismatchError(f"polynomial has {f.n} variables, grid has {grid.n}")
    T = grid.field.tables()
    acc = np.zeros(grid.size, dtype=T.code)
    exps_list = list(f.terms)
    rows = monomial_rows(grid, exps_list)
    for r, exps in enumerate(exps_list):
        acc = T.add(acc, T.mul(f.terms[exps], rows[r]))
    return acc


def zero_count(f: MultiPoly, grid: Grid) -> int:
    """|{P in the grid : f(P) = 0}|, by full enumeration."""
    vals = evaluate_on_grid(f, grid)
    return int(vals.size - np.count_nonzero(vals))
