"""Cartesian evaluation codes: exact parameter formulas, footprint bases,
generator matrices, and extremal minimum-weight codewords.

All formulas take the sorted cardinality list (d_1 <= ... <= d_n, each >= 2
after normalization) and use exact integer arithmetic throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatchError, OutOfRangeError
from .field import Field
from .grid import Grid
from .poly import (
    MultiPoly,
    _monic_root_product,
    evaluate_on_grid,
    grevlex_exponents,
    monomial_rows,
    row_blocks,
)


class KLDecomposition(NamedTuple):
    """d = sum_{i<=k}(d_i - 1) + ell with 1 <= ell <= d_{k+1} - 1."""

    k: int
    ell: int


@dataclass(frozen=True)
class HilbertData:
    """Numerator coefficients h_0..h_r of prod_i (1 + t + ... + t^{d_i - 1})."""

    numerator: tuple[int, ...]
    regularity: int
    degree: int


@dataclass(frozen=True)
class CodeParams:
    length: int
    dimension: int
    min_distance: int
    regularity: int

    @property
    def saturated(self) -> bool:
        return self.dimension == self.length


def regularity(cards) -> int:
    """Least degree at which the code fills the whole ambient space."""
    return sum(c - 1 for c in cards)


def _check_sorted_cards(cards):
    if not cards:
        raise OutOfRangeError("empty cardinality list")
    if any(a > b for a, b in zip(cards, cards[1:])):
        raise OutOfRangeError(f"cards must be sorted ascending: {cards}")
    if cards[0] < 2:
        raise OutOfRangeError(f"cards must all be >= 2: {cards}")


def decompose_k_ell(cards, d: int) -> KLDecomposition:
    """The unique (k, ell) splitting of d against sorted cards.

    Defined for 1 <= d <= regularity - 1; the boundary regimes (d = 0 and
    d >= regularity) are the caller's responsibility.
    """
    cards = tuple(cards)
    _check_sorted_cards(cards)
    r = regularity(cards)
    if d < 1 or d >= r:
        raise OutOfRangeError(f"d = {d} outside 1..{r - 1}")
    acc = 0
    for k in range(len(cards)):
        ell = d - acc
        if 1 <= ell <= cards[k] - 1:
            return KLDecomposition(k, ell)
        acc += cards[k] - 1
    raise AssertionError("no (k, ell) split; input checks are inconsistent")


def dimension_formula(cards, d: int) -> int:
    """Code dimension by inclusion-exclusion over coordinate subsets.

    The sum over subsets S of the cards of (-1)^|S| C(n + d - sum S, n),
    where binomials with a negative lower index contribute zero, taken over
    the signed subset counts of _signed_card_sums.  Intermediates are exact
    Python integers.
    """
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    n = len(cards)
    total = 0
    for s, w in _signed_card_sums(tuple(cards)):
        if s > d:
            break
        total += w * math.comb(n + d - s, n)
    return total


@functools.lru_cache(maxsize=256)
def _signed_card_sums(cards: tuple) -> tuple[tuple[int, int], ...]:
    """(s, sum of (-1)^|S| over the subsets S of the cards with card sum s), ascending s.

    A subset enters the inclusion-exclusion only through its size and its
    card sum, so the subsets are counted by how many cards of each value
    they take: j of the k cards equal to c are C(k, j) subsets, of sign
    (-1)^j, that add j * c to the sum.  So n equal cards give n + 1 sums,
    not 2^n subsets, and there are never more than sum(cards) + 1.  The
    counts do not depend on d, so they are kept per card tuple: a table of
    every degree of one grid forms them once.
    """
    signed = {0: 1}
    for c in set(cards):
        k = cards.count(c)
        steps = [(j * c, (-1) ** j * math.comb(k, j)) for j in range(1, k + 1)]
        for s, w in list(signed.items()):
            for t, f in steps:
                signed[s + t] = signed.get(s + t, 0) + w * f
    return tuple(sorted(signed.items()))


def _numerator_to(cards, top: int) -> list[int]:
    """Coefficients of t^0, ..., t^top in prod_i (1 + t + ... + t^{cards_i - 1}).

    Each factor is (1 - t^c) / (1 - t): running sums over windows of c
    coefficients, so a factor costs one pass over at most top + 1 of them.
    """
    coeffs = [1]
    for c in cards:
        run = list(accumulate(coeffs + [0] * (c - 1)))[: top + 1]
        coeffs = [s - run[k - c] if k >= c else s for k, s in enumerate(run)]
    return coeffs


def hilbert_numerator(cards) -> tuple[int, ...]:
    """Coefficients of prod_i (1 + t + ... + t^{cards_i - 1})."""
    return tuple(_numerator_to(cards, regularity(cards)))


def hilbert_function(cards, d: int) -> int:
    """Partial sum of the numerator coefficients; equals dimension_formula.

    It counts the exponent vectors with a_i <= cards_i - 1 and |a| <= d, so
    only the coefficients up to t^d are formed.
    """
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    return sum(_numerator_to(cards, d))


def hilbert_data(cards) -> HilbertData:
    num = hilbert_numerator(cards)
    return HilbertData(numerator=num, regularity=len(num) - 1, degree=sum(num))


def min_distance_formula(cards, d: int) -> int:
    """Exact minimum distance.

    d = 0 is the repetition code (distance = grid size, an extension of the
    d >= 1 theory forced by evaluating constants); d >= regularity gives the
    full space, distance 1.
    """
    cards = tuple(cards)
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    if d == 0:
        return math.prod(cards)
    if d >= regularity(cards):
        return 1
    k, ell = decompose_k_ell(cards, d)
    return (cards[k] - ell) * math.prod(cards[k + 1 :])  # empty product when k = n-1


def zero_bound(cards, d: int) -> int:
    """Sharp maximum of grid zeros over nonvanishing polynomials of degree <= d.

    Equals length - min_distance_formula for 1 <= d <= regularity - 1.
    """
    cards = tuple(cards)
    k, ell = decompose_k_ell(cards, d)
    head = math.prod(cards[: k + 1])
    tail = math.prod(cards[k + 1 :])
    return tail * (head - cards[k] + ell)


def loose_zero_bound(cards, d: int) -> int:
    """Degree-times-slice bound on grid zeros; not clamped to the grid size."""
    cards = tuple(cards)
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    if len(cards) == 1:
        return d
    return math.prod(cards[1:]) * d


def code_params(cards, d: int) -> CodeParams:
    cards = tuple(cards)
    return CodeParams(
        length=math.prod(cards),
        dimension=dimension_formula(cards, d),
        min_distance=min_distance_formula(cards, d),
        regularity=regularity(cards),
    )


def standard_monomials(cards, d: int) -> list[tuple[int, ...]]:
    """Footprint monomials: a_i <= cards_i - 1 and |a| <= d, ascending grevlex."""
    return list(grevlex_exponents([c - 1 for c in cards], d))


def digit_items(q: int) -> np.ndarray:
    """The matrix file's text item of every code 0..q - 1, indexed by code.

    An item is width + 1 bytes, width the number of digits of q - 1: the
    code's decimal digits right-aligned after NUL padding, then a space.
    """
    codes = np.arange(q)
    width = len(str(q - 1))
    table = np.zeros((q, width + 1), dtype=np.uint8)
    for k in range(width - 1):
        place = 10 ** (width - 1 - k)
        table[:, k] = np.where(codes >= place, 48 + codes // place % 10, 0)
    table[:, width - 1] = 48 + codes % 10  # every code has a units digit
    table[:, width] = 32
    return table.view(np.dtype((np.void, width + 1))).ravel()


def matrix_text(q: int, shape, blocks):
    """Yield the matrix file body: the header, then the rows a block at a time.

    The header is 'q n_rows n_cols'; each row is a line of decimal codes
    separated by spaces.  `blocks` are consecutive blocks of whole rows of
    digit_items(q) items, such as poly.monomial_blocks gathers straight from
    the grid into one reused buffer, and this writer overwrites them in
    place: the last space of each row becomes a newline, and the block's
    buffer is yielded as it is when every code has one digit, or as bytes
    with the NUL padding deleted.  So a writer that consumes the output as
    it is made holds one block of rows and its text, never the whole matrix
    or the whole text.
    """
    rows, cols = shape
    yield f"{q} {rows} {cols}\n".encode("ascii")
    for block in blocks:
        text = block.view(np.uint8).reshape(len(block), -1)  # one row of bytes per row
        text[:, -1] = 10
        yield text.tobytes().translate(None, b"\0") if q > 10 else text


def legend_text(monomials) -> str:
    """Sidecar body of a matrix file: the exponent vectors in row order."""
    return "\n".join(" ".join(str(a) for a in m) for m in monomials) + "\n"


class GeneratorMatrix:
    """Rows: footprint monomial evaluations (ascending grevlex); columns: grid points.

    `array` holds the codes in the field's code dtype, FieldTables.code (see
    poly.monomial_rows); the copy cached by CartesianCode is read-only.
    """

    __slots__ = ("grid", "d", "monomials", "array")

    def __init__(self, grid: Grid, d: int, monomials, array: np.ndarray):
        self.grid = grid
        self.d = d
        self.monomials = tuple(tuple(m) for m in monomials)
        self.array = array

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def format(self) -> str:
        """Matrix file body: 'q n_rows n_cols' then one row of codes per line.

        The join of matrix_text over the array's row_blocks, each gathered
        from digit_items; a file writer should write the blocks of
        matrix_text instead, so the whole body never exists at once.
        """
        q = self.grid.field.q
        items = digit_items(q)
        blocks = (items.take(self.array[b], mode="clip") for b in row_blocks(self.rows, self.cols))
        return b"".join(matrix_text(q, self.array.shape, blocks)).decode("ascii")

    def legend(self) -> str:
        """Sidecar body: exponent vectors in row order."""
        return legend_text(self.monomials)

    def __repr__(self):
        return f"GeneratorMatrix({self.rows}x{self.cols}, q={self.grid.field.q}, d={self.d})"


class CartesianCode:
    """Degree-d evaluation code on a normalized cartesian grid.

    Construction normalizes the coordinate sets: singletons are dropped
    (evaluation at a pinned coordinate repeats the smaller code) and the rest
    are sorted by cardinality.  `kept[j]` is the original index of coordinate
    j of the normalized grid, for mapping back to input coordinates.
    """

    def __init__(self, grid: Grid, d: int):
        if d < 0:
            raise OutOfRangeError("degree must be >= 0")
        self.source = grid
        self.grid, self.kept, self.dropped = grid.normalized()
        self.d = d
        self._matrix = None

    @property
    def field(self) -> Field:
        return self.grid.field

    @property
    def cards(self) -> tuple[int, ...]:
        return self.grid.cards

    @property
    def length(self) -> int:
        return self.grid.size

    @property
    def regularity(self) -> int:
        return regularity(self.cards)

    def params(self) -> CodeParams:
        return code_params(self.cards, self.d)

    @property
    def dimension(self) -> int:
        return dimension_formula(self.cards, self.d)

    @property
    def min_distance(self) -> int:
        return min_distance_formula(self.cards, self.d)

    def generator_matrix(self) -> GeneratorMatrix:
        if self._matrix is None:
            self._matrix = build_generator_matrix(self)
            self._matrix.array.flags.writeable = False  # shared by every later caller
        return self._matrix

    def extremal_codeword(self):
        return extremal_codeword(self)

    def __repr__(self):
        return f"CartesianCode(cards={self.cards}, d={self.d}, q={self.field.q})"


def normalize_spec(field: Field, sets, d: int) -> CartesianCode:
    """Build a code spec from raw per-coordinate element lists."""
    return CartesianCode(Grid(field, sets), d)


def build_generator_matrix(code: CartesianCode) -> GeneratorMatrix:
    """Evaluate the footprint monomials of degree <= d on the grid.

    The row count equals dimension_formula by construction; full row rank is
    a verification concern (see the oracle module).
    """
    grid = code.grid
    monos = standard_monomials(grid.cards, code.d)
    arr = monomial_rows(grid, monos)
    return GeneratorMatrix(grid, code.d, monos, arr)


def encode(matrix: GeneratorMatrix, message) -> np.ndarray:
    """Codeword = message . matrix over the field."""
    F = matrix.grid.field
    msg = [F.validate(c) for c in message]
    if len(msg) != matrix.rows:
        raise LengthMismatchError(f"message length {len(msg)} != {matrix.rows} rows")
    T = F.tables()
    word = np.zeros(matrix.cols, dtype=T.code)
    for i, m in enumerate(msg):
        if m:
            word = T.add(word, T.mul(m, matrix.array[i]))
    return word


def extremal_codeword(code: CartesianCode):
    """A codeword of minimum weight together with its defining polynomial.

    The polynomial is the product of linear factors (c - t_i) over the first
    cards_i - 1 elements of each of the first k coordinate sets and the first
    ell elements of set k+1 (element lists consumed in sorted-code order, so
    the output is reproducible).  Its total degree is exactly d and the
    weight of its evaluation vector is exactly the formula distance.

    Each of the first k+1 coordinates contributes one univariate factor, a
    coefficient array, so the terms are the nonzero entries of the outer
    product of those arrays, and the word, in grid.points() order, is the
    outer product of the factors' values on their sets, repeated over the
    points of the remaining coordinates.
    """
    grid = code.grid
    k, ell = decompose_k_ell(grid.cards, code.d)
    F = grid.field
    T = F.tables()
    terms = np.ones((), dtype=T.code)  # terms[a_1, ..., a_i]: coefficient of t^a
    vec = np.ones(1, dtype=T.code)
    for i, s in enumerate(grid.sets[: k + 1]):
        count = grid.cards[i] - 1 if i < k else ell
        coeffs = _monic_root_product(T, s[:count])  # prod (t - c) = (-1)^count prod (c - t)
        if count % 2:
            coeffs = T.neg[coeffs]
        terms = T.mul(terms[..., None], coeffs)
        (a,) = coeffs.nonzero()
        factor = MultiPoly._from_terms(F, 1, dict(zip(zip(a.tolist()), coeffs[a].tolist())))
        vals = evaluate_on_grid(factor, Grid(F, [s]))
        vec = T.mul(vec[:, None], vals[None, :]).reshape(-1)
    # the coordinates after k have the factor 1: one axis each, of length 1
    terms = terms.reshape(terms.shape + (1,) * (grid.n - k - 1))
    nz = terms.nonzero()
    exps = zip(*(a.tolist() for a in nz))
    poly = MultiPoly._from_terms(F, grid.n, dict(zip(exps, terms[nz].tolist())))
    return poly, np.repeat(vec, math.prod(grid.cards[k + 1 :]))
