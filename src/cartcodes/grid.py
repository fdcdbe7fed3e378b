"""Evaluation grids: cartesian products of finite subsets of a field."""

from __future__ import annotations

import itertools
import math

from .errors import DuplicateElementError, EmptySetError
from .field import Field


def _sorted_codes(field: Field, s: tuple) -> list[int]:
    """The codes of the nonempty set s as sorted ints; raises if one is not a code.

    A set of Python ints is checked by its least and greatest element.
    Anything else, or a failed check, goes through field.validate one element
    at a time, which raises the typed error for the first bad element.
    """
    if set(map(type, s)) <= {int}:
        vals = sorted(s)
        if vals[0] >= 0 and vals[-1] < field.q:
            return vals
    return sorted(field.validate(c) for c in s)


class Grid:
    """A_1 x ... x A_n with each A_i a sorted, duplicate-free subset of F_q.

    Sets are sorted by element code at construction; repeated elements are
    rejected rather than silently merged.
    """

    __slots__ = ("field", "sets", "cards", "n")

    def __init__(self, field: Field, sets):
        raw = [tuple(s) for s in sets]
        if not raw:
            raise EmptySetError("a grid needs at least one coordinate set")
        clean = []
        for i, s in enumerate(raw):
            if not s:
                raise EmptySetError(f"coordinate set {i + 1} is empty")
            vals = _sorted_codes(field, s)
            if len(set(vals)) != len(vals):
                raise DuplicateElementError(f"coordinate set {i + 1} repeats an element")
            clean.append(tuple(vals))
        self._assign(field, clean)

    def _assign(self, field, clean):
        self.field = field
        self.sets = tuple(clean)
        self.cards = tuple(len(s) for s in clean)
        self.n = len(clean)

    @property
    def size(self) -> int:
        return math.prod(self.cards)

    def points(self):
        """Grid points in lexicographic order: A_1 slowest, A_n fastest."""
        return itertools.product(*self.sets)

    def normalized(self) -> tuple["Grid", tuple[int, ...], tuple[int, ...]]:
        """Drop singleton coordinates and sort the rest by cardinality.

        Returns (grid, kept, dropped), where kept[j] is the original index of
        the j-th coordinate of the new grid.  If every set is a singleton the
        first one is retained so the grid stays a single point.
        """
        order = sorted(range(self.n), key=lambda i: self.cards[i])  # stable
        kept = tuple(i for i in order if self.cards[i] > 1)
        if not kept:
            kept = (0,)
        dropped = tuple(i for i in range(self.n) if i not in kept)
        sub = Grid.__new__(Grid)  # the sets are already validated
        sub._assign(self.field, [self.sets[i] for i in kept])
        return sub, kept, dropped

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.field == other.field
            and self.sets == other.sets
        )

    def __hash__(self):
        return hash((self.field, self.sets))

    def __repr__(self):
        return f"Grid(cards={self.cards}, q={self.field.q})"
