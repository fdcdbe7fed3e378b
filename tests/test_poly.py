"""Polynomials: evaluation, text format, grid reduction, zero counting."""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from cartcodes import (
    ArityMismatchError,
    DuplicateElementError,
    EmptySetError,
    Grid,
    MultiPoly,
    evaluate_on_grid,
    grevlex_exponents,
    grevlex_key,
    loose_zero_bound,
    make_field,
    poly,
    reduce_mod_grid,
    vanishing_univariate,
    zero_count,
)
from helpers import random_grid, random_poly, ref_grid_sets, ref_monomial_rows, ref_pow


def test_evaluate_examples():
    F2 = make_field(2)
    f = MultiPoly(F2, 2, {(1, 0): 1, (0, 1): 1})  # t1 + t2
    assert f.evaluate((1, 1)) == 0
    one = MultiPoly.constant(F2, 2, 1)
    assert one((0, 1)) == 1 and one((1, 0)) == 1

    F5 = make_field(5)
    a = MultiPoly(F5, 2, {(1, 0): 1, (0, 0): F5.neg(1)})  # t1 - 1
    b = MultiPoly(F5, 2, {(0, 1): 1, (0, 0): F5.neg(2)})  # t2 - 2
    prod = a * b
    assert prod.evaluate((3, 4)) == 4  # (3-1)*(4-2) = 4
    # hand expansion: t1*t2 + 3*t1 + 4*t2 + 2, checked at every point
    expanded = MultiPoly(F5, 2, {(1, 1): 1, (1, 0): 3, (0, 1): 4, (0, 0): 2})
    for x in range(5):
        for y in range(5):
            assert prod.evaluate((x, y)) == expanded.evaluate((x, y))


def test_evaluate_arity_mismatch():
    F2 = make_field(2)
    f = MultiPoly.variable(F2, 2, 0)
    with pytest.raises(ArityMismatchError):
        f.evaluate((1,))


def test_zero_polynomial_degree_marker():
    F3 = make_field(3)
    z = MultiPoly.zero(F3, 2)
    assert z.is_zero() and z.total_degree is None and z.degree_in(0) is None
    assert MultiPoly.constant(F3, 2, 1).total_degree == 0


def test_arithmetic_basics():
    F3 = make_field(3)
    t1 = MultiPoly.variable(F3, 2, 0)
    t2 = MultiPoly.variable(F3, 2, 1)
    assert (t1 + t2) - t2 == t1
    assert t1 - t1 == MultiPoly.zero(F3, 2)
    assert (t1 * 2) * 2 == t1  # 4 = 1 in F_3
    assert 0 * t1 == MultiPoly.zero(F3, 2)
    assert (t1 * t2).total_degree == 2
    one = MultiPoly.constant(F3, 2, 1)
    # the cross terms -t1 and t1 cancel, and no zero term is kept
    assert (t1 + one) * (t1 - one) == MultiPoly(F3, 2, {(2, 0): 1, (0, 0): 2})


def test_format_and_parse_roundtrip():
    F5 = make_field(5)
    cases = [
        MultiPoly.zero(F5, 3),
        MultiPoly.constant(F5, 3, 4),
        MultiPoly(F5, 3, {(2, 1, 0): 1, (0, 0, 1): 4, (0, 0, 0): 3}),
        MultiPoly(F5, 3, {(1, 1, 1): 2}),
    ]
    for f in cases:
        assert MultiPoly.parse(F5, 3, f.format()) == f


def test_parse_whitespace_and_omitted_units():
    F5 = make_field(5)
    f = MultiPoly.parse(F5, 2, "  3 * t1^2 * t2  +  t2   + 1 ")
    assert f == MultiPoly(F5, 2, {(2, 1): 3, (0, 1): 1, (0, 0): 1})
    g = MultiPoly.parse(F5, 2, "t1*t1 + 2")  # repeated factors accumulate
    assert g == MultiPoly(F5, 2, {(2, 0): 1, (0, 0): 2})
    assert MultiPoly.parse(F5, 2, "0").is_zero()


def test_parse_errors():
    F5 = make_field(5)
    with pytest.raises(ValueError):
        MultiPoly.parse(F5, 2, "t1 + + t2")
    with pytest.raises(ValueError):
        MultiPoly.parse(F5, 2, "t1^-2")
    with pytest.raises(ArityMismatchError):
        MultiPoly.parse(F5, 2, "t3")


def test_format_is_descending_grevlex():
    F5 = make_field(5)
    f = MultiPoly(F5, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert f.format() == "t1*t2 + t1 + t2 + 1"


def test_grid_construction_and_points():
    F2 = make_field(2)
    g = Grid(F2, [(0, 1), (0, 1)])
    assert list(g.points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    F3 = make_field(3)
    assert list(Grid(F3, [(0, 1, 2)]).points()) == [(0,), (1,), (2,)]
    with pytest.raises(EmptySetError):
        Grid(F2, [()])
    with pytest.raises(DuplicateElementError):
        Grid(F2, [(0, 0, 1)])


def _outcome(build):
    """The value build() returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


GRID_INPUTS = [
    [(0, 1, 2)],
    [(2, 0, 1), (4, 3)],
    [(0, 1.0)],
    [(0, 1.5)],
    [(0, "1")],
    [(0, None)],
    [(0, -1)],
    [(3, 0, -2, -1)],
    [(0, 5)],
    [(0, 1), (4, 7, 5)],
    [(0, 2**63)],
    [(0, 2**64 + 1)],
    [(0, -(2**63) - 1)],
    [(np.int64(0), np.int64(3))],
    [(np.int64(0), np.int64(5))],
    [(np.uint8(1), 2, np.int32(-1))],
    [(True, 0)],
    [(True, 1)],
    [(1, 0, 1)],
    [(0, 1), (2, 3, 2)],
    [()],
    [(0,), ()],
    [(), (0, 9)],
    [],
    [np.array([3, 0, 1])],
    [np.array([], dtype=np.int64)],
    [np.array([0, 5])],
    [np.array([0, -1])],
    [np.array([0, 2**63], dtype=np.uint64)],
    [np.array([0, 1, 0])],
    [np.array([0.0, 1.0])],
    [np.array([True, False])],
    [np.array([[0, 1], [2, 3]])],
    [range(5), [4, 2]],
]


@pytest.mark.parametrize("sets", GRID_INPUTS, ids=range(len(GRID_INPUTS)))
def test_grid_validation_matches_per_element_reference(sets):
    F5 = make_field(5)
    got = _outcome(lambda: Grid(F5, sets).sets)
    assert got == _outcome(lambda: ref_grid_sets(F5, sets))
    if isinstance(got, tuple) and got and isinstance(got[0], tuple):
        assert all(type(c) is int for s in got for c in s)


def test_normalized_grid_keeps_validated_sets():
    F = make_field(4099)
    g = Grid(F, [range(4099), (5,), np.array([7, 3, 1])])
    sub, kept, dropped = g.normalized()
    assert (kept, dropped) == ((2, 0), (1,))
    assert sub.sets == ((1, 3, 7), tuple(range(4099)))
    assert sub == Grid(F, [(1, 3, 7), range(4099)])
    assert (sub.cards, sub.n, sub.size) == ((3, 4099), 2, 3 * 4099)
    assert Grid(F, [(x for x in (4, 2))]).sets == ((2, 4),)  # a one-shot iterator


def test_grid_point_count_from_subgroups():
    from cartcodes import degenerate_torus_for_degrees

    spec = degenerate_torus_for_degrees((2, 5, 9))
    assert spec.grid.size == 90
    assert len(list(spec.grid.points())) == 90


def test_reduce_examples():
    F2 = make_field(2)
    g = Grid(F2, [(0, 1)])
    t1sq = MultiPoly(F2, 1, {(2,): 1})
    assert reduce_mod_grid(t1sq, g) == MultiPoly.variable(F2, 1, 0)

    F5 = make_field(5)
    g2 = Grid(F5, [(1, 2), (0, 1, 3)])
    f1 = vanishing_univariate(g2, 0)
    assert reduce_mod_grid(f1, g2).is_zero()
    already = MultiPoly(F5, 2, {(1, 2): 3, (0, 0): 1})
    assert reduce_mod_grid(already, g2) == already  # idempotence on reduced input


def test_reduce_soundness_and_degree_bounds():
    rng = random.Random(42)
    for q, cards in [(2, (2, 2)), (3, (2, 3)), (5, (3, 4)), (9, (2, 3))]:
        F = make_field(*((q, 1) if q != 9 else (3, 2)))
        grid = random_grid(F, cards, rng)
        for _ in range(25):
            f = random_poly(F, grid.n, 7, rng)
            r = reduce_mod_grid(f, grid)
            for pt in grid.points():
                assert f.evaluate(pt) == r.evaluate(pt)
            for i in range(grid.n):
                di = r.degree_in(i)
                assert di is None or di <= grid.cards[i] - 1
            if not f.is_zero() and not r.is_zero():
                assert r.total_degree <= f.total_degree
            assert reduce_mod_grid(r, grid) == r


def test_reduce_is_linear():
    rng = random.Random(43)
    F5 = make_field(5)
    grid = Grid(F5, [(0, 2, 3), (1, 4)])
    for _ in range(20):
        f = random_poly(F5, 2, 6, rng)
        g = random_poly(F5, 2, 6, rng)
        c = rng.randrange(5)
        lhs = reduce_mod_grid(f * c + g, grid)
        rhs = reduce_mod_grid(f, grid) * c + reduce_mod_grid(g, grid)
        assert lhs == rhs


def test_zero_count_examples():
    F5 = make_field(5)
    grid = Grid(F5, [(1, 2), (0, 1, 3)])
    assert zero_count(MultiPoly.zero(F5, 2), grid) == 6
    assert zero_count(MultiPoly.constant(F5, 2, 1), grid) == 0
    slice_poly = MultiPoly(F5, 2, {(1, 0): 1, (0, 0): F5.neg(2)})  # t1 - 2
    assert zero_count(slice_poly, grid) == 3


def test_evaluate_on_grid_matches_scalar():
    rng = random.Random(44)
    F9 = make_field(3, 2)
    grid = random_grid(F9, (3, 4), rng)
    for _ in range(10):
        f = random_poly(F9, 2, 5, rng)
        vals = evaluate_on_grid(f, grid)
        assert list(vals) == [f.evaluate(pt) for pt in grid.points()]


def test_evaluate_on_grid_large_field_fallback():
    # q above the former table limit: the table path against scalar evaluation
    F = make_field(4099)
    grid = Grid(F, [(0, 1, 2), (5, 7)])
    f = MultiPoly(F, 2, {(1, 1): 1, (0, 0): 4098})
    vals = evaluate_on_grid(f, grid)
    assert list(vals) == [f.evaluate(pt) for pt in grid.points()]
    assert zero_count(f, grid) == sum(1 for pt in grid.points() if f.evaluate(pt) == 0)


def test_nonzero_reduced_never_vanishes():
    rng = random.Random(45)
    for q, e, cards in [(2, 1, (2, 2)), (3, 1, (2, 3)), (5, 1, (3, 4))]:
        F = make_field(q, e)
        grid = random_grid(F, cards, rng)
        for _ in range(50):
            f = random_poly(F, grid.n, sum(cards), rng, caps=grid.cards, nonzero=True)
            assert zero_count(f, grid) < grid.size


def test_loose_zero_bound_respected():
    rng = random.Random(46)
    for q, cards in [(3, (2, 3)), (5, (3, 4)), (5, (5,))]:
        F = make_field(q)
        grid = random_grid(F, cards, rng)
        for _ in range(50):
            f = random_poly(F, grid.n, 4, rng, nonzero=True)
            assert zero_count(f, grid) <= loose_zero_bound(grid.cards, f.total_degree)


def test_grevlex_exponents_match_sorted_box():
    rng = random.Random(5)
    for _ in range(300):
        caps = [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]
        d = rng.randint(0, 14)
        box = [e for e in product(*(range(c + 1) for c in caps)) if sum(e) <= d]
        assert list(grevlex_exponents(caps, d)) == sorted(box, key=grevlex_key)


# poly settings under which monomial rows are checked: the defaults; several row
# blocks; every coordinate after the first through its product table, in one
# block; and none of them, a row per block (every table has at least 2 codes)
EVALUATIONS = [
    {},
    {"BLOCK_ENTRIES": 7},
    {"BLOCK_ENTRIES": 1 << 40, "TABLE_READS": 0},
    {"BLOCK_ENTRIES": 1},
]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1), (2, 11)])
def test_monomial_rows_match_pointwise_reference(monkeypatch, p, e):
    F = make_field(p, e)
    rng = random.Random(1000 * p + e)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            sets = []
            for _ in range(n):
                s = rng.sample(range(F.q), rng.randint(1, min(F.q, 3)))
                if rng.random() < 0.5 and 0 not in s:
                    s[0] = 0
                sets.append(sorted(s))
            grid = Grid(F, sets)
            # exponents past q - 1 wrap around; (0, ..., 0) checks 0^0 = 1; exponents
            # in random order have short runs of equal values, in grevlex order long ones
            exps = {(0,) * n} | {tuple(rng.randint(0, F.q + 1) for _ in range(n)) for _ in range(5)}
            exps |= {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(6)}
            shuffled = rng.sample(sorted(exps), len(exps))
            for order in (shuffled, sorted(exps, key=grevlex_key)):
                want = ref_monomial_rows(grid, order)
                for settings in EVALUATIONS:
                    with monkeypatch.context() as m:
                        for name, value in settings.items():
                            m.setattr(poly, name, value)
                        got = poly.monomial_rows(grid, order)
                    assert got.dtype == np.min_scalar_type(F.q - 1)
                    assert got.tolist() == want, (sets, order, settings)


@pytest.mark.parametrize("order", ["table-then-log", "log-then-table"])
def test_monomial_rows_mix_tables_and_log_steps(monkeypatch, order):
    # A set of 150 elements of F_257 has a product table of 257 * 150 codes per
    # exponent, too large for BLOCK_ENTRIES at two or more, so that coordinate
    # multiplies through the log tables while the small ones take their tables
    F = make_field(257)
    rng = random.Random(257)
    small = [sorted(rng.sample(range(1, 257), 2) + [0]), sorted(rng.sample(range(257), 4))]
    big = sorted(rng.sample(range(257), 150))
    sets = [small[0], small[1], big] if order == "table-then-log" else [small[0], big, small[1]]
    grid = Grid(F, sets)
    exps = list(grevlex_exponents([2, 3, 3], 3))  # four exponents for the coordinates after the first
    monkeypatch.setattr(poly, "TABLE_READS", 0)
    assert poly.monomial_rows(grid, exps).tolist() == ref_monomial_rows(grid, exps)
    monkeypatch.setattr(poly, "BLOCK_ENTRIES", 4 * 257 * 4)  # the small table just fits, two rows per block
    assert poly.monomial_rows(grid, exps).tolist() == ref_monomial_rows(grid, exps)


def test_monomial_rows_memory_is_bounded():
    # F9^4 d = 8: the 495 x 6561 rows are 3.1 MiB as bytes; an int64 copy of them
    # (24.8 MiB), or int64 temporaries beyond a chunk, exceed the bound
    F = make_field(3, 2)
    grid = Grid(F, [tuple(range(9))] * 4)
    exps = list(grevlex_exponents([8] * 4, 8))
    F.tables()
    tracemalloc.start()
    try:
        arr = poly.monomial_rows(grid, exps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.shape == (495, 6561)
    assert peak < arr.nbytes + 2 * 2**20


def test_monomial_blocks_concatenate_to_monomial_rows(monkeypatch):
    # the blocks are whole rows of one reused buffer, so each is copied as it
    # comes, and together they are monomial_rows' array, however BLOCK_ENTRIES
    # cuts the rows
    F = make_field(3, 2)
    grid = Grid(F, [(0, 1, 5), tuple(range(9)), (2, 7)])
    exps = list(grevlex_exponents([2, 8, 1], 9))
    want = poly.monomial_rows(grid, exps)
    for entries in (1, 2 * grid.size, 5 * grid.size + 3, 1 << 16):
        monkeypatch.setattr(poly, "BLOCK_ENTRIES", entries)
        blocks = [b.copy() for b in poly.monomial_blocks(grid, exps)]
        assert all(b.shape[0] == max(1, entries // grid.size) for b in blocks[:-1])
        assert np.array_equal(np.vstack(blocks), want)
        assert all(b.dtype == np.uint8 for b in blocks)


def test_monomial_blocks_memory_is_bounded_by_a_block():
    # F_65521 at d = 100, one coordinate: 101 x 65521 codes, 12.6 MiB as uint16.
    # Each block is one row and forms the log powers of its own exponents; a
    # table of every power up to t^100 would be the matrix again, in int64
    F = make_field(65521)
    F.tables()
    grid = Grid(F, [F.elements()])
    exps = [(a,) for a in range(101)]
    tracemalloc.start()
    try:
        rows = 0
        for block in poly.monomial_blocks(grid, exps):
            rows += block.shape[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 101
    assert peak < 8 * 8 * grid.size  # eight int64 rows


def test_monomial_rows_fixed_cost_does_not_grow_with_q():
    # Two rows on a 3-point grid over F_65521: the output is 12 bytes, while the
    # exp table in uint16 codes is about 512 KiB; narrowing it on every call
    # would allocate all of it each time.
    F = make_field(65521)
    T = F.tables()
    grid = Grid(F, [(0, 1, 65520)])
    tracemalloc.start()
    try:
        arr = poly.monomial_rows(grid, [(2,), (3,)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.dtype == np.uint16 == T.code
    assert arr.tolist() == [[ref_pow(F, x, a) for x in (0, 1, 65520)] for a in (2, 3)]
    assert peak < T.exp.nbytes / 32
