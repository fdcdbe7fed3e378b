"""Parameter formulas, normalization, generator matrices, extremal words."""

import json
import math
import random
import tracemalloc
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from cartcodes import (
    CartesianCode,
    Grid,
    LengthMismatchError,
    OutOfRangeError,
    code_params,
    decompose_k_ell,
    dimension_formula,
    encode,
    extremal_codeword,
    field_for_order,
    hilbert_data,
    hilbert_function,
    loose_zero_bound,
    make_field,
    min_distance_formula,
    normalize_spec,
    regularity,
    standard_monomials,
    zero_bound,
)
from cartcodes import _kernels, cli, oracle, poly
from cartcodes import code as code_module
from helpers import (
    lazy_codes,
    random_grid,
    ref_dimension_formula,
    ref_extremal_codeword,
    ref_matrix_format,
    ref_matrix_text,
    ref_pow,
    span_words,
)


# -- normalization ----------------------------------------------------------


def test_normalize_drops_singletons_and_sorts():
    F5 = make_field(5)
    code = normalize_spec(F5, [(0, 1, 2), (3,), (1, 4)], 2)
    assert code.cards == (2, 3)
    assert code.kept == (2, 0)
    assert code.dropped == (1,)


def test_normalize_all_singletons_single_point():
    F5 = make_field(5)
    code = normalize_spec(F5, [(3,), (0,), (1,)], 2)
    assert code.cards == (1,)
    assert code.length == 1
    assert code.params().dimension == 1
    assert code.params().min_distance == 1


def test_normalize_unchanged_when_sorted():
    F9 = make_field(3, 2)
    sets = [tuple(range(9))] * 4
    code = normalize_spec(F9, sets, 3)
    assert code.cards == (9, 9, 9, 9)


def test_params_invariant_under_permutation_and_singletons():
    F9 = make_field(3, 2)
    base_sets = [(0, 3), (1, 2, 4, 5), (0, 1, 8)]
    ref = normalize_spec(F9, base_sets, 2).params()
    rng = random.Random(5)
    for _ in range(5):
        perm = base_sets[:]
        rng.shuffle(perm)
        augmented = perm + [(7,)]
        assert normalize_spec(F9, augmented, 2).params() == ref


# -- (k, ell) decomposition ----------------------------------------------------


def test_decompose_examples():
    assert decompose_k_ell((2, 5, 9), 5) == (1, 4)
    assert decompose_k_ell((9, 9, 9, 9), 10) == (1, 2)
    for n in (3, 6, 10):
        for d in range(1, n):
            assert decompose_k_ell((2,) * n, d) == (d - 1, 1)


def test_decompose_uniqueness_by_scan():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        cards = tuple(sorted(rng.randint(2, 9) for _ in range(n)))
        r = regularity(cards)
        for d in range(1, r):
            valid = [
                (k, d - sum(c - 1 for c in cards[:k]))
                for k in range(n)
                if 1 <= d - sum(c - 1 for c in cards[:k]) <= cards[k] - 1
            ]
            assert len(valid) == 1
            assert decompose_k_ell(cards, d) == valid[0]


def test_decompose_out_of_range():
    with pytest.raises(OutOfRangeError):
        decompose_k_ell((2, 5, 9), 0)
    with pytest.raises(OutOfRangeError):
        decompose_k_ell((2, 5, 9), 13)
    with pytest.raises(OutOfRangeError):
        decompose_k_ell((5, 2), 1)  # unsorted
    with pytest.raises(OutOfRangeError):
        decompose_k_ell((1, 3), 1)  # entries below 2


# -- dimension and Hilbert function ----------------------------------------------


def test_dimension_examples():
    assert dimension_formula((9, 9, 9, 9), 2) == 15
    assert dimension_formula((2, 5, 9), 2) == 9
    assert dimension_formula((3, 4, 7), 0) == 1


def test_dimension_formula_matches_subset_reference():
    # the grouped sum counts the subsets of each card value by binomials; the
    # reference lists them, so repeated cards (and cards of 1) are the cases
    for n in range(1, 5):
        for cards in product(range(1, 6), repeat=n):
            for d in range(0, regularity(cards) + 3):
                assert dimension_formula(cards, d) == ref_dimension_formula(cards, d), (cards, d)
    assert dimension_formula([3, 2, 3], 4) == ref_dimension_formula((3, 2, 3), 4)  # a list, unsorted


def test_dimension_formula_on_many_equal_cards():
    # twenty cards of 2: 21 card sums in place of 2^20 subsets
    cards = (2,) * 20
    for d in (0, 1, 10, 19, 20, 25):
        assert dimension_formula(cards, d) == hilbert_function(cards, d)
    assert dimension_formula(cards, 10) == sum(math.comb(20, i) for i in range(11))
    assert dimension_formula((2,) * 12 + (3,) * 9, 11) == hilbert_function((2,) * 12 + (3,) * 9, 11)


def test_hilbert_examples():
    assert hilbert_function((2, 5, 9), 13) == 90
    assert hilbert_function((9, 9, 9, 9), 32) == 6561
    assert hilbert_function((3,), 1) == 2


def test_hilbert_data_invariants():
    for cards in [(2, 5, 9), (9, 9, 9, 9), (3,), (2, 2, 2)]:
        h = hilbert_data(cards)
        assert all(c > 0 for c in h.numerator)
        assert sum(h.numerator) == math.prod(cards) == h.degree
        assert h.regularity == regularity(cards)


def test_formula_agreement_small():
    for n in range(1, 4):
        for cards in combinations_with_replacement(range(2, 6), n):
            for d in range(0, regularity(cards) + 3):
                assert hilbert_function(cards, d) == dimension_formula(cards, d)


def test_hilbert_function_counts_footprint_monomials():
    # the oracle sizes its scans by hilbert_function: it must count the
    # generator matrix's rows, including cards of 1 and cards in any order
    for n in range(1, 4):
        for cards in product(range(1, 10), repeat=n):
            for d in range(0, regularity(cards) + 3):
                assert hilbert_function(cards, d) == len(standard_monomials(cards, d)), (cards, d)


# -- minimum distance and zero bounds ------------------------------------------------


def test_min_distance_examples():
    assert min_distance_formula((9, 9, 9, 9), 10) == 567
    assert min_distance_formula((2, 5, 9), 6) == 8
    assert min_distance_formula((2, 5, 9), 13) == 1
    assert min_distance_formula((2, 5, 9), 0) == 90  # repetition convention


def test_min_distance_monotone_in_degree():
    for cards in [(2, 5, 9), (3, 3, 3), (2, 2, 2, 2), (4,)]:
        deltas = [min_distance_formula(cards, d) for d in range(0, regularity(cards) + 2)]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_saturation_iff_degree_at_least_regularity():
    cards = (2, 3, 4)
    r = regularity(cards)
    for d in range(0, r + 3):
        pr = code_params(cards, d)
        assert pr.saturated == (d >= r)
        assert (pr.min_distance == 1) == (d >= r)


def test_zero_bound_examples():
    assert zero_bound((2, 5, 9), 1) == 45
    assert zero_bound((9, 9, 9, 9), 31) == 6559
    assert zero_bound((2, 2), 1) == 2
    with pytest.raises(OutOfRangeError):
        zero_bound((2, 5, 9), 0)
    with pytest.raises(OutOfRangeError):
        zero_bound((2, 5, 9), 13)


def test_zero_bound_complements_distance():
    for cards in [(2, 5, 9), (3, 3, 3), (2, 2, 4)]:
        for d in range(1, regularity(cards)):
            assert zero_bound(cards, d) == math.prod(cards) - min_distance_formula(cards, d)


def test_loose_zero_bound_examples():
    assert loose_zero_bound((2, 5, 9), 1) == 45
    assert loose_zero_bound((7,), 3) == 3
    assert loose_zero_bound((2, 2), 3) == 6  # exceeds the grid size; not clamped


# -- generator matrix --------------------------------------------------------------


def test_standard_monomials_order():
    assert standard_monomials((2, 2), 1) == [(0, 0), (0, 1), (1, 0)]
    assert standard_monomials((3, 3), 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
    ]


def test_generator_matrix_f2_square_example():
    F2 = make_field(2)
    code = normalize_spec(F2, [(0, 1), (0, 1)], 1)
    mat = code.generator_matrix()
    assert mat.monomials == ((0, 0), (0, 1), (1, 0))
    assert mat.array.tolist() == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    # rank oracle: 2^3 distinct span words means injective encoding
    words = span_words(F2, mat.array.tolist())
    assert len(words) == 8
    T = F2.tables()
    assert _kernels.rank_mod(lazy_codes(mat.array, T), T).size == 3 == code.dimension


def test_generator_matrix_univariate_example():
    F3 = make_field(3)
    code = normalize_spec(F3, [(0, 1, 2)], 1)
    mat = code.generator_matrix()
    assert mat.array.tolist() == [[1, 1, 1], [0, 1, 2]]
    assert len(span_words(F3, mat.array.tolist())) == 9
    T = F3.tables()
    assert _kernels.rank_mod(lazy_codes(mat.array, T), T).size == 2


def test_generator_matrix_saturated_is_square_invertible():
    F3 = make_field(3)
    code = normalize_spec(F3, [(0, 1, 2), (0, 1, 2)], 4)  # d = regularity
    mat = code.generator_matrix()
    assert mat.rows == mat.cols == 9
    T = F3.tables()
    assert _kernels.rank_mod(lazy_codes(mat.array, T), T).size == 9


def test_cached_generator_matrix_is_read_only():
    # the cached matrix is shared by every caller, so no write may reach it
    F3 = make_field(3)
    code = normalize_spec(F3, [(0, 1, 2), (0, 1, 2)], 4)
    arr = code.generator_matrix().array
    before = arr.copy()
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 1
    assert np.array_equal(code.generator_matrix().array, before)


@pytest.mark.parametrize(
    "p,e,want",
    [
        (3, 1, np.uint8),
        (2, 8, np.uint8),  # q = 256
        (257, 1, np.uint16),
        (4099, 1, np.uint16),
        (2, 16, np.uint16),  # q = 65536
        (65537, 1, np.uint32),
    ],
    ids=["F3", "F2^8", "F257", "F4099", "F2^16", "F65537"],
)
def test_generator_matrix_dtype_boundaries(p, e, want):
    F = make_field(p, e)
    q = F.q
    sets = [0, 1, q - 1]
    mat = normalize_spec(F, [sets], 2).generator_matrix()
    assert mat.array.dtype == want == np.min_scalar_type(q - 1)
    assert mat.array.tolist() == [[ref_pow(F, x, k) for x in sets] for k in range(3)]


@pytest.mark.parametrize(
    "p,e,sets,d",
    [
        (2, 1, [(0, 1), (0, 1)], 1),
        (3, 1, [(0, 2), (0, 1, 2)], 2),
        (3, 2, [(0, 3), (1, 2, 4, 5, 8), (0, 1, 2, 3, 4, 5, 6, 7, 8)], 3),
        (181, 1, None, 2),  # degenerate torus sets
    ],
)
def test_rank_equals_dimension(p, e, sets, d):
    F = make_field(p, e)
    if sets is None:
        sets = [F.subgroup_of_order(k).elements for k in (2, 5, 9)]
    code = normalize_spec(F, sets, d)
    mat = code.generator_matrix()
    assert mat.rows == code.dimension
    T = F.tables()
    assert _kernels.rank_mod(lazy_codes(mat.array, T), T).size == code.dimension


def test_row_space_nesting():
    F3 = make_field(3)
    sets = [(0, 1, 2), (0, 2)]
    big = normalize_spec(F3, sets, 3).generator_matrix().array
    T = F3.tables()
    base_rank = _kernels.rank_mod(lazy_codes(big, T), T).size
    small = normalize_spec(F3, sets, 2).generator_matrix().array
    for row in small:
        stacked = np.vstack([big, row[None, :]])
        assert _kernels.rank_mod(lazy_codes(stacked, T), T).size == base_rank


def test_encode_basics():
    F2 = make_field(2)
    code = normalize_spec(F2, [(0, 1), (0, 1)], 1)
    mat = code.generator_matrix()
    assert encode(mat, [0, 0, 0]).tolist() == [0, 0, 0, 0]
    assert encode(mat, [1, 0, 0]).tolist() == mat.array[0].tolist()
    assert encode(mat, [1, 1, 0]).tolist() == [1, 0, 1, 0]
    with pytest.raises(LengthMismatchError):
        encode(mat, [1, 0])


def test_encode_extremal_coefficients_reproduce_vector():
    F181 = make_field(181)
    sets = [F181.subgroup_of_order(k).elements for k in (2, 5, 9)]
    code = normalize_spec(F181, sets, 4)
    poly, vec = extremal_codeword(code)
    mat = code.generator_matrix()
    message = [poly.terms.get(m, 0) for m in mat.monomials]
    assert encode(mat, message).tolist() == vec.tolist()


@pytest.mark.parametrize(
    "p,e,cards,d,weight",
    [
        (181, 1, (2, 5, 9), 1, 45),
        (3, 2, (9, 9, 9, 9), 5, 2916),
        (2, 1, (2, 2), 1, 2),
    ],
)
def test_extremal_examples(p, e, cards, d, weight):
    F = make_field(p, e)
    if p == 181:
        sets = [F.subgroup_of_order(k).elements for k in cards]
    else:
        sets = [tuple(range(c)) for c in cards]
    code = normalize_spec(F, sets, d)
    poly, vec = extremal_codeword(code)
    assert int(np.count_nonzero(vec)) == weight == code.min_distance
    assert poly.total_degree == d
    assert int(np.count_nonzero(vec)) + zero_bound(cards, d) == code.length


@pytest.mark.parametrize(
    "p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (4099, 1)]
)
def test_extremal_matches_factor_product(p, e):
    # the direct construction against the product of linear factors, at every d
    F = make_field(p, e)
    rng = random.Random(400 * p + e)
    shapes = [(1, F.q), (2, min(F.q, 4), F.q)] if F.q <= 9 else [(3, 7, 12)]
    shapes.append(tuple(rng.randint(1, min(F.q, 6)) for _ in range(3)))
    for cards in shapes:
        code0 = normalize_spec(F, random_grid(F, cards, rng).sets, 0)
        for d in range(1, code0.regularity):
            code = normalize_spec(F, code0.source.sets, d)
            poly, vec = extremal_codeword(code)
            ref_poly, ref_vec = ref_extremal_codeword(code)
            assert poly == ref_poly and poly.format() == ref_poly.format()
            assert vec.tolist() == ref_vec.tolist()


@pytest.mark.parametrize("q,sets", [(8, "unitsx3"), (9, "subgroup:4,full,full")])
def test_extremal_matches_reference_on_verify_grids(q, sets):
    # every degree that has an extremal word; its terms are plain ints, so JSON takes them
    F = field_for_order(q)
    grid = Grid(F, cli.parse_set_expressions(F, sets))
    for d in range(1, CartesianCode(grid, 0).regularity):
        code = CartesianCode(grid, d)
        poly, vec = extremal_codeword(code)
        ref_poly, ref_vec = ref_extremal_codeword(code)
        assert poly == ref_poly and poly.format() == ref_poly.format()
        assert vec.tolist() == ref_vec.tolist()
        for exps, c in poly.terms.items():
            assert type(exps) is tuple and {type(a) for a in exps} == {int} and type(c) is int
        json.dumps([[list(e), c] for e, c in poly.terms.items()])


# Grids for the factor chain: sets with 0, sets without it and the two mixed, of every
# size up to 7 (a set with 0 may be the whole field).
CHAIN_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (4099, 1)]


def _chain_grids(F, rng):
    """Normalized grids of at least two points whose sets hold 0, miss it, or alternate."""
    grids = []
    for cards in [(2, 3), (3, 3, 4), (2, 5, 7), (4, 2)]:
        with_zero = [[0] + rng.sample(range(1, F.q), min(c, F.q) - 1) for c in cards]
        without = [rng.sample(range(1, F.q), min(c, F.q - 1)) for c in cards]
        mixed = [w if i % 2 else z for i, (z, w) in enumerate(zip(with_zero, without))]
        for sets in (with_zero, without, mixed):
            grid = Grid(F, sets).normalized()[0]
            if grid.size > 1:
                grids.append(grid)
    return grids


@pytest.mark.parametrize("p,e", CHAIN_FIELDS)
def test_extremal_chain_matches_reference(p, e):
    # every interior degree, asked for in ascending, descending and shuffled order
    F = make_field(p, e)
    rng = random.Random(800 * p + e)
    for grid in _chain_grids(F, rng):
        interior = list(range(1, regularity(grid.cards)))
        refs = {d: ref_extremal_codeword(CartesianCode(grid, d)) for d in interior}
        shuffled = rng.sample(interior, len(interior))
        for order in (interior, interior[::-1], shuffled):
            got = list(code_module.extremal_codewords(grid, order))
            assert len(got) == len(order)
            for d, (f, word) in zip(order, got):
                ref_f, ref_word = refs[d]
                assert f == ref_f and f.format() == ref_f.format(), (grid, d)
                assert word.dtype == ref_word.dtype == F.tables().code
                assert np.array_equal(word, ref_word), (grid, d)
        for d in interior:  # the one-degree case
            f, word = extremal_codeword(CartesianCode(grid, d))
            assert f == refs[d][0] and word.dtype == refs[d][1].dtype
            assert np.array_equal(word, refs[d][1])


def test_extremal_chain_raises_before_the_first_word():
    grid = Grid(make_field(3), [(0, 1, 2), (0, 1)])
    words = code_module.extremal_codewords(grid, [1, 3])  # regularity 3
    with pytest.raises(OutOfRangeError):
        next(words)


def test_verify_dall_evaluates_each_vandermonde_once(monkeypatch):
    # one verify --dall pass over 10 interior degrees evaluates the Vandermonde of each
    # coordinate set once: the rank oracle and the generator matrices go through their
    # own modules' monomial_rows, so every call counted here is the factor chain's
    F = make_field(7)
    grid = Grid(F, [(0, 1, 2), (1, 2, 3, 4), tuple(range(7))])
    calls, real = [], poly.monomial_rows

    def counted(g, exps_list):
        calls.append((g.sets, len(exps_list)))
        return real(g, exps_list)

    monkeypatch.setattr(poly, "monomial_rows", counted)
    top = regularity(grid.cards)
    report = oracle.verify_degrees(grid, range(top + 1))
    assert report.ok and top - 1 == 10
    assert [c.d for c in report.checks if c.name == "extremal_weight"] == list(range(1, top))
    # the full rows of the first two sets, and rows 0..ell <= 5 of the last (ell < 7 - 1)
    assert calls == [((s,), m) for s, m in zip(grid.sets, [3, 4, 6])]


def test_extremal_out_of_range():
    F2 = make_field(2)
    code = normalize_spec(F2, [(0, 1), (0, 1)], 2)  # d = regularity
    with pytest.raises(OutOfRangeError):
        extremal_codeword(code)


def test_matrix_file_format():
    F2 = make_field(2)
    mat = normalize_spec(F2, [(0, 1), (0, 1)], 1).generator_matrix()
    assert mat.format() == "2 3 4\n1 1 1 1\n0 1 0 1\n0 0 1 1\n"
    assert mat.legend() == "0 0\n0 1\n1 0\n"


format_cases = pytest.mark.parametrize(
    "p,e,sets,d",
    [
        # codes whose decimal width changes inside one row
        (11, 1, [range(11)] * 2, 3),
        (101, 1, [range(0, 101, 7), range(0, 101, 11)], 3),
        (4099, 1, [range(4099)], 2),  # 1 to 4 digits
        (2, 11, [range(1, 2048, 5)], 3),
        (3, 7, [range(0, 2187, 3), (0, 1, 2186)], 1),
        # one column: every coordinate set is a singleton
        (7, 1, [(3,), (0,), (6,)], 2),
        # the array's largest code is far below q - 1
        (4099, 1, [(0, 1)] * 3, 2),
    ],
    ids=["F11", "F101", "F4099", "F2^11", "F3^7", "one-column", "F4099-{0,1}"],
)


@format_cases
def test_matrix_format_matches_reference(monkeypatch, p, e, sets, d):
    F = make_field(p, e)
    mat = normalize_spec(F, [tuple(s) for s in sets], d).generator_matrix()
    want = ref_matrix_format(mat)
    assert mat.format() == want
    monkeypatch.setattr(poly, "BLOCK_ENTRIES", 2 * mat.cols)  # two rows per block
    assert mat.format() == want


@format_cases
def test_matrix_command_file_equals_reference(monkeypatch, tmp_path, capsys, p, e, sets, d):
    # the command writes each block of rows as it is evaluated, with no GeneratorMatrix
    F = make_field(p, e)
    want = ref_matrix_format(normalize_spec(F, [tuple(s) for s in sets], d).generator_matrix())
    spec = ",".join("{" + ",".join(str(x) for x in s) + "}" for s in sets)
    out = tmp_path / "m.mat"
    argv = ["matrix", "--q", str(F.q), "--sets", spec, "--d", str(d), "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == want.encode("ascii")
    cols = want.split("\n", 1)[0].split()[2]
    monkeypatch.setattr(poly, "BLOCK_ENTRIES", 2 * int(cols))  # two rows per block
    assert cli.main(argv) == 0
    assert out.read_bytes() == want.encode("ascii")
    capsys.readouterr()


@pytest.mark.parametrize("q", [2, 9, 11, 257])
def test_matrix_command_file_equals_pointwise_reference(monkeypatch, tmp_path, capsys, q):
    # The command gathers each block of rows straight into text.  Against one
    # str() per pointwise value: one- to three-digit codes, sets that hold 0, and
    # product tables taken by every coordinate after the first, by none, or by
    # all with blocks that cut the grevlex runs of the last exponent
    F = field_for_order(q)
    rng = random.Random(q)
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(2):
            sets = [rng.sample(range(q), rng.randint(1, min(q, 4))) for _ in range(n)]
            for s in sets[: rng.randint(1, n)]:
                s[0] = 0 if 0 not in s else s[0]
            code = CartesianCode(Grid(F, sets), 0)
            cases.append((sets, rng.randint(0, code.regularity + 1)))
    # up to 66 x 256, more rows than a block of the size of the largest table holds
    cases.append(([[0] + rng.sample(range(1, q), min(q - 1, 3)) for _ in range(4)], 4))
    out = tmp_path / "m.mat"
    cuts = 0
    for sets, d in cases:
        code = CartesianCode(Grid(F, sets), d)
        monos = standard_monomials(code.cards, d)
        want = ref_matrix_text(code.grid, monos).encode("ascii")
        fit = q * max(code.cards) * (min(d, max(code.cards) - 1) + 1)  # codes of the largest table
        step = max(1, fit // code.length)  # rows per block when BLOCK_ENTRIES = fit
        cuts += any(monos[s - 1][-1] == monos[s][-1] for s in range(step, len(monos), step))
        spec = ",".join("{" + ",".join(map(str, s)) + "}" for s in sets)
        argv = ["matrix", "--q", str(q), "--sets", spec, "--d", str(d), "--out", str(out)]
        for settings in ({}, {"BLOCK_ENTRIES": 1 << 40, "TABLE_READS": 0}, {"BLOCK_ENTRIES": 1},
                         {"BLOCK_ENTRIES": fit, "TABLE_READS": 0}):
            with monkeypatch.context() as m:
                for name, value in settings.items():
                    m.setattr(poly, name, value)
                assert cli.main(argv) == 0
            assert out.read_bytes() == want, (sets, d, settings)
    assert cuts
    capsys.readouterr()


def test_matrix_format_memory_is_bounded_by_output():
    # one str() per code, or the whole (rows, cols, width + 1) byte block at once, exceeds the bound
    F9 = make_field(3, 2)
    mat = normalize_spec(F9, [tuple(range(9))] * 4, 8).generator_matrix()
    tracemalloc.start()
    try:
        out = mat.format()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 6495401
    assert peak < 2.5 * len(out)


def test_matrix_build_above_table_limit():
    F = make_field(4099)
    code = normalize_spec(F, [(0, 1, 4098), (2, 3)], 1)
    mat = code.generator_matrix()
    # rows: 1, t2, t1 evaluated on the 6 points; 4099 is above the former table limit
    pts = list(code.grid.points())
    assert mat.array.tolist()[0] == [1] * 6
    assert mat.array.tolist()[1] == [pt[1] for pt in pts]
    assert mat.array.tolist()[2] == [pt[0] for pt in pts]
