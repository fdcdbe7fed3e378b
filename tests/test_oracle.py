"""Brute-force oracles: examples, budgets, verification reports."""

import itertools
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from cartcodes import (
    BudgetExceededError,
    CartesianCode,
    Grid,
    _kernels,
    dimension_formula,
    make_field,
    normalize_spec,
)
from cartcodes import code as code_module, oracle, poly
from cartcodes.oracle import (
    OracleBudget,
    _exponent_caps,
    _rank_profile,
    brute_min_distance,
    brute_rank_dimension,
    max_zero_search,
    verify_degrees,
    verify_params,
)
from helpers import full_rank_profile, inject_damaged_matrices, lazy_codes, random_grid, span_words


def _full_code(p, e, cards, d):
    F = make_field(p, e)
    return normalize_spec(F, [tuple(range(c)) for c in cards], d)


def test_brute_min_distance_examples():
    code = _full_code(2, 1, (2, 2), 1)
    # oracle of the oracle: hand enumeration of the seven nonzero words
    words = span_words(make_field(2), code.generator_matrix().array.tolist())
    hand = min(sum(1 for x in w if x) for w in words if any(w))
    assert hand == 2
    assert brute_min_distance(code) == 2

    assert brute_min_distance(_full_code(3, 1, (3,), 1)) == 2
    assert brute_min_distance(_full_code(2, 1, (2, 2), 2)) == 1  # d >= regularity


def test_brute_rank_examples():
    assert brute_rank_dimension(_full_code(2, 1, (2, 2), 1)) == 3
    assert brute_rank_dimension(_full_code(3, 1, (3, 3), 4)) == 9
    F181 = make_field(181)
    sets = [F181.subgroup_of_order(k).elements for k in (2, 5, 9)]
    assert brute_rank_dimension(normalize_spec(F181, sets, 2)) == 9


def test_max_zero_search_examples():
    assert max_zero_search(_full_code(2, 1, (2, 2), 1)) == 2
    # degree-1 polynomials on the full 3x3 grid vanish on at most one line
    assert max_zero_search(_full_code(3, 1, (3, 3), 1)) == 3
    assert max_zero_search(_full_code(2, 1, (2, 2, 2), 3)) == 7


def test_budget_exceeded_word_count():
    code = _full_code(3, 1, (3, 3), 2)  # dimension 6, 3^6 = 729 words
    brute_min_distance(code)  # a cached answer must not bypass the budget
    with pytest.raises(BudgetExceededError) as exc:
        brute_min_distance(code, OracleBudget(max_words=100))
    assert exc.value.required == 729
    assert exc.value.limit == 100


def test_rank_cap_is_the_matrix_entry_count():
    # no cap on the grid alone: {0,1}^17 has 2^17 points, and its all-monomials
    # matrix fits MAX_RANK_ENTRIES at d = 0 and d = 1 (1 and 18 rows of 2^17)
    grid = Grid(make_field(2), [(0, 1)] * 17)
    assert grid.size > 1 << 16
    report = verify_degrees(grid, [0, 1, 3], OracleBudget(max_words=2))
    rank = {c.d: c for c in report.checks if c.name == "rank_dimension"}
    for d in (0, 1):
        assert rank[d].status == "pass"
        assert rank[d].oracle == rank[d].formula == dimension_formula(grid.cards, d)
    # at d = 3 the matrix has C(20, 3) = 1140 rows of 2^17 entries, past the cap
    with pytest.raises(BudgetExceededError) as exc:
        brute_rank_dimension(CartesianCode(grid, 3))
    assert (exc.value.required, exc.value.limit) == (comb(20, 3) << 17, oracle.MAX_RANK_ENTRIES)
    assert rank[3].status == "skipped" and rank[3].detail == str(exc.value)


def test_rank_budget_checked_before_enumeration(monkeypatch):
    code = _full_code(3, 1, (3, 3), 2)  # C(4, 2) = 6 monomials on 9 points
    required = comb(code.grid.n + code.d, code.grid.n) * code.length

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(oracle, "monomial_rows", refuse)
    monkeypatch.setattr(oracle, "grevlex_exponents", refuse)
    monkeypatch.setattr(oracle, "_exponent_caps", refuse)
    monkeypatch.setattr(oracle, "MAX_RANK_ENTRIES", required - 1)
    with pytest.raises(BudgetExceededError) as exc:
        brute_rank_dimension(code)
    assert exc.value.required == required == 54
    assert exc.value.limit == required - 1
    by_name = {c.name: c for c in verify_params(code).checks}
    assert by_name["rank_dimension"].status == "skipped"
    assert by_name["rank_dimension"].detail == str(exc.value)


def test_scan_budget_checked_before_matrix(monkeypatch):
    code = _full_code(3, 1, (3, 3), 2)  # 6 footprint monomials, 3^6 = 729 words

    def refuse(*args, **kwargs):
        raise AssertionError("generator matrix evaluated before the budget check")

    counts = []

    def counted(cards, d):
        counts.append(d)
        return code_module.hilbert_function(cards, d)

    monkeypatch.setattr(code_module, "monomial_rows", refuse)
    monkeypatch.setattr(CartesianCode, "generator_matrix", refuse)
    monkeypatch.setattr(oracle, "hilbert_function", counted)
    budget = OracleBudget(max_words=100)
    with pytest.raises(BudgetExceededError) as exc:
        brute_min_distance(code, budget)
    assert (exc.value.required, exc.value.limit) == (729, 100)
    counts.clear()
    by_name = {c.name: c for c in verify_params(code, budget).checks}
    assert counts == [2]  # one admission shared by min_distance and max_zeros
    for name in ("min_distance", "max_zeros"):
        assert by_name[name].status == "skipped"
        assert by_name[name].detail == "enumeration needs 729 items, budget allows 100"
    assert by_name["rank_dimension"].status == by_name["extremal_weight"].status == "pass"


def test_verify_degrees_decides_each_rank_budget_once(monkeypatch):
    code = _full_code(3, 1, (3, 3), 0)
    calls = []
    real = oracle._rank_budget_error

    def counted(grid, d):
        calls.append(d)
        return real(grid, d)

    monkeypatch.setattr(oracle, "_rank_budget_error", counted)
    report = verify_degrees(code.grid, range(5))
    assert report.ok
    assert sorted(calls) == [0, 1, 2, 3, 4]


def test_verify_degrees_admits_scans_without_enumerating(monkeypatch):
    # every scan over budget: no footprint monomial is listed and no generator
    # matrix is built, and each skip still names q^K for the K rows it would scan
    F5 = make_field(5)
    grid = Grid(F5, [(1, 2, 4), range(5), (0, 1)])
    cards = grid.normalized()[0].cards
    degrees = range(code_module.regularity(cards) + 2)  # past the regularity too
    rows = {d: len(code_module.standard_monomials(cards, d)) for d in degrees}

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated for a scan over budget")

    monkeypatch.setattr(code_module, "standard_monomials", refuse)
    monkeypatch.setattr(CartesianCode, "generator_matrix", refuse)
    report = verify_degrees(grid, degrees, OracleBudget(max_words=1))
    assert report.ok
    scans = [c for c in report.checks if c.name in ("min_distance", "max_zeros")]
    assert len(scans) == 2 * len(degrees)
    for c in scans:
        assert c.status == "skipped"
        assert c.detail == f"enumeration needs {5 ** rows[c.d]} items, budget allows 1"


def _outcome(check):
    return check.name, check.formula, check.oracle, check.status, check.detail


def test_verify_degrees_skips_scans_as_verify_params_does():
    # over the word budget, every degree reports what verify_params reports alone
    F5 = make_field(5)
    grid = Grid(F5, [(1, 2, 4), range(5), (0, 1)])
    budget = OracleBudget(max_words=5**6)
    degrees = range(code_module.regularity(grid.normalized()[0].cards) + 1)
    report = verify_degrees(grid, degrees, budget)
    skipped = [c for c in report.checks if c.status == "skipped"]
    assert {c.name for c in skipped} == {"min_distance", "max_zeros"}
    assert all(c.detail.startswith("enumeration needs ") for c in skipped)
    for d in degrees:
        alone = verify_params(CartesianCode(grid, d), budget).checks
        got = [c for c in report.checks if c.d == d]
        assert [_outcome(c) for c in got] == [_outcome(c) for c in alone], d


def test_rank_profile_matches_each_degree():
    F9 = make_field(3, 2)
    code = normalize_spec(F9, [F9.subgroup_of_order(4).elements, range(5)], 0)
    top = code.regularity
    profile = _rank_profile(code.grid, top)
    assert len(profile) == top + 1
    for d in range(top + 1):
        one = normalize_spec(F9, code.grid.sets, d)
        assert profile[d] == brute_rank_dimension(one) == one.dimension


def test_exponent_caps_are_observed():
    # the first exponent whose powers repeat on A_i, minus one; never |A_i| - 1 by rule
    T5 = make_field(5).tables()
    cases = [((1, 2, 4), 3), ((0, 1), 1), (range(5), 4), ((0, 3), 4), ((1,), 0), ((0,), 1)]
    for s, cap in cases:
        assert _exponent_caps([s], T5, 8) == [cap], s
    F9 = make_field(3, 2)
    assert _exponent_caps([F9.subgroup_of_order(4).elements], F9.tables(), 8) == [3]
    # several coordinates at once, and the search stops at dmax
    sets = [(1, 2, 4), range(5), (0, 1)]
    assert _exponent_caps(sets, T5, 8) == [3, 4, 1]
    assert _exponent_caps(sets, T5, 2) == [2, 2, 1]
    assert _exponent_caps(sets, T5, 0) == [0, 0, 0]


def _random_set(F, rng):
    """A coordinate set of one of the shapes the paper's families use."""
    kind = rng.choice(["random", "with0", "subgroup", "coset", "subgroup+0", "single"])
    if kind == "single":
        return [rng.randrange(F.q)]
    if kind in ("random", "with0"):
        s = set(rng.sample(range(1, F.q), rng.randint(1, min(F.q - 1, 5))))
        return sorted(s | {0}) if kind == "with0" else sorted(s)
    orders = [k for k in range(1, F.q) if (F.q - 1) % k == 0 and k <= 8]
    H = F.subgroup_of_order(rng.choice(orders)).elements
    if kind == "coset":
        c = rng.randrange(1, F.q)
        return sorted({F.mul(c, h) for h in H})
    return sorted(set(H) | {0}) if kind == "subgroup+0" else list(H)


def test_rank_profile_matches_unreduced_random_grids():
    rng = random.Random(808)
    primes = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1)]
    for p, e in primes + [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]:
        F = make_field(p, e)
        for _ in range(6):
            grid = Grid(F, [_random_set(F, rng) for _ in range(rng.randint(1, 3))])
            reg = sum(c - 1 for c in grid.cards)
            for dmax in (0, reg, reg + rng.randint(1, 3)):
                assert _rank_profile(grid, dmax) == full_rank_profile(grid, dmax), grid.sets


@pytest.mark.parametrize("p,e,n", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_rank_profile_matches_unreduced_full_grids(p, e, n):
    F = make_field(p, e)
    grid = Grid(F, [F.elements()] * n)
    top = n * (F.q - 1)
    assert _rank_profile(grid, top) == full_rank_profile(grid, top)


@pytest.mark.parametrize("p,e,d", [(2, 8, 10), (257, 1, 5)], ids=["F256-uint8", "F257-uint16"])
def test_rank_profile_memory_is_bounded_by_the_narrow_matrix(p, e, d):
    # the all-monomials matrix of F_q^2 (66 x 65536 codes at d = 10 over F_256,
    # 21 x 66049 at d = 5 over F_257) is eliminated in its narrow codes in place:
    # an int64 copy of it alone is 8 (uint8) or 4 (uint16) times its bytes
    F = make_field(p, e)
    grid = Grid(F, [F.elements()] * 2)
    rows = comb(2 + d, 2)  # d < q, so no power repeats and every monomial is a row
    narrow = rows * grid.size * np.dtype(np.min_scalar_type(F.q - 1)).itemsize
    F.tables()
    tracemalloc.start()
    try:
        profile = _rank_profile(grid, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile == [comb(2 + k, 2) for k in range(d + 1)]
    assert peak < 2 * narrow


def _evaluated_panels(monkeypatch):
    """The list that records (rows, first A_1 element, A_1 elements, points) of every
    monomial_rows call that _rank_profile makes, as it happens."""
    calls, real = [], oracle.monomial_rows

    def counted(grid, exps):
        calls.append((len(exps), grid.sets[0][0], grid.cards[0], grid.size))
        return real(grid, exps)

    monkeypatch.setattr(oracle, "monomial_rows", counted)
    return calls


def _whole_matrix_profile(grid, dmax):
    """_rank_profile's elimination of the same rows, from the whole matrix at once."""
    T = grid.field.tables()
    exps = list(poly.grevlex_exponents(_exponent_caps(grid.sets, T, dmax), dmax))
    prefixes = list(itertools.accumulate(sum(sum(e) == d for e in exps) for d in range(dmax + 1)))
    arr = poly.monomial_rows(grid, exps)
    pivots = _kernels.rank_mod(lazy_codes(arr, T, arr.shape[1]), T)
    return np.searchsorted(pivots, prefixes).tolist(), len(exps)


# (set sizes, dmax, what the elimination reads, taken over F_7, F_8 and F_9 too): each
# matrix is wide, so it has several panels
LAZY_PROFILE_GRIDS = [
    ((300,), 20, "first panel", False),  # 21 x 300, a Vandermonde matrix
    ((20, 20), 3, "first panel", False),  # 10 x 400: the first panel has 13 elements of A_1
    ((7, 7, 7), 2, "first panel", True),  # 10 x 343
    ((7, 7, 7), 7, "every panel", False),  # 120 x 343, rank 117
    ((3, 300), 2, "wider unit", False),  # 6 x 900: a panel holds whole runs of 300 points
    ((3, 300), 3, "every panel", False),  # 10 x 900, rank 9, the same runs
    ((3,) * 6, 3, "every panel", True),  # 84 x 729, rank 78 on {0, 1, g}^6
]


@pytest.mark.parametrize("p,e", [(1021, 1), (2, 9), (3, 6), (7, 1), (2, 3), (3, 2)])
def test_lazy_rank_profile_matches_the_whole_matrix(monkeypatch, p, e):
    # the profile evaluated a column panel at a time equals the elimination of the
    # whole matrix, on prime, binary and odd extension fields, with row-by-row steps
    # (F_1021, F_2^9, F_3^6) and table steps (F_7, F_8, F_9).  Each panel is a run of
    # whole elements of A_1, evaluated once; a rank-deficient matrix evaluates every
    # panel, so each later one replays the recorded steps, and a wide one of full row
    # rank stops at its first when that holds its last pivot
    F = make_field(p, e)
    rng = random.Random(p + e)
    g = F.primitive_element()
    calls = _evaluated_panels(monkeypatch)
    for sizes, dmax, reads, small in LAZY_PROFILE_GRIDS:
        if F.q < 300 and not small:
            continue
        sets = [[0, 1, g] if s == 3 else sorted(rng.sample(range(F.q), s)) for s in sizes]
        grid = Grid(F, sets)
        want, rows = _whole_matrix_profile(grid, dmax)
        calls.clear()
        assert _rank_profile(grid, dmax) == want, (sizes, dmax)
        unit = grid.size // grid.cards[0]
        first = next(_kernels._panels(rows, grid.size, unit))[1]
        assert first < grid.size, (sizes, dmax)  # the matrix is wide
        assert all(r == rows for r, *_ in calls)
        starts = [grid.sets[0].index(a) for _, a, _, _ in calls]
        assert starts == list(itertools.accumulate([0] + [c for _, _, c, _ in calls[:-1]]))
        evaluated = sum(size for *_, size in calls)
        if reads == "first panel":
            assert want[-1] == rows and evaluated == first, (sizes, dmax)
        else:
            assert len(calls) > 1 and evaluated == grid.size, (sizes, dmax)
        if reads == "every panel":
            assert want[-1] < rows, (sizes, dmax)
        if reads == "wider unit":
            assert unit > _kernels.PANEL_COLS and calls[0][3] == unit


def test_wide_full_rank_profile_evaluates_its_first_panel_only(monkeypatch):
    # 91 x 4096 as in the benchmark's largefield rank check.  On 4096 points of F_4099
    # at d = 90 (a Vandermonde matrix) every row is a pivot by column 91, so only the
    # first panel of 256 columns is evaluated; on a 64 x 64 grid over F_2^11 at d = 12,
    # the shape of largefield's, the rows need 13 elements of A_1 (832 points), so the
    # elimination stops in the second panel, at 1024 columns
    calls = _evaluated_panels(monkeypatch)
    F = make_field(4099)
    assert _rank_profile(Grid(F, [range(4096)]), 90) == list(range(1, 92))
    assert sum(rows * size for rows, *_, size in calls) == 91 * 256
    calls.clear()
    F = make_field(2, 11)
    grid = Grid(F, [range(1, 65), range(64, 128)])
    assert _rank_profile(grid, 12)[-1] == 91
    assert sum(rows * size for rows, *_, size in calls) == 91 * 1024


def test_verify_degrees_skips_per_degree(monkeypatch):
    code = _full_code(3, 1, (3, 3), 0)
    monkeypatch.setattr(oracle, "MAX_RANK_ENTRIES", 60)  # degrees 0..2 fit, 3 and 4 do not
    report = verify_degrees(code.grid, range(5))
    rank = [c for c in report.checks if c.name == "rank_dimension"]
    assert [c.status for c in rank] == ["pass"] * 3 + ["skipped"] * 2
    for c in rank[3:]:
        alone = verify_params(normalize_spec(code.field, code.grid.sets, c.d)).checks[0]
        assert alone.name == "rank_dimension" and alone.detail == c.detail


def test_verify_params_all_pass():
    report = verify_params(_full_code(3, 1, (3, 3), 2))
    assert report.ok
    names = {c.name for c in report.checks}
    assert names == {"rank_dimension", "min_distance", "max_zeros", "extremal_weight"}
    assert all(c.status == "pass" for c in report.checks)


def test_verify_params_skips_on_budget():
    report = verify_params(_full_code(3, 1, (3, 3), 2), OracleBudget(max_words=10))
    by_name = {c.name: c for c in report.checks}
    assert by_name["min_distance"].status == "skipped"
    assert by_name["max_zeros"].status == "skipped"
    assert by_name["rank_dimension"].status == "pass"
    assert report.ok  # skipped is not a failure, but it is not a pass either
    assert not all(c.status == "pass" for c in report.checks)


def test_verify_params_negative_control(monkeypatch):
    inject_damaged_matrices(monkeypatch)
    report = verify_params(_full_code(2, 1, (2, 2), 1))
    assert not report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["rank_dimension"].status == "fail"
    assert "oracle 2 != formula 3" in by_name["rank_dimension"].detail


def test_verify_report_dict_shape():
    report = verify_params(_full_code(2, 1, (2, 2), 1))
    d = report.to_dict()
    assert d["q"] == 2 and d["cards"] == [2, 2] and d["ok"] is True
    assert all(
        set(c) == {"name", "d", "formula", "oracle", "status", "elapsed", "detail"}
        for c in d["checks"]
    )


def test_oracles_match_formulas_random_grids():
    rng = random.Random(99)
    for q, e in [(2, 1), (3, 1), (5, 1), (2, 2)]:
        F = make_field(q, e)
        for _ in range(3):
            n = rng.randint(1, 2)
            cards = sorted(rng.randint(2, min(F.q, 4)) for _ in range(n))
            grid = random_grid(F, cards, rng)
            for d in range(0, sum(c - 1 for c in cards) + 1):
                code = normalize_spec(F, grid.sets, d)
                if F.q**code.dimension > 1 << 16:
                    continue
                assert brute_min_distance(code) == code.min_distance
                assert brute_rank_dimension(code) == code.dimension
                assert max_zero_search(code) == code.length - code.min_distance


def test_methods_agree():
    # the oracle's scan against the naive re-encode of the same generator matrix
    code = _full_code(3, 1, (2, 3), 2)
    naive = _kernels.scan_min_weight_naive(code.generator_matrix().array, code.field.tables())
    assert brute_min_distance(code) == naive == code.min_distance
