"""Brute-force ground truth for code parameters on desk-scale instances.

Every oracle enumerates exhaustively and is independent of the closed-form
parameter formulas: no formula value enters an enumeration, and every scan
runs to its end.  Each enumeration is admitted once, by arithmetic on sizes,
before any matrix is evaluated, against one cap each: a scan's q^K words
against OracleBudget.max_words, the rank oracle's matrix entries against
MAX_RANK_ENTRIES.  An overrun raises (or is reported as skipped by
verify_params) and never counts as a pass.  The scan's size q^K takes K
from hilbert_function, which counts the exponent vectors with a_i <= c_i - 1
and |a| <= d, the rows of the generator matrix; it decides only whether the
scan runs, and the scan reads the real matrix.

The rank oracle is a prefix-rank profile: the monomials of degree <= d are
the first rows of the grevlex-ordered all-monomials matrix of any higher
degree, so one swap-free elimination of the top-degree matrix gives
rank(C_d) for every d at once (_rank_profile).  Only rows observed to repeat
a lower-degree row are left out: the powers of each t_i are evaluated on A_i
until they repeat, never reduced by the footprint or any formula.  The
matrix is evaluated a column panel at a time, a run of whole elements of
A_1, as the elimination reaches it, so a wide matrix of full row rank is
evaluated only up to the panel of its last pivot.  verify_degrees uses the
profile to check a whole chain C_0, C_1, ... with one elimination per grid.
"""

from __future__ import annotations

import itertools
import math
import time
import weakref
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import _kernels
from .code import (
    CartesianCode,
    dimension_formula,
    extremal_codeword,
    hilbert_function,
    min_distance_formula,
    zero_bound,
)
from .errors import BudgetExceededError
from .grid import Grid
from .poly import grevlex_exponents, monomial_rows


@dataclass(frozen=True)
class OracleBudget:
    """The cap on the words a minimum-weight scan enumerates, decided by
    arithmetic before any matrix is evaluated.  The rank oracle has its own
    fixed cap, MAX_RANK_ENTRIES."""

    max_words: int = 1 << 24

    def __post_init__(self):
        if self.max_words < 1:
            raise ValueError("max_words must be positive")


DEFAULT_BUDGET = OracleBudget()

# Entry-count ceiling for the rank oracle's all-monomials matrix, its one cap:
# the rows are binomial in n and d and the columns are the grid's points, so
# the matrix can outgrow memory and time however few codewords a scan would
# take.  It counts the whole unreduced matrix, C(n + d, n) rows, although the
# elimination evaluates it a column panel at a time and may stop before the
# last panel.  So it bounds the work of an elimination that reads every column,
# and the memory of its largest panel, at most the whole matrix in narrow codes
# (64 MiB for q <= 256 and 128 MiB for q <= 65536 at the cap).
MAX_RANK_ENTRIES = 1 << 26


# Complete scans, one per live code object.  Keyed weakly so the answer goes
# away with the code.
_FULL_SCANS: weakref.WeakKeyDictionary[CartesianCode, int] = weakref.WeakKeyDictionary()


def _scan_budget_error(code: CartesianCode, budget: OracleBudget) -> BudgetExceededError | None:
    """The overrun of the q^K-word scan, if any, by arithmetic alone.

    K is the number of footprint monomials, the exponent vectors with
    a_i <= c_i - 1 and |a| <= d: the coefficient sum up to t^d of
    prod_i (1 + t + ... + t^(c_i - 1)), which hilbert_function takes.  A
    wrong K could only run or skip the scan, never change its answer.
    """
    words = code.field.q ** hilbert_function(code.cards, code.d)
    if words > budget.max_words:
        return BudgetExceededError(required=words, limit=budget.max_words)
    return None


def _min_weight(code: CartesianCode, overrun: BudgetExceededError | None) -> int:
    if overrun:
        raise overrun
    if code not in _FULL_SCANS:
        G = code.generator_matrix().array
        _FULL_SCANS[code] = _kernels.scan_min_weight(G, code.field.tables())
    return _FULL_SCANS[code]


def brute_min_distance(code: CartesianCode, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum weight over every nonzero message, by a complete exhaustive scan.

    Scans are cached per code object, after the budget check, so an
    over-budget call raises even when an answer is cached.
    """
    return _min_weight(code, _scan_budget_error(code, budget))


def max_zero_search(code: CartesianCode, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Maximum number of grid zeros over nonzero normal-form polynomials of degree <= d.

    Messages over the footprint basis are exactly those polynomials, and a
    word's zero count is length - weight, so the full scan behind
    brute_min_distance answers this too.
    """
    return code.length - brute_min_distance(code, budget)


def brute_rank_dimension(code: CartesianCode, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Rank over F_q of the evaluations of ALL monomials of degree <= d.

    Unlike the generator matrix this is not taken over footprint monomials:
    the only rows dropped are those observed to repeat a lower-degree row on
    the grid, so equality with dimension_formula is a real check.  It is the
    one-degree case of _rank_profile.  Its one cap is MAX_RANK_ENTRIES;
    `budget` caps only the scans, and is taken so every oracle has one call
    shape.
    """
    err = _rank_budget_error(code.grid, code.d)
    if err:
        raise err
    return _rank_profile(code.grid, code.d)[code.d]


def _rank_profile(grid: Grid, dmax: int) -> list[int]:
    """ranks[d] = rank over F_q of all monomials of degree <= d on the grid, d = 0..dmax.

    In ascending grevlex order the monomials of degree <= d are the first
    rows of the all-monomials matrix of degree dmax, so one elimination of
    that matrix gives every ranks[d] as a prefix rank: the number of its
    pivot rows (_kernels.rank_mod) below the count of monomials of degree
    <= d.  Rows observed to repeat a lower-degree row are left out
    (_exponent_caps): each stays in the span of its prefix, so no prefix
    rank changes.  The caller has admitted dmax.  The matrix is never built
    whole: rank_mod takes it as a LazyMatrix and evaluates one column panel
    at a time, by monomial_rows on the sub-grid A_1[a:b] x A_2 x ... x A_n,
    whose points are the columns [a * unit, b * unit) in grid.points()
    order, for unit = |A_2| ... |A_n|.  So the elimination holds one panel,
    in the code dtype of monomial_rows (one byte per entry up to q = 256,
    two up to 65536), next to its recorded steps and temporaries of a few
    CHUNK_ENTRIES, and a wide matrix of full row rank is evaluated only up
    to the panel of its last pivot.
    """
    T = grid.field.tables()
    exps = list(grevlex_exponents(_exponent_caps(grid.sets, T, dmax), dmax))
    unit = grid.size // grid.cards[0]

    def evaluate(rows, lo, hi):  # the grid, or its points A_1[lo/unit : hi/unit] x A_2 x ... x A_n
        sets = (grid.sets[0][lo // unit : hi // unit], *grid.sets[1:])
        return monomial_rows(grid if hi - lo == grid.size else Grid(grid.field, sets), exps[rows])

    counts = [0] * (dmax + 1)
    for e in exps:
        counts[sum(e)] += 1
    pivots = _kernels.rank_mod(_kernels.LazyMatrix((len(exps), grid.size), unit, evaluate), T)
    return np.searchsorted(pivots, list(itertools.accumulate(counts))).tolist()


def _exponent_caps(sets, T, dmax: int) -> list[int]:
    """caps[i]: t^0, ..., t^caps[i] are the powers, up to dmax, with new values on sets[i].

    Found by evaluating t^0, t^1, ... on the set until a value vector comes
    back, never from the set's size.  If t^m takes the values of t^k with
    k < m, then so do t^(m+j) and t^(k+j) for every j, so each monomial with
    a_i >= m agrees on the grid with one of strictly lower degree and a_i < m.
    """
    caps = []
    for s in sets:
        x = np.array(s, dtype=T.code)
        power, seen = np.ones_like(x), set()
        key = power.tobytes()
        while len(seen) <= dmax and key not in seen:
            seen.add(key)
            power = T.mul(power, x)
            key = power.tobytes()
        caps.append(len(seen) - 1)
    return caps


def _rank_budget_error(grid: Grid, d: int) -> BudgetExceededError | None:
    """The overrun of the degree-d all-monomials matrix, if any, by arithmetic alone."""
    entries = math.comb(grid.n + d, grid.n) * grid.size
    if entries > MAX_RANK_ENTRIES:
        return BudgetExceededError(required=entries, limit=MAX_RANK_ENTRIES)
    return None


@dataclass
class CheckResult:
    name: str
    d: int
    formula: int | None
    oracle: int | None
    status: str  # "pass" | "fail" | "skipped"
    elapsed: float
    detail: str | None = None


@dataclass
class VerifyReport:
    q: int
    cards: tuple[int, ...]
    checks: list[CheckResult] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        # vars(): the dicts asdict gives, without its deep copy (1-3 ms per 80 checks)
        return {**vars(self), "cards": list(self.cards),
                "checks": [dict(vars(c)) for c in self.checks], "ok": self.ok}


def verify_params(
    code: CartesianCode, budget: OracleBudget = DEFAULT_BUDGET, *, rank_of=None
) -> VerifyReport:
    """Compare closed-form parameters against the brute-force oracles.

    Budget overruns mark a check as skipped, never passed; a failure's detail
    carries the witnessing values.  `rank_of(d)`, when given, answers the
    rank check in place of brute_rank_dimension (verify_degrees passes one
    that reads a rank profile shared by every degree of the grid).  The scan
    is admitted once and answers both min_distance and max_zeros.
    """
    report = VerifyReport(q=code.field.q, cards=code.cards)
    cards, d = code.cards, code.d
    dim = dimension_formula(cards, d)
    delta = min_distance_formula(cards, d)
    length = code.length
    overrun = _scan_budget_error(code, budget)  # one admission, one scan for both checks

    def run(name, formula_value, fn):
        t0 = time.perf_counter()
        try:
            got = fn()
        except BudgetExceededError as exc:
            report.checks.append(
                CheckResult(name, d, formula_value, None, "skipped",
                            time.perf_counter() - t0, str(exc))
            )
            return
        elapsed = time.perf_counter() - t0
        if got == formula_value:
            report.checks.append(CheckResult(name, d, formula_value, got, "pass", elapsed))
        else:
            report.checks.append(
                CheckResult(name, d, formula_value, got, "fail", elapsed,
                            f"oracle {got} != formula {formula_value}")
            )

    run("rank_dimension", dim,
        lambda: brute_rank_dimension(code) if rank_of is None else rank_of(d))
    run("min_distance", delta, lambda: _min_weight(code, overrun))
    interior = 1 <= d <= code.regularity - 1
    # the paper's sharp zero bound where it is defined; the boundary degrees
    # (d = 0, d >= regularity) keep length - delta
    zeros = zero_bound(cards, d) if interior else length - delta
    run("max_zeros", zeros, lambda: length - _min_weight(code, overrun))
    if interior:
        run(
            "extremal_weight",
            delta,
            lambda: int(np.count_nonzero(extremal_codeword(code)[1])),
        )
    return report


def verify_degrees(grid: Grid, degrees, budget: OracleBudget = DEFAULT_BUDGET) -> VerifyReport:
    """verify_params at each degree in turn, with one rank elimination for the grid.

    Each degree's scan is admitted by verify_params, by arithmetic on its
    size, so no monomial is listed and no matrix is built for a scan over
    budget.  Each degree's rank budget is decided once, up front.  The first
    rank check that is not skipped builds the profile at the largest degree
    within budget, so its elapsed carries the whole elimination and the later
    ones' only a lookup; a degree over budget is skipped with the same
    BudgetExceededError that verify_params gives it alone.  The report lists
    the checks of every degree in order, with the normalized grid's cards.
    """
    codes = [CartesianCode(grid, d) for d in degrees]
    norm = grid.normalized()[0]
    errors = {d: _rank_budget_error(norm, d) for d in degrees}
    ranks: list[int] = []

    def rank_of(d):
        if errors[d]:
            raise errors[d]
        if not ranks:
            ranks.extend(_rank_profile(norm, max(e for e, err in errors.items() if not err)))
        return ranks[d]

    report = VerifyReport(q=grid.field.q, cards=norm.cards)
    for code in codes:
        report.checks.extend(verify_params(code, budget, rank_of=rank_of).checks)
    return report
