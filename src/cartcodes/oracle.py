"""Brute-force ground truth for code parameters on desk-scale instances.

Every oracle enumerates exhaustively and is independent of the closed-form
parameter formulas; budget overruns raise (or are reported as skipped by
verify_params) and never count as a pass.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field as dataclass_field
from itertools import product

import numpy as np

from . import _kernels
from .code import (
    CartesianCode,
    dimension_formula,
    extremal_codeword,
    min_distance_formula,
)
from .errors import BudgetExceededError
from .poly import grevlex_key, monomial_rows


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps checked before any enumeration starts."""

    max_words: int = 1 << 24
    max_points: int = 1 << 16

    def __post_init__(self):
        if self.max_words < 1 or self.max_points < 1:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = OracleBudget()

# Entry-count ceiling for the rank oracle's monomial matrix.  max_words caps
# enumerated codewords and max_points the grid, but the all-monomials matrix
# can outgrow memory on its own (row count is binomial in n and d).
MAX_RANK_ENTRIES = 1 << 26


# Complete default-method scans, one per live code object.  Keyed weakly so
# the answer goes away with the code.
_FULL_SCANS: weakref.WeakKeyDictionary[CartesianCode, int] = weakref.WeakKeyDictionary()


def _min_weight(code: CartesianCode, budget, *, target=None, method="auto") -> int:
    mat = code.generator_matrix()
    total = code.field.q ** mat.rows
    if total > budget.max_words:
        raise BudgetExceededError(required=total, limit=budget.max_words)
    shared = target is None and method == "auto"
    if shared and code in _FULL_SCANS:
        return _FULL_SCANS[code]
    w = _kernels.scan_min_weight(mat.array, code.field.tables(), target=target, method=method)
    if shared:
        _FULL_SCANS[code] = w
    return w


def brute_min_distance(
    code: CartesianCode,
    budget: OracleBudget | None = None,
    *,
    confirm_only: bool = False,
    method: str = "auto",
) -> int:
    """Minimum weight over every nonzero message, by exhaustive encoding.

    confirm_only allows the scan to stop once the running minimum reaches the
    closed-form distance; the default is a complete, formula-independent pass.
    Complete default-method scans are cached per code object, after the
    budget check, so an over-budget call raises even when an answer is cached.
    """
    budget = budget or DEFAULT_BUDGET
    target = min_distance_formula(code.cards, code.d) if confirm_only else None
    return _min_weight(code, budget, target=target, method=method)


def max_zero_search(
    code: CartesianCode,
    budget: OracleBudget | None = None,
    *,
    method: str = "auto",
) -> int:
    """Maximum number of grid zeros over nonzero normal-form polynomials of degree <= d.

    Messages over the footprint basis are exactly those polynomials, and a
    word's zero count is length - weight, so the full scan behind
    brute_min_distance answers this too.
    """
    return code.length - brute_min_distance(code, budget, method=method)


def brute_rank_dimension(
    code: CartesianCode,
    budget: OracleBudget | None = None,
    *,
    method: str = "auto",
) -> int:
    """Rank over F_q of the evaluations of ALL monomials of degree <= d.

    Unlike the generator matrix this does not restrict to footprint
    monomials, so equality with dimension_formula is a real check.
    """
    budget = budget or DEFAULT_BUDGET
    arr = _full_monomial_matrix(code, budget)
    return _kernels.rank_mod(arr, code.field.tables(), method=method)


def _full_monomial_matrix(code: CartesianCode, budget) -> np.ndarray:
    grid = code.grid
    if grid.size > budget.max_points:
        raise BudgetExceededError(required=grid.size, limit=budget.max_points)
    exps = [
        e
        for e in product(*(range(code.d + 1) for _ in range(grid.n)))
        if sum(e) <= code.d
    ]
    if len(exps) * grid.size > MAX_RANK_ENTRIES:
        raise BudgetExceededError(required=len(exps) * grid.size, limit=MAX_RANK_ENTRIES)
    exps.sort(key=grevlex_key)
    return monomial_rows(grid, exps)


@dataclass
class CheckResult:
    name: str
    d: int
    formula: int | None
    oracle: int | None
    status: str  # "pass" | "fail" | "skipped"
    elapsed: float
    detail: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "d": self.d,
            "formula": self.formula,
            "oracle": self.oracle,
            "status": self.status,
            "elapsed": self.elapsed,
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    q: int
    cards: tuple[int, ...]
    checks: list[CheckResult] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "cards": list(self.cards),
            "checks": [c.to_dict() for c in self.checks],
            "ok": self.ok,
        }


def verify_params(
    code: CartesianCode,
    budget: OracleBudget | None = None,
    *,
    method: str = "auto",
) -> VerifyReport:
    """Compare closed-form parameters against the brute-force oracles.

    Budget overruns mark a check as skipped, never passed; a failure's detail
    carries the witnessing values.
    """
    budget = budget or DEFAULT_BUDGET
    report = VerifyReport(q=code.field.q, cards=code.cards)
    cards, d = code.cards, code.d
    dim = dimension_formula(cards, d)
    delta = min_distance_formula(cards, d)
    length = code.length

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

    def rank_oracle():
        arr = _full_monomial_matrix(code, budget)
        return _kernels.rank_mod(arr, code.field.tables(), method=method)

    def min_weight_oracle():
        # the second call is answered from _FULL_SCANS unless method is set
        return _min_weight(code, budget, method=method)

    run("rank_dimension", dim, rank_oracle)
    run("min_distance", delta, min_weight_oracle)
    run("max_zeros", length - delta, lambda: length - min_weight_oracle())
    if 1 <= d <= code.regularity - 1:
        run(
            "extremal_weight",
            delta,
            lambda: int(np.count_nonzero(extremal_codeword(code)[1])),
        )
    return report
