"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import random
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

import cartcodes as cc
from cartcodes import cli
from cartcodes.oracle import (
    OracleBudget,
    brute_min_distance,
    brute_rank_dimension,
    max_zero_search,
)
from helpers import random_poly

SWEEP_SEED = 20240917
SWEEP_WORD_CAP = 1 << 22


def _finish(num, slug, mismatches, detail=""):
    status = "FAIL" if mismatches else "PASS"
    line = f"ACCEPTANCE {num} {slug}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not mismatches, f"{len(mismatches)} mismatches; first: {mismatches[:3]}"


# -- criterion 1: full F_9^4 table ------------------------------------------------

F9_TABLE = {
    1: (5, 5832),
    2: (15, 5103),
    3: (35, 4374),
    4: (70, 3645),
    5: (126, 2916),
    10: (981, 567),
    16: (3525, 81),
    20: (5256, 45),
    28: (6526, 5),
    31: (6560, 2),
    32: (6561, 1),
}


def test_criterion_1_f9_table():
    t0 = time.perf_counter()
    cards = (9, 9, 9, 9)
    mismatches = []
    for d, (dim, delta) in F9_TABLE.items():
        pr = cc.code_params(cards, d)
        if (pr.length, pr.dimension, pr.min_distance) != (6561, dim, delta):
            mismatches.append((d, pr))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _finish(1, "f9-table", mismatches, f"{elapsed:.3f} s")


# -- criterion 2: q = 181 torus table --------------------------------------------

TORUS_DIMS = [4, 9, 16, 25, 35, 45, 55, 65, 74, 81, 86, 89, 90]
TORUS_DELTAS = [45, 36, 27, 18, 9, 8, 7, 6, 5, 4, 3, 2, 1]


def test_criterion_2_torus_table(capsys):
    t0 = time.perf_counter()
    rc = cli.main(["construct", "--degrees", "2,5,9"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    report = json.loads(out)
    mismatches = []
    if rc != 0:
        mismatches.append(("exit", rc))
    if report["q"] != 181 or report["v"] != [90, 36, 20]:
        mismatches.append(("field", report["q"], report["v"]))
    if [r["dimension"] for r in report["rows"]] != TORUS_DIMS:
        mismatches.append(("dims", report["rows"]))
    if [r["min_distance"] for r in report["rows"]] != TORUS_DELTAS:
        mismatches.append(("deltas", report["rows"]))
    if any(r["length"] != 90 for r in report["rows"]):
        mismatches.append(("length", report["rows"]))
    assert elapsed < 1.0
    with capsys.disabled():
        _finish(2, "torus-construct-table", mismatches, f"{elapsed:.3f} s")


# -- criterion 3: closed forms on the binary grid ----------------------------------


def test_criterion_3_binary_closed_forms():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 11):
        cards = (2,) * n
        for d in range(1, n + 1):
            pr = cc.code_params(cards, d)
            want = (2**n, sum(math.comb(n, i) for i in range(d + 1)), 2 ** (n - d))
            if (pr.length, pr.dimension, pr.min_distance) != want:
                mismatches.append((n, d, pr, want))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _finish(3, "binary-grid-closed-forms", mismatches, f"{elapsed:.3f} s")


# -- criteria 4, 6, 7: the brute-force oracle sweep ----------------------------------


@pytest.fixture(scope="module")
def oracle_sweep():
    rng = random.Random(SWEEP_SEED)
    budget = OracleBudget(max_words=SWEEP_WORD_CAP)
    t0 = time.perf_counter()
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = cc.field_for_order(q)
        for n in (1, 2, 3):
            for shape in combinations_with_replacement(range(2, min(q, 5) + 1), n):
                grids = []
                for _ in range(3):
                    sets = tuple(tuple(sorted(rng.sample(range(q), c))) for c in shape)
                    if sets not in grids:
                        grids.append(sets)
                reg = sum(c - 1 for c in shape)
                for sets in grids:
                    for d in range(1, reg + 1):
                        code = cc.normalize_spec(field, sets, d)
                        if q**code.dimension > SWEEP_WORD_CAP:
                            continue
                        entry = {
                            "q": q,
                            "sets": sets,
                            "d": d,
                            "length": code.length,
                            "dim": code.dimension,
                            "delta": code.min_distance,
                            "brute_delta": brute_min_distance(code, budget),
                            "brute_dim": brute_rank_dimension(code, budget),
                            "max_zeros": max_zero_search(code, budget),
                        }
                        if d <= reg - 1:
                            poly, vec = code.extremal_codeword()
                            entry["extremal_weight"] = int(np.count_nonzero(vec))
                            entry["extremal_degree"] = poly.total_degree
                        cases.append(entry)
    elapsed = time.perf_counter() - t0
    return {"cases": cases, "elapsed": elapsed}


def test_criterion_4_oracle_equivalence(oracle_sweep):
    cases, elapsed = oracle_sweep["cases"], oracle_sweep["elapsed"]
    mismatches = [
        c for c in cases if c["brute_delta"] != c["delta"] or c["brute_dim"] != c["dim"]
    ]
    assert elapsed < 600.0
    _finish(4, "oracle-equivalence-sweep", mismatches,
            f"{len(cases)} cases, {elapsed:.1f} s")


def test_criterion_6_extremal_codewords(oracle_sweep):
    # extremal words exist for 1 <= d <= regularity - 1
    cases = [c for c in oracle_sweep["cases"] if "extremal_weight" in c]
    mismatches = [
        c
        for c in cases
        if c["extremal_weight"] != c["delta"] or c["extremal_degree"] != c["d"]
    ]
    _finish(6, "extremal-codewords", mismatches, f"{len(cases)} cases")


def test_criterion_7_zero_bound_tightness(oracle_sweep):
    cases = oracle_sweep["cases"]
    mismatches = [c for c in cases if c["max_zeros"] != c["length"] - c["delta"]]
    _finish(7, "zero-bound-tightness", mismatches, f"{len(cases)} cases")


# -- criterion 5: Hilbert function cross-check ----------------------------------------


def test_criterion_5_hilbert_cross_check():
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 5):
        for cards in combinations_with_replacement(range(2, 10), n):
            for d in range(0, cc.regularity(cards) + 3):
                if cc.hilbert_function(cards, d) != cc.dimension_formula(cards, d):
                    mismatches.append((cards, d))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _finish(5, "hilbert-cross-check", mismatches, f"{elapsed:.2f} s")


# -- criterion 8: no reduced polynomial vanishes on its grid ----------------------------

NULLSTELLENSATZ_GRIDS = [
    (2, 1, (2, 2)),
    (3, 1, (2, 3)),
    (2, 2, (3, 4)),
    (5, 1, (4, 5)),
]


def test_criterion_8_nullstellensatz_suite():
    rng = random.Random(SWEEP_SEED + 1)
    violations = []
    for p, e, cards in NULLSTELLENSATZ_GRIDS:
        field = cc.make_field(p, e)
        sets = [sorted(rng.sample(range(field.q), c)) for c in cards]
        grid = cc.Grid(field, sets)
        for _ in range(1000):
            f = random_poly(field, grid.n, sum(cards), rng, caps=grid.cards, nonzero=True)
            zeros = cc.zero_count(f, grid)
            if zeros >= grid.size:
                violations.append(("vanishes", cards, f.format()))
            if zeros > cc.loose_zero_bound(grid.cards, f.total_degree):
                violations.append(("loose-bound", cards, f.format()))
    _finish(8, "nullstellensatz-suite", violations,
            f"{1000 * len(NULLSTELLENSATZ_GRIDS)} polynomials")


# -- criterion 9: named-family specializations ----------------------------------------


def test_criterion_9_specializations():
    mismatches = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in (1, 2, 3):
            for d in range(1, n * (q - 1) + 3):
                if cc.reed_muller_params(q, n, d) != cc.code_params((q,) * n, d):
                    mismatches.append(("affine", q, n, d))
            if q == 2:
                continue
            for d in range(1, n * (q - 2) + 3):
                if cc.projective_torus_params(q, n, d) != cc.code_params((q - 1,) * n, d):
                    mismatches.append(("torus", q, n, d))
    _finish(9, "family-specializations", mismatches)
