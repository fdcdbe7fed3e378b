"""Fixed instance lists of the three workloads, made from a seed.

The seed only picks set elements (sweep grids, the large-field extremal and
rank grids); the amount of work never depends on it.  The verify grids are
whole fields, unit groups and subgroups, so the seed does not enter them.

- sweep: the acceptance oracle sweep body (q in 2..5, n <= 3, every shape
  and every d up to the regularity, cases with q^K <= 2^22), with exactly one
  grid per shape so that the case count and the sum of q^K are fixed.
  Many short-word scans over prime fields and F4: the scan layer dominates.
- verify: `cartcodes verify --dall` on fixed grids at the default budget.
  Wide words, few rows, F8/F9 tables; rank, the oracle's monomial
  enumeration and the scan share the time.
- largefield: construct, table and matrix commands plus extremal codewords
  over F_4099 and the rank oracle over F_2^11.  No enumeration at all, so
  scan changes must not move it; scalar field arithmetic above the table
  limit and the F_2^11 table build dominate.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

SWEEP_WORD_CAP = 1 << 22

VERIFY_GRIDS = [
    ("2", "fullx7"),
    ("3", "fullx5"),
    ("8", "unitsx3"),
    ("9", "subgroup:4,full,full"),
    ("8", "fullx2"),
    ("9", "fullx2"),
    ("4", "fullx3"),
]

# Outputs of these commands are compared byte for byte with expected.json.
LARGEFIELD_COMMANDS = [
    ["construct", "--degrees", "2,5,9"],
    ["construct", "--degrees", "64,81,25"],
    ["construct", "--degrees", "2,3,5,7,11,13"],
    ["table", "--q", "9", "--sets", "fullx4", "--dmax", "32"],
    ["table", "--torus", "2,5,9", "--dmax", "13"],
    ["matrix", "--q", "9", "--sets", "fullx4", "--d", "8", "--out", "f9.mat"],
    ["matrix", "--q", "4099", "--sets", "full", "--d", "14", "--out", "f4099.mat"],
    ["matrix", "--q", "2048", "--sets", "units", "--d", "16", "--out", "f2048.mat"],
    ["matrix", "--q", "2187", "--sets", "full", "--d", "2", "--out", "f2187.mat"],
]

# (p, e, set size per coordinate, n, d): grids whose elements the seed picks.
LARGEFIELD_EXTREMAL = (4099, 1, 64, 2, 20)
LARGEFIELD_RANK = (2, 11, 64, 2, 12)


def sweep_cases(seed: int, dimension_formula):
    """(q, sets, d) for every sweep case; `dimension_formula` filters by q^K."""
    rng = random.Random(seed)
    cases = []
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            for shape in combinations_with_replacement(range(2, min(q, 5) + 1), n):
                sets = tuple(tuple(sorted(rng.sample(range(q), c))) for c in shape)
                for d in range(1, sum(c - 1 for c in shape) + 1):
                    if q ** dimension_formula(shape, d) <= SWEEP_WORD_CAP:
                        cases.append((q, sets, d))
    return cases


def seeded_sets(seed: int, spec, salt: int):
    p, e, size, n, _ = spec
    rng = random.Random(seed * 1000003 + salt)
    return [sorted(rng.sample(range(p**e), size)) for _ in range(n)]


def grid_key(q: str, sets: str) -> str:
    return f"q={q} sets={sets}"
