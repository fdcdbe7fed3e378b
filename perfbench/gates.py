"""Output gates: every operation of a pass is checked, and failures are counted.

A gate takes the raw result of one worker pass and returns a Verdict.  What
counts as a failed operation:

- sweep: a case whose oracle results differ from the closed forms, and one
  extra failed operation when the case count or the sum of q^K differs from
  expected.json (the work of a pass is fixed);
- verify: a grid whose command exits non-zero, reports ok false, does not
  validate against reports.schema.json, or whose pass/skip counts differ from
  expected.json, and each expected grid that did not run;
- largefield: a command whose stdout, matrix file or legend differs in
  sha256 from expected.json, an extremal codeword whose weight is not the
  formula distance, a rank that is not the dimension, and each expected
  command that did not run.

`expected_from` derives expected.json from passes of the current program.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field


@dataclass
class Verdict:
    attempted: int = 0
    failures: list = field(default_factory=list)
    checks: dict = field(default_factory=lambda: {"pass": 0, "skipped": 0, "fail": 0})
    cases: int = 0
    words: int = 0  # logical q^K over completed full minimum-weight checks

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, name, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))

    def check(self, ok: bool):
        self.checks["pass" if ok else "fail"] += 1
        return ok


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def gate_sweep(result, expected) -> Verdict:
    v = Verdict()
    for c in result["ops"]:
        bad = []
        if not v.check(c["brute_delta"] == c["delta"]):
            bad.append(f"min distance {c['brute_delta']} != {c['delta']}")
        if not v.check(c["brute_dim"] == c["dim"]):
            bad.append(f"rank {c['brute_dim']} != {c['dim']}")
        if not v.check(c["max_zeros"] == c["length"] - c["delta"]):
            bad.append(f"max zeros {c['max_zeros']} != {c['length'] - c['delta']}")
        if "extremal_weight" in c and not v.check(
            c["extremal_weight"] == c["delta"] and c["extremal_degree"] == c["d"]
        ):
            bad.append(f"extremal weight/degree {c['extremal_weight']}/{c['extremal_degree']}")
        v.op(f"q={c['q']} sets={c['sets']} d={c['d']}", bad)
        v.cases += 1
        v.words += c["q"] ** c["dim"]
    work = {"cases": v.cases, "words": v.words}
    v.op("work", [] if work == expected["work"] else [f"{work} != {expected['work']}"])
    return v


def verify_counts(report) -> dict:
    counts = {"pass": 0, "skipped": 0, "fail": 0}
    for c in report["checks"]:
        counts[c["status"]] += 1
    return counts


def _missing(v: Verdict, ran, wanted):
    for key in sorted(set(wanted) - set(ran)):
        v.op(key, ["not run"])


def gate_verify(result, expected, validate) -> Verdict:
    """`validate(report)` raises ValueError when the report breaks the verify_report schema."""
    v = Verdict()
    _missing(v, [op["grid"] for op in result["ops"]], expected["grids"])
    for op in result["ops"]:
        bad = []
        if op["rc"] != 0:
            bad.append(f"exit {op['rc']}")
        try:
            report = json.loads(op["stdout"])
            validate(report)
        except ValueError as exc:
            v.op(op["grid"], bad + [f"bad report: {str(exc)[:200]}"])
            continue
        if report["ok"] is not True:
            bad.append("ok is false")
        counts = verify_counts(report)
        for status, n in counts.items():
            v.checks[status] += n
        want = expected["grids"].get(op["grid"])
        if want is None or counts != want:
            bad.append(f"check counts {counts} != {want}")
        dims = {c["d"]: c["formula"] for c in report["checks"] if c["name"] == "rank_dimension"}
        for c in report["checks"]:
            if c["name"] == "min_distance" and c["status"] != "skipped":
                v.words += report["q"] ** dims[c["d"]]
        v.op(op["grid"], bad)
    return v


def matrix_paths(argv, workdir):
    if argv[0] != "matrix":
        return []
    out = os.path.join(workdir, argv[argv.index("--out") + 1])
    return [out, out + ".legend"]


def largefield_digests(op, workdir) -> dict:
    digests = {"stdout": sha256_bytes(op["stdout"].encode())}
    for path in matrix_paths(op["argv"], workdir):
        digests[os.path.basename(path)] = sha256_file(path) if os.path.exists(path) else None
    return digests


def gate_largefield(result, expected, workdir) -> Verdict:
    v = Verdict()
    _missing(v, [" ".join(op["argv"]) for op in result["ops"] if op["kind"] == "cli"],
             expected["outputs"])
    for op in result["ops"]:
        if op["kind"] == "cli":
            key = " ".join(op["argv"])
            bad = [] if op["rc"] == 0 else [f"exit {op['rc']}"]
            got, want = largefield_digests(op, workdir), expected["outputs"].get(key)
            if got != want:
                bad.append(f"sha256 {got} != {want}")
            v.op(key, bad)
        elif op["kind"] == "extremal":
            ok = v.check(op["weight"] == op["delta"] and op["degree"] == op["d"])
            v.op("extremal", [] if ok else [f"weight/degree {op['weight']}/{op['degree']}"])
        else:
            ok = v.check(op["rank"] == op["dim"])
            v.op("rank", [] if ok else [f"rank {op['rank']} != dimension {op['dim']}"])
    return v


def expected_from(sweep, verify, largefield, workdir) -> dict:
    """expected.json from one pass of each workload of the current program."""
    return {
        "sweep": {"work": {"cases": len(sweep["ops"]),
                           "words": sum(c["q"] ** c["dim"] for c in sweep["ops"])}},
        "verify": {"grids": {op["grid"]: verify_counts(json.loads(op["stdout"]))
                             for op in verify["ops"]}},
        "largefield": {"outputs": {" ".join(op["argv"]): largefield_digests(op, workdir)
                                   for op in largefield["ops"] if op["kind"] == "cli"}},
    }
