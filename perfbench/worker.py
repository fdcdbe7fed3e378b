"""One pass of one workload, in a fresh process so every cache starts cold.

Usage (normally started by run.py, with src/ on PYTHONPATH and the working
directory set to a scratch directory for matrix files):

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH

The package import comes first, so the parent can time set-up as the span
from process start to IMPORTED_AT.  The last stdout line is a JSON object
with the pass's wall time, peak RSS, raw outputs for the gates in gates.py
and, when TRACE is 1, the per-layer metrics of spans.py.
"""

import time

import cartcodes
import cartcodes.cli
import cartcodes.oracle

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

cc = cartcodes
oracle = cartcodes.oracle


class Pass:
    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = []
        self.stdout_bytes = 0

    def start(self, case):
        if self.tracer is not None:
            self.tracer.case = case

    def cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cartcodes.cli.main(list(argv))
        out = buf.getvalue()
        self.stdout_bytes += len(out.encode())
        return rc, out


def sweep_case(q, sets, d, field, budget) -> dict:
    """Closed forms and oracle results of one sweep case, as gates.gate_sweep reads them."""
    code = cc.normalize_spec(field, sets, d)
    rec = {
        "q": q, "sets": sets, "d": d,
        "length": code.length, "dim": code.dimension, "delta": code.min_distance,
        "brute_delta": oracle.brute_min_distance(code, budget),
        "brute_dim": oracle.brute_rank_dimension(code, budget),
        "max_zeros": oracle.max_zero_search(code, budget),
    }
    if d <= code.regularity - 1:
        poly, vec = code.extremal_codeword()
        rec["extremal_weight"] = int(np.count_nonzero(vec))
        rec["extremal_degree"] = poly.total_degree
    return rec


def run_sweep(p: Pass, seed: int):
    cases = workloads.sweep_cases(seed, cc.dimension_formula)
    budget = oracle.OracleBudget(max_words=workloads.SWEEP_WORD_CAP)
    fields = {}
    t0 = time.perf_counter()
    for i, (q, sets, d) in enumerate(cases):
        p.start(i)
        if q not in fields:
            fields[q] = cc.field_for_order(q)
        p.ops.append(sweep_case(q, sets, d, fields[q], budget))
    return time.perf_counter() - t0


def run_verify(p: Pass, seed: int):
    t0 = time.perf_counter()
    for i, (q, sets) in enumerate(workloads.VERIFY_GRIDS):
        p.start(i)
        rc, out = p.cli(["verify", "--q", q, "--sets", sets, "--dall"])
        p.ops.append({"grid": workloads.grid_key(q, sets), "rc": rc, "stdout": out})
    return time.perf_counter() - t0


def run_largefield(p: Pass, seed: int):
    ext_p, ext_e, _, _, ext_d = workloads.LARGEFIELD_EXTREMAL
    ext_sets = workloads.seeded_sets(seed, workloads.LARGEFIELD_EXTREMAL, 1)
    rank_p, rank_e, _, _, rank_d = workloads.LARGEFIELD_RANK
    rank_sets = workloads.seeded_sets(seed, workloads.LARGEFIELD_RANK, 2)
    t0 = time.perf_counter()
    for i, argv in enumerate(workloads.LARGEFIELD_COMMANDS):
        p.start(i)
        rc, out = p.cli(argv)
        p.ops.append({"kind": "cli", "argv": argv, "rc": rc, "stdout": out})
    p.start(len(p.ops))
    code = cc.CartesianCode(cc.Grid(cc.make_field(ext_p, ext_e), ext_sets), ext_d)
    poly, vec = code.extremal_codeword()
    p.ops.append({"kind": "extremal", "d": ext_d, "delta": code.min_distance,
                  "weight": int(np.count_nonzero(vec)), "degree": poly.total_degree})
    p.start(len(p.ops))
    code = cc.CartesianCode(cc.Grid(cc.make_field(rank_p, rank_e), rank_sets), rank_d)
    p.ops.append({"kind": "rank", "dim": code.dimension,
                  "rank": oracle.brute_rank_dimension(code)})
    return time.perf_counter() - t0


RUNNERS = {"sweep": run_sweep, "verify": run_verify, "largefield": run_largefield}


def provenance():
    kernels = cartcodes._kernels
    enabled = getattr(kernels, "numba_enabled", lambda: False)()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "has_numba": bool(getattr(kernels, "HAS_NUMBA", False)),
        "kernel_method": "numba" if enabled else "numpy",  # scan and rank resolve alike
        "cartcodes_file": cartcodes.__file__,
    }


def main(argv):
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    p = Pass(tracer)
    wall_s = RUNNERS[workload](p, seed)
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": p.ops,
        "provenance": provenance(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, wall_s)
        result["layers"]["cli.stdout_bytes"] = p.stdout_bytes
        tracer.write(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
