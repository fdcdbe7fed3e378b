"""In-memory spans around calls into each cartcodes layer.

`install(tracer)` rebinds public functions of the package to timed wrappers.
A function imported by name into several modules (for example
`monomial_rows`, bound in `poly`, `code` and `oracle`) is rebound in every
module that holds it, so no call site escapes the trace.  Spans are kept in
memory as [name, start, end, parent, case] and written out by the caller
when the pass ends.

Self time of a span is its duration minus the durations of its direct child
spans; spans nest strictly because the traced process is single-threaded.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.case = None
        self.names: list[str] = []  # every installed span name
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.case]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, out, *args, **kwargs)
            return out

        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "case": case}) + "\n")


# -- counters: work done, measured at the layer boundary ------------------------------


def _count_scan(counts, out, G, tables, **kwargs):
    rows, cols = len(G), len(G[0])
    words = tables.q ** rows  # logical words certified, whatever the kernel enumerates
    counts["kernels.scan_calls"] += 1
    counts["kernels.scan_words"] += words
    counts["kernels.scan_symbols"] += words * cols


def _count_rank(counts, out, M, tables, **kwargs):
    counts["kernels.rank_calls"] += 1
    counts["kernels.rank_entries"] += len(M) * (len(M[0]) if len(M) else 0)


def _count_monomial_rows(counts, out, grid, exps_list):
    counts["poly.monomial_rows_entries"] += len(exps_list) * grid.size


def _count_min_weight_answer(counts, out, *args, **kwargs):
    counts["oracle.min_weight_answers"] += 1


def _count_verify_answers(counts, out, *args, **kwargs):
    # verify_params answers min_distance and max_zeros from one local scan
    counts["oracle.min_weight_answers"] += sum(
        1 for c in out.checks if c.name in ("min_distance", "max_zeros") and c.status != "skipped"
    )


def _table_counter():
    seen = []  # tables are cached per field for the life of the process

    def count(counts, out, field):
        if not any(out is t for t in seen):
            seen.append(out)
            nbytes = sum(getattr(getattr(out, a, None), "nbytes", 0) for a in out.__slots__)
            counts["field.tables_builds"] += 1
            counts["field.tables_mib"] += nbytes / 2**20

    return count


def _count_format(counts, out, matrix):
    counts["code.format_bytes"] += len(out)


def install(tracer: Tracer) -> list:
    """Rebind every traced function; returns the list `uninstall` restores."""
    from cartcodes import _kernels, cli, code, constructions, field, oracle, poly

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "cartcodes" or name.startswith("cartcodes.")]
    saved = []

    def rebind(owner, attr, span, count=None):
        """Wrap owner.attr and rebind it wherever else a module holds the same object."""
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(span, orig, count)
        tracer.names.append(span)
        sites = [(owner, attr)]
        if not isinstance(owner, type):
            sites += [(m, a) for m in modules for a, v in vars(m).items()
                      if v is orig and (m, a) != (owner, attr)]
        for site, name in sites:
            saved.append((site, name, orig))
            setattr(site, name, wrapped)

    rebind(_kernels, "scan_min_weight", "kernels.scan", _count_scan)
    rebind(_kernels, "rank_mod", "kernels.rank", _count_rank)
    rebind(oracle, "verify_params", "oracle.verify_params", _count_verify_answers)
    rebind(oracle, "brute_min_distance", "oracle.brute_min_distance", _count_min_weight_answer)
    for name in ("max_zero_search", "brute_rank_dimension"):
        rebind(oracle, name, f"oracle.{name}")
    rebind(poly, "monomial_rows", "poly.monomial_rows", _count_monomial_rows)
    rebind(field.Field, "tables", "field.tables", _table_counter())
    rebind(field.Field, "subgroup_of_order", "field.subgroup")
    rebind(code, "build_generator_matrix", "code.generator_matrix")
    rebind(code.GeneratorMatrix, "format", "code.format", _count_format)
    rebind(code, "extremal_codeword", "code.extremal_codeword")
    rebind(code, "code_params", "code.params")
    rebind(constructions, "degenerate_torus_for_degrees", "constructions.torus")
    for name in ("verify", "matrix", "table", "construct"):
        rebind(cli, f"cmd_{name}", f"cli.{name}")
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)


COUNTS = ("kernels.scan_calls", "kernels.scan_words", "kernels.rank_calls",
          "kernels.rank_entries", "poly.monomial_rows_entries", "field.tables_builds",
          "field.tables_mib", "code.format_bytes")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass that the spans and counters give."""
    selfs = tracer.self_times()
    out = {name + "_s": selfs.get(name, 0.0) for name in tracer.names
           if not name.startswith("oracle.")}
    out["oracle.self_s"] = sum(t for name, t in selfs.items() if name.startswith("oracle."))
    c = tracer.counts
    out.update((key, c[key]) for key in COUNTS)
    scan_s, rows_s = out["kernels.scan_s"], out["poly.monomial_rows_s"]
    out["kernels.scan_symbols_per_s"] = c["kernels.scan_symbols"] / scan_s if scan_s else 0.0
    out["poly.monomial_rows_entries_per_s"] = (
        out["poly.monomial_rows_entries"] / rows_s if rows_s else 0.0
    )
    # share of the oracle's minimum-weight answers given without a scan of their own:
    # brute_min_distance calls (max_zero_search goes through it) plus the
    # min_distance and max_zeros checks of verify_params that were not skipped
    answers = c["oracle.min_weight_answers"]
    out["oracle.scan_cache_hits"] = 1 - c["kernels.scan_calls"] / answers if answers else 0.0
    out["traced_wall_s"] = wall_s
    out["unattributed_s"] = wall_s - sum(selfs.values())
    return out
