"""cartcodes benchmark: end-to-end metrics per workload, or per-layer metrics from spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|verify|largefield --seed N \
        --seconds S --trace 0|1

Each pass of the workload runs in a fresh single-threaded process
(worker.py), one at a time, so the field, table and scan caches start cold as
they do for a CLI user.  Passes repeat until the next one would end after S
seconds, with at least MIN_PASSES of them.  Every operation of every pass is
checked by gates.py.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the medians over passes of
setup_s (process start until cartcodes, cartcodes.cli and cartcodes.oracle
are imported), wall_s (one pass, tracing off) and peak_rss_mib.  With
--trace 1 they are the per-layer metrics of spans.py, medians over traced
passes, and each pass's spans are written to perfbench/out/.  The line
before it reports median, maximum and sample count of every end-to-end
number, including words_per_s, fail_ratio and checks_skipped, with the
provenance of the run.

    python3 perfbench/run.py --record

rewrites expected.json (check counts, work counts and output digests) from
the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("sweep", "verify", "largefield")
MIN_PASSES = 3
# Hard stop for starting passes; a run must end within 180 s.
MAX_START_S = 120.0
SUMMARY_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "words_per_s": "words/s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "1",
    "checks_skipped": "count",
}
END_TO_END = ("setup_s", "wall_s", "peak_rss_mib")


class BenchError(RuntimeError):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(root: Path, workload: str, seed: int, trace: bool, passdir: Path,
             spans_path: Path, timeout: float) -> dict:
    passdir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), workload, str(seed), "1" if trace else "0",
           str(spans_path)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=passdir, env=worker_env(root / "src"),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    ended = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    src = (root / "src").resolve()
    imported = Path(result["provenance"]["cartcodes_file"]).resolve()
    if not imported.is_relative_to(src):
        raise BenchError(f"worker imported cartcodes from outside {src}")
    result["provenance"]["cartcodes_file"] = str(imported.relative_to(root.resolve()))
    result["setup_s"] = result["imported_at"] - t0
    result["process_s"] = ended - t0
    return result


def schema_validator(root: Path):
    import jsonschema

    with open(root / "src" / "cartcodes" / "schemas" / "reports.schema.json") as fh:
        defs = json.load(fh)["$defs"]
    schema = {"$ref": "#/$defs/verify_report", "$defs": defs}

    def validate(report):
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            raise ValueError(exc.message) from None

    return validate


def gate(workload, result, expected, root, passdir) -> gates.Verdict:
    if workload == "sweep":
        return gates.gate_sweep(result, expected["sweep"])
    if workload == "verify":
        return gates.gate_verify(result, expected["verify"], schema_validator(root))
    return gates.gate_largefield(result, expected["largefield"], passdir)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    pkg = root / "src" / "cartcodes"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def summarize(values) -> dict:
    return {"median": statistics.median(values), "max": max(values), "samples": len(values),
            "values": values}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    outdir = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    # compile bytecode and warm the file cache, as an installed CLI would be
    subprocess.run([sys.executable, "-c", "import cartcodes, cartcodes.cli, cartcodes.oracle"],
                   env=worker_env(root / "src"), check=True, timeout=60)

    results, verdicts = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(results) >= MIN_PASSES:
            typical = statistics.median(r["process_s"] for r in results)
            if elapsed + typical > seconds or elapsed > MAX_START_S:
                break
        i = len(results)
        passdir = outdir / f"pass{i}"
        result = run_pass(root, workload, seed, trace, passdir, outdir / f"spans{i}.jsonl",
                          timeout=max(30.0, 170.0 - elapsed))
        verdicts.append(gate(workload, result, expected, root, passdir))
        shutil.rmtree(passdir)
        results.append(result)

    per_pass = {
        "setup_s": [r["setup_s"] for r in results],
        "wall_s": [r["wall_s"] for r in results],
        "words_per_s": [v.words / r["wall_s"] for r, v in zip(results, verdicts)],
        "peak_rss_mib": [r["peak_rss_mib"] for r in results],
        "fail_ratio": [v.failed / v.attempted for v in verdicts],
        "checks_skipped": [v.checks["skipped"] for v in verdicts],
    }
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    if trace:
        layers = [dict(r["layers"]) for r in results]
        for lay, v in zip(layers, verdicts):
            total = sum(v.checks.values())
            lay["oracle.checks_pass"] = v.checks["pass"]
            lay["oracle.checks_skipped"] = v.checks["skipped"]
            lay["oracle.checks_fail"] = v.checks["fail"]
            lay["oracle.useful_ratio"] = v.checks["pass"] / total if total else 0.0
        metrics = {k: statistics.median(lay[k] for lay in layers) for k in layers[0]}
    else:
        metrics = {k: statistics.median(per_pass[k]) for k in END_TO_END}

    with open(root / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in
                 json.load(fh)["per_layer" if trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")

    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "passes": len(results),
        "work": {"cases": verdicts[0].cases, "words": verdicts[0].words},
        "summary": {k: dict(summarize(vals), unit=SUMMARY_UNITS[k])
                    for k, vals in per_pass.items()},
        "provenance": dict(results[0]["provenance"], nproc=len(os.sched_getaffinity(0)),
                           git_commit=git_commit(root), source_sha256=source_digest(root),
                           seed=seed),
        "failures": [f for v in verdicts for f in v.failures][:20],
    }
    if trace:
        report["spans"] = [str(p.relative_to(root)) for p in sorted(outdir.glob("spans*.jsonl"))]
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def record(root: Path) -> int:
    outdir = HERE / "out" / "record"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = run_pass(root, workload, 0, False, outdir / workload,
                                  outdir / "spans.jsonl", timeout=170.0)
    expected = gates.expected_from(runs["sweep"], runs["verify"], runs["largefield"],
                                   outdir / "largefield")
    failures = []
    for workload in WORKLOADS:
        v = gate(workload, runs[workload], expected, root, outdir / workload)
        failures += v.failures
    shutil.rmtree(outdir)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from the current program")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cartcodes" / "__init__.py").is_file():
        print(f"error: no cartcodes package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            return record(root)
        if args.workload is None:
            ap.error("--workload is required")
        return measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
