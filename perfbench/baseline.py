"""Measure the baseline: two sets of untraced runs per workload, with traced runs between them.

Run from the root of a checkout:

    python3 perfbench/baseline.py

For every workload in BENCHMARK.json, runs run.py RUNS times with seeds
1..RUNS (set 1) and again with seeds RUNS+1..2*RUNS (set 2), and reports each
end-to-end metric's median and quartile spread ((Q3 - Q1) / median, quartiles
as statistics.quantiles(n=4) gives them) per set, next to its bound, and the
relative change of the median from set 1 to set 2.  After every TRACE_EVERY-th
run of set 1 it adds a traced run with the same seed; per-layer metrics are
medians over those, with self times also given as shares of the traced pass.
The tracing overhead is a traced run's wall time minus the mean wall_s of the
untraced runs just before and after it (the machine's speed drifts over
minutes, so only neighbouring runs are compared).  Writes baseline.json next
to this file.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
TRACE_EVERY = 3


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(finals, bounds):
    out = {}
    for name, bound in bounds.items():
        values = [f["metrics"][name]["value"] for f in finals]
        out[name] = {"unit": finals[0]["metrics"][name]["unit"], "bound": bound,
                     "median": statistics.median(values), "spread": spread(values),
                     "values": values}
    return out


def main():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    out = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        sets, traced, provenance, work = [[], []], [], None, None
        for seed in range(1, 2 * RUNS + 1):
            report, final = run_once(workload, seed, seconds, 0)
            provenance, work = report["provenance"], report["work"]
            sets[(seed - 1) // RUNS].append(final)
            print(workload, seed, json.dumps(final["metrics"]), file=sys.stderr)
            if seed % TRACE_EVERY == 0 and seed < RUNS:
                traced.append((seed, run_once(workload, seed, seconds, 1)[1]))
        finals = sets[0] + sets[1]
        e2e = end_to_end(sets[0], bounds)
        e2e_second = end_to_end(sets[1], bounds)
        shift = {name: e2e_second[name]["median"] / e2e[name]["median"] - 1 for name in bounds}
        # overhead: each traced run against the mean of the untraced runs around it
        walls = e2e["wall_s"]["values"]
        overheads = [t["metrics"]["traced_wall_s"]["value"] - (walls[s - 1] + walls[s]) / 2
                     for s, t in traced]
        layers = {k: statistics.median(t["metrics"][k]["value"] for _, t in traced)
                  for k in traced[0][1]["metrics"]}
        wall = layers["traced_wall_s"]
        shares = {k: v / wall for k, v in layers.items()
                  if k.endswith("_s") and not k.endswith("per_s") and k != "traced_wall_s"}
        out["workloads"][workload] = {
            "correct": all(f["correct"] for f in finals + [t for _, t in traced]),
            "attempted": sum(f["attempted"] for f in finals),
            "failed": sum(f["failed"] for f in finals),
            "work": work,
            "end_to_end": e2e,
            "end_to_end_second_set": e2e_second,
            "median_shift": shift,
            "traced_runs": len(traced),
            "per_layer": layers,
            "self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "tracing_overhead_s": statistics.median(overheads),
            "tracing_overhead_share": statistics.median(overheads) / e2e["wall_s"]["median"],
            "provenance": provenance,
        }
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for workload, w in out["workloads"].items():
        for name, m in w["end_to_end"].items():
            m2 = w["end_to_end_second_set"][name]
            print(f"{workload:10s} {name:13s} median {m['median']:.4f} {m['unit']:4s} "
                  f"spread {m['spread']:.3f}/{m2['spread']:.3f} "
                  f"shift {w['median_shift'][name]:+.3f} (bound {m['bound']})")


if __name__ == "__main__":
    main()
