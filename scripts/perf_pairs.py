#!/usr/bin/env python3
"""Compare two perfbench binaries by alternating paired runs.

Host speed drifts between whole runs, so a host-time claim is judged
by pairs (perfbench/README.md): run the parent and the change back to
back, alternate which goes first, and count how often the change
wins. For every metric this prints each side's median and quartiles,
the change in the median, and the change's wins, losses and ties. A
metric is marked "claimable" when there are at least ten pairs, the
change wins at least nine in ten, and its median moves by more than
the spread between the parent's quartiles. It also reports whether
every run of both sides printed the same simulated-output digest for
its seed, which a change that only touches host speed must keep.

Usage:
  perf_pairs.py --parent BIN --change BIN --workload hunt \\
                --seeds 1,97 --pairs 10 [--seconds 1] [--trace 0|1]
                [--metrics a,b] [--record FILE]
  perf_pairs.py --replay FILE [--metrics a,b]

BIN is a built perfbench binary (python3 perfbench/run.py builds one
under .bench_build/perfbench/). With --trace 1 the runs are traced and
report the per-layer metrics (sim.ns_per_step.txrace and the rest);
pick them with --metrics. --record writes one JSON line per run
({"side", "seed", "digest", "metrics"}); --replay summarizes such a
file without running anything.

Exit status 0 when the digests match (or none were printed), 1
otherwise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# perfbench/README.md: a host-speed claim needs at least ten pairs.
MIN_PAIRS = 10
DIGEST_RE = re.compile(r"^simulated-output digest: ([0-9a-f]+)$", re.M)


def load_metrics():
    """BENCHMARK.json's end-to-end metric names, and every metric it
    declares mapped to its better side."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    directions = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench["per_layer"]}
    return [m["name"] for m in bench["end_to_end"]], directions


def run_once(binary, workload, seed, seconds, trace, trace_dir):
    """One perfbench run; its record (side filled in by the caller)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-dir", trace_dir]
    out = subprocess.run(cmd, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    digest = DIGEST_RE.search(out)
    return {"seed": seed,
            "digest": digest.group(1) if digest else None,
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def quartiles(values):
    """(first quartile, median, third quartile) of @p values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records, metrics, directions):
    """Print the paired summary of @p records; False on a digest
    mismatch."""
    ok = True
    for seed in sorted({r["seed"] for r in records}):
        runs = {side: [r for r in records
                       if r["seed"] == seed and r["side"] == side]
                for side in SIDES}
        pairs = min(len(runs["parent"]), len(runs["change"]))
        print(f"seed {seed}: {pairs} pair(s)")
        digests = {r["digest"] for side in SIDES for r in runs[side]}
        digests.discard(None)
        if len(digests) > 1:
            ok = False
            print(f"  digest: MISMATCH {sorted(digests)}")
        elif digests:
            print(f"  digest: match {digests.pop()}")
        for name in metrics:
            vals = {side: [r["metrics"][name] for r in runs[side][:pairs]
                           if name in r["metrics"]]
                    for side in SIDES}
            if not vals["parent"] or len(vals["parent"]) != len(
                    vals["change"]):
                continue
            lower = directions.get(name, "lower") == "lower"
            wins = losses = 0
            for p, c in zip(vals["parent"], vals["change"]):
                if c != p:
                    if (c < p) == lower:
                        wins += 1
                    else:
                        losses += 1
            ties = len(vals["parent"]) - wins - losses
            pq = quartiles(vals["parent"])
            cq = quartiles(vals["change"])
            delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
            spread = pq[2] - pq[0]
            claimable = (len(vals["parent"]) >= MIN_PAIRS and
                         wins * 10 >= 9 * len(vals["parent"]) and
                         abs(cq[1] - pq[1]) > spread)
            print(f"  {name:<24} parent {pq[1]:.6g} [{pq[0]:.6g}, "
                  f"{pq[2]:.6g}]  change {cq[1]:.6g} [{cq[0]:.6g}, "
                  f"{cq[2]:.6g}]  median {delta:+.1f}%  "
                  f"wins {wins}/{len(vals['parent'])} "
                  f"(losses {losses}, ties {ties})"
                  f"{'  claimable' if claimable else ''}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metrics", help="comma-separated metric names "
                    "(default: BENCHMARK.json's end-to-end metrics)")
    ap.add_argument("--record", help="write one JSON line per run")
    ap.add_argument("--replay", help="summarize a --record file")
    args = ap.parse_args()

    end_to_end, directions = load_metrics()
    metrics = args.metrics.split(",") if args.metrics else end_to_end
    if args.replay:
        with open(args.replay) as f:
            records = [json.loads(line) for line in f if line.strip()]
        return 0 if summarize(records, metrics, directions) else 1

    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required "
                 "without --replay")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    binaries = {"parent": args.parent, "change": args.change}
    trace_dir = os.path.join(ROOT, ".bench_build", "perfbench-traces")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    records = []
    record_file = open(args.record, "w") if args.record else None
    for seed in (int(s) for s in args.seeds.split(",")):
        for i in range(args.pairs):
            # Alternate which side runs first, so drift within a pair
            # favours neither.
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                rec = run_once(binaries[side], args.workload, seed,
                               args.seconds, args.trace, trace_dir)
                rec["side"] = side
                records.append(rec)
                if record_file:
                    record_file.write(json.dumps(rec) + "\n")
                    record_file.flush()
    if record_file:
        record_file.close()
    return 0 if summarize(records, metrics, directions) else 1


if __name__ == "__main__":
    sys.exit(main())
