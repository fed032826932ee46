#!/usr/bin/env python3
"""Gate bench_micro results: same-run speedup and baseline regression.

Two independent checks over google-benchmark JSON output, plus an
optional monitor-mode budget-compliance gate over txrace_run
--metrics-json output (--monitor-metrics):

1. Same-run ratio gate (--ratio-fast and --ratio-slow, given
   together): the fast benchmark must beat the slow one by at least
   --min-ratio. Both numbers come from the same process on the same machine, so
   this gate is immune to host-speed differences — it checks the
   *shape* of the performance, not absolute throughput. A named
   benchmark missing from the results fails the gate. CI holds the
   end-to-end elision pair (BM_EndToEndElide vs BM_EndToEndNoElide)
   and the flight-recorder pair to their ratios this way.

2. Baseline regression gate (--baseline FILE): every benchmark present
   in both files is compared after normalizing by the --calibration
   benchmark measured in the same file. Normalizing cancels host speed
   (CI runners and dev machines differ by integer factors), so what is
   compared is each benchmark's cost relative to the calibration
   anchor. A normalized slowdown beyond --max-regress fails. CI gates
   bench_simcore this way against BENCH_simcore.json, normalized by
   its BM_HostAnchor lane (host work that runs no simulator code),
   and bench_micro against BENCH_baseline.json and
   BENCH_elision.json, normalized by BM_HtmDirConflictFree/1.

3. Monitor budget gate (--monitor-metrics FILE): the file is a
   txrace_run --monitor --metrics-json dump; every complete window's
   detection overhead must stay within the hard allowance
   (budget_pct / 100 * window_base) and never be flagged hard_over.
   --budget-pct overrides the percentage recorded in the file (use it
   to pin the gate to the percentage CI asked for).

4. Profile sanity gate (--profile-metrics FILE): the file is a
   txrace_run/txrace_hunt --profile-out dump; it must carry the
   txrace-profile-v1 schema, at least one app entry, and only
   non-negative integer counters (the byte-determinism contract is
   checked by `cmp` in CI; this gate checks the content contract).

Usage:
  bench_compare.py [CURRENT.json] [--baseline BASELINE.json]
                   [--ratio-fast NAME --ratio-slow NAME]
                   [--calibration NAME]
                   [--min-ratio 1.05] [--max-regress 0.25] [--summary]
                   [--monitor-metrics METRICS.json] [--budget-pct N]
                   [--profile-metrics PROFILE.json]

Exit status 0 when all gates pass, 1 otherwise.
"""

import argparse
import json
import sys

DEFAULT_CALIBRATION = "BM_HtmDirConflictFree/1"


def load_items_per_second(path):
    """Map benchmark name -> items_per_second.

    Prefers median aggregates when repetitions were used; otherwise
    averages plain iteration entries of the same name.
    """
    with open(path) as f:
        data = json.load(f)
    medians = {}
    plain = {}
    for b in data.get("benchmarks", []):
        ips = b.get("items_per_second")
        if ips is None:
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b["run_name"]] = ips
        else:
            name = b.get("run_name", b["name"])
            plain.setdefault(name, []).append(ips)
    out = {name: sum(v) / len(v) for name, v in plain.items()}
    out.update(medians)
    return out


def check_ratio(cur, fast_name, slow_name, min_ratio):
    fast = cur.get(fast_name)
    slow = cur.get(slow_name)
    if fast is None or slow is None:
        missing = fast_name if fast is None else slow_name
        print(f"ratio gate: FAIL ({missing} not in results)")
        return False
    ratio = fast / slow
    ok = ratio >= min_ratio
    print(f"ratio gate: {fast_name} {fast:.4g}/s vs "
          f"{slow_name} {slow:.4g}/s = {ratio:.2f}x "
          f"(need >= {min_ratio:.2f}x) -> "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def check_baseline(cur, base, calibration, max_regress):
    cal_cur = cur.get(calibration)
    cal_base = base.get(calibration)
    if not cal_cur or not cal_base:
        print(f"baseline gate: FAIL (calibration benchmark "
              f"{calibration} missing)")
        return False
    ok = True
    shared = sorted(set(cur) & set(base) - {calibration})
    if not shared:
        print("baseline gate: FAIL (no shared benchmarks)")
        return False
    for name in shared:
        norm_cur = cur[name] / cal_cur
        norm_base = base[name] / cal_base
        change = norm_cur / norm_base - 1.0
        flag = "ok"
        if change < -max_regress:
            flag = "FAIL"
            ok = False
        print(f"baseline gate: {name}: normalized {norm_base:.3f} -> "
              f"{norm_cur:.3f} ({change:+.1%}) {flag}")
    return ok


def check_monitor(path, budget_pct):
    """Every complete window of a --monitor run held the hard budget."""
    with open(path) as f:
        data = json.load(f)
    mon = data.get("monitor")
    if not mon:
        print(f"monitor gate: FAIL (no monitor section in {path}; "
              "was the run made with --monitor?)")
        return False
    pct = budget_pct if budget_pct is not None else mon["budget_pct"]
    if budget_pct is not None and mon["budget_pct"] != budget_pct:
        print(f"monitor gate: FAIL (run used --budget-pct="
              f"{mon['budget_pct']}, expected {budget_pct})")
        return False
    windows = mon.get("windows", [])
    if not windows:
        print("monitor gate: FAIL (no complete windows; run too short "
              "for the window base)")
        return False
    allowed = int(pct / 100.0 * mon["window_base"])
    worst = max(w["overhead"] for w in windows)
    over = [i for i, w in enumerate(windows)
            if w["overhead"] > allowed or w["hard_over"]]
    refused = sum(1 for w in windows if w["refused"])
    ok = not over
    print(f"monitor gate: {len(windows)} windows at {pct}% "
          f"(allowed {allowed}/window), worst {worst}, "
          f"{refused} refused, {len(over)} over -> "
          f"{'ok' if ok else 'FAIL ' + str(over[:10])}")
    return ok


PROFILE_APP_COUNTERS = (
    "runs", "tx_begins", "tx_committed", "slow_regions", "window_replays",
    "monitor_site_cuts", "monitor_site_probes", "monitor_gated_checks",
    "monitor_sampled_skips",
)
PROFILE_SITE_COUNTERS = (
    "conflict_aborts", "capacity_aborts", "other_aborts",
    "slow_checks", "slow_cost", "window_replays", "monitor_shift_max",
)


def check_profile(path):
    """A --profile-out dump is well-formed txrace-profile-v1."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "txrace-profile-v1":
        print(f"profile gate: FAIL ({path}: schema is "
              f"{data.get('schema')!r}, expected txrace-profile-v1)")
        return False
    apps = data.get("apps")
    if not isinstance(apps, dict) or not apps:
        print(f"profile gate: FAIL ({path}: no apps recorded)")
        return False
    sites = 0
    for app, entry in apps.items():
        for key in PROFILE_APP_COUNTERS:
            v = entry.get(key)
            if not isinstance(v, int) or v < 0:
                print(f"profile gate: FAIL ({app}.{key} = {v!r}, "
                      "expected non-negative integer)")
                return False
        if entry["runs"] == 0:
            print(f"profile gate: FAIL ({app}: zero runs)")
            return False
        if entry["tx_committed"] > entry["tx_begins"]:
            print(f"profile gate: FAIL ({app}: tx_committed "
                  f"{entry['tx_committed']} > tx_begins "
                  f"{entry['tx_begins']})")
            return False
        for site, counters in entry.get("sites", {}).items():
            sites += 1
            for key in PROFILE_SITE_COUNTERS:
                v = counters.get(key)
                if not isinstance(v, int) or v < 0:
                    print(f"profile gate: FAIL ({app} site {site} "
                          f"{key} = {v!r})")
                    return False
    print(f"profile gate: {len(apps)} app(s), {sites} site(s), "
          f"{sum(e['runs'] for e in apps.values())} run(s) -> ok")
    return True


def print_summary(cur):
    print("\nbenchmark                                items/sec")
    for name in sorted(cur):
        print(f"  {name:<38} {cur[name] / 1e6:>8.1f} M/s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", nargs="?",
                    help="bench_micro --json output (omit to run only "
                         "the monitor gate)")
    ap.add_argument("--baseline",
                    help="committed baseline JSON to regress against")
    ap.add_argument("--ratio-fast",
                    help="numerator benchmark of the same-run ratio")
    ap.add_argument("--ratio-slow",
                    help="denominator benchmark of the same-run ratio")
    ap.add_argument("--calibration", default=DEFAULT_CALIBRATION,
                    help="host-speed anchor for the baseline gate")
    ap.add_argument("--min-ratio", type=float, default=1.05,
                    help="minimum fast/slow speedup (same run)")
    ap.add_argument("--max-regress", type=float, default=0.25,
                    help="maximum tolerated normalized slowdown")
    ap.add_argument("--summary", action="store_true",
                    help="print a throughput table")
    ap.add_argument("--monitor-metrics",
                    help="txrace_run --monitor --metrics-json dump to "
                         "gate for budget compliance")
    ap.add_argument("--budget-pct", type=float,
                    help="expected --budget-pct of the monitor run "
                         "(default: trust the file)")
    ap.add_argument("--profile-metrics",
                    help="--profile-out dump to gate for "
                         "txrace-profile-v1 well-formedness")
    args = ap.parse_args()

    if (not args.current and not args.monitor_metrics
            and not args.profile_metrics):
        ap.error("need CURRENT.json, --monitor-metrics, "
                 "and/or --profile-metrics")
    if bool(args.ratio_fast) != bool(args.ratio_slow):
        ap.error("--ratio-fast and --ratio-slow go together")

    ok = True
    if args.current:
        cur = load_items_per_second(args.current)
        if not cur:
            print(f"error: no benchmarks with items_per_second in "
                  f"{args.current}", file=sys.stderr)
            return 1
        if args.ratio_fast:
            ok = check_ratio(cur, args.ratio_fast, args.ratio_slow,
                             args.min_ratio)
        if args.baseline:
            base = load_items_per_second(args.baseline)
            ok = check_baseline(cur, base, args.calibration,
                                args.max_regress) and ok
        if args.summary:
            print_summary(cur)
    if args.monitor_metrics:
        ok = check_monitor(args.monitor_metrics,
                           args.budget_pct) and ok
    if args.profile_metrics:
        ok = check_profile(args.profile_metrics) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
