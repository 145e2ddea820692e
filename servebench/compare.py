#!/usr/bin/env python3
"""Apply the acceptance rule to a parent run set and a change run set.

Usage:
    python3 servebench/compare.py --parent DIR --change DIR [--bench FILE]
    python3 servebench/compare.py --selftest

Each DIR holds the saved stdout of untraced servebench runs, one file per run
(run.py ... > DIR/<workload>-<n>.out). Run the two commits alternately, with
the same run length, at least ten times per workload each: parent, change,
change, parent, ... The i-th parent run of a workload is paired with its i-th
change run, in start order, and pairs must alternate which side ran first.

For every end-to-end metric of every workload:
  * improved     the change wins >= 9/10 of the pairs (ties count for
                 neither) and the medians differ by more than the parent's
                 interquartile range;
  * regressed    the change's median is worse than the parent's by more than
                 the metric's bound;
  * unresolved   the parent's spread (IQR / median) exceeds the bound, unless
                 every change run reads better than every parent run;
  * within bound otherwise.
Bounds come from BENCHMARK.json. Metrics the benchmark prints but does not
gate (latency, goodput_rps, recall_at_10, ...) are listed with their medians,
spread and wins for information only, with the verdict "info". Each workload
also gets a row comparing the share of failed operations. Runs from different
hosts (nproc, ISA, compiler, build type) are refused. The exit code is 0 only
when no gated metric and no failed-share row regressed or is unresolved.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Printed by untraced runs but not gated by BENCHMARK.json: name -> better.
INFO_METRICS = {
    "p50_us": "lower",
    "p90_us": "lower",
    "p99_us": "lower",
    "goodput_rps": "higher",
    "recall_at_10": "higher",
    "refresh_s": "lower",
    "refresh_reject_s": "lower",
}

MIN_PAIRS = 10
WIN_RATE = 0.9


def load_runs(directory):
    """Every servebench-result record saved under `directory`."""
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("servebench-result "):
                    record = json.loads(line[len("servebench-result "):])
                    record["file"] = path
                    runs.append(record)
    return runs


def quartile_spread(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare_metric(parent, change, better, bound):
    """Verdict for one metric on one workload from paired run values; with
    no bound (an ungated metric) the verdict is "info"."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartile_spread(parent)
    iqr = q3 - q1
    spread = iqr / abs(mp) if mp else float("inf")
    sign = 1.0 if better == "lower" else -1.0

    def is_better(c, p):
        return sign * (p - c) > 0

    wins = sum(1 for p, c in zip(parent, change) if is_better(c, p))
    worse_by = sign * (mc - mp) / abs(mp) if mp else 0.0
    disjoint = all(is_better(c, p) for c in change for p in parent)
    if bound is None:
        verdict = "info"
    elif n >= MIN_PAIRS and wins >= WIN_RATE * n and abs(mc - mp) > iqr \
            and is_better(mc, mp):
        verdict = "improved"
    elif spread > bound and not disjoint:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return {"verdict": verdict, "parent_median": mp, "change_median": mc,
            "parent_spread": spread, "worse_by": worse_by, "wins": wins,
            "pairs": n}


def host_of(run):
    return json.dumps(run.get("host", {}), sort_keys=True)


def compare_sets(parent_runs, change_runs, gated):
    """Rows of (workload, metric, result); raises ValueError on refusal."""
    parent_runs = [r for r in parent_runs if r.get("trace") == 0]
    change_runs = [r for r in change_runs if r.get("trace") == 0]
    hosts = {host_of(r) for r in parent_runs + change_runs}
    if len(hosts) > 1:
        raise ValueError("runs come from different hosts: " +
                         "; ".join(sorted(hosts)))
    rows = []
    workloads = sorted({r["workload"] for r in parent_runs + change_runs})
    for w in workloads:
        ps = sorted((r for r in parent_runs if r["workload"] == w),
                    key=lambda r: r["started_at"])
        cs = sorted((r for r in change_runs if r["workload"] == w),
                    key=lambda r: r["started_at"])
        n = min(len(ps), len(cs))
        if n < MIN_PAIRS:
            raise ValueError("%s: %d pairs, need at least %d"
                             % (w, n, MIN_PAIRS))
        firsts = [p["started_at"] < c["started_at"]
                  for p, c in zip(ps[:n], cs[:n])]
        if any(a == b for a, b in zip(firsts, firsts[1:])):
            raise ValueError("%s: pairs do not alternate which side runs "
                             "first" % w)
        metrics = dict(gated)
        for name, better in INFO_METRICS.items():
            metrics.setdefault(name, (better, None))
        for name, (better, bound) in metrics.items():
            if not all(name in r["metrics"] for r in ps[:n] + cs[:n]):
                continue
            pv = [r["metrics"][name]["value"] for r in ps[:n]]
            cv = [r["metrics"][name]["value"] for r in cs[:n]]
            result = compare_metric(pv, cv, better, bound)
            result["bound"] = bound
            result["unit"] = ps[0]["metrics"][name]["unit"]
            rows.append((w, name, result))
        pf = sum(r["failed"] for r in ps[:n]) / max(1, sum(r["attempted"]
                                                           for r in ps[:n]))
        cf = sum(r["failed"] for r in cs[:n]) / max(1, sum(r["attempted"]
                                                           for r in cs[:n]))
        rows.append((w, "failed_share", {
            "verdict": "regressed" if cf > pf else "within bound",
            "parent_median": pf, "change_median": cf, "parent_spread": 0.0,
            "worse_by": cf - pf, "wins": 0, "pairs": n, "bound": 0.0,
            "unit": "ratio"}))
    return rows


def gated_metrics(bench_path):
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def failing(rows):
    """Rows that fail the acceptance rule: gated metrics and failed-share
    rows that regressed or are unresolved ("info" rows never fail)."""
    return [r for r in rows if r[2]["verdict"] in ("regressed", "unresolved")]


def print_rows(rows):
    print("%-8s %-18s %-13s %14s %14s %8s %8s %6s" % (
        "workload", "metric", "verdict", "parent", "change", "worse", "spread",
        "wins"))
    for w, name, r in rows:
        print("%-8s %-18s %-13s %14.6g %14.6g %+7.1f%% %7.1f%% %3d/%-2d" % (
            w, name, r["verdict"], r["parent_median"], r["change_median"],
            100 * r["worse_by"], 100 * r["parent_spread"], r["wins"],
            r["pairs"]))


def selftest():
    ok = True

    def check(cond, what):
        nonlocal ok
        if not cond:
            print("compare selftest FAILED: " + what, file=sys.stderr)
            ok = False

    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [90, 91, 89, 90, 92, 88, 90, 91, 89, 90]
    check(compare_metric(parent, faster, "lower", 0.1)["verdict"] ==
          "improved", "a 10% faster change on every pair improves")
    check(compare_metric(parent, list(parent), "lower", 0.1)["verdict"] ==
          "within bound", "identical runs stay within bound")
    slower = [x * 1.2 for x in parent]
    check(compare_metric(parent, slower, "lower", 0.1)["verdict"] ==
          "regressed", "a 20% slower change regresses a 10% bound")
    check(compare_metric(parent, slower, "higher", 0.1)["verdict"] ==
          "improved", "for higher-is-better the same values improve")
    noisy = [50, 150, 60, 140, 100, 70, 130, 80, 120, 100]
    check(compare_metric(noisy, [x * 1.05 for x in noisy], "lower", 0.1)
          ["verdict"] == "unresolved", "spread above the bound: unresolved")
    # 8 wins of 10 is short of the 9/10 rule, though the median moved.
    mixed = [90] * 8 + [110, 110]
    r = compare_metric(parent, mixed, "lower", 0.1)
    check(r["wins"] == 8 and r["verdict"] == "within bound",
          "8/10 wins is not an improvement")
    # Ties count for neither side.
    check(compare_metric(parent, list(parent), "lower", 0.1)["wins"] == 0,
          "ties are not wins")
    # A median shift inside the parent's IQR is no improvement.
    wide = [100, 104, 96, 100, 106, 94, 100, 105, 95, 100]
    check(compare_metric(wide, [x - 2 for x in wide], "lower", 0.2)
          ["verdict"] == "within bound",
          "a shift smaller than the parent IQR is not an improvement")

    def run(workload, seed, p50, host="h", failed=0, side=0):
        # Pair i runs parent first when i is even: started_at alternates.
        first = side if seed % 2 == 0 else 1 - side
        return {"workload": workload, "seed": seed, "trace": 0,
                "started_at": 2 * seed + first, "host": {"id": host},
                "attempted": 100, "failed": failed,
                "metrics": {"p50_us": {"value": p50, "unit": "us"}}}
    gated = {"p50_us": ("lower", 0.1)}
    ps = [run("lookup", i, 100 + i % 3) for i in range(10)]
    cs = [run("lookup", i, 80 + i % 3, side=1) for i in range(10)]
    rows = compare_sets(ps, cs, gated)
    check([r[2]["verdict"] for r in rows] == ["improved", "within bound"],
          "one metric row plus the failed-share row per workload")
    # An ungated metric, however noisy or worse, is listed and never fails.
    noisy_p99 = [1500, 35000, 2000, 9000, 1500, 30000, 2500, 4000, 1800,
                 20000]

    def with_p99(runs, values):
        out = json.loads(json.dumps(runs))
        for r, v in zip(out, values):
            r["metrics"]["p99_us"] = {"value": v, "unit": "us"}
        return out
    rows = compare_sets(with_p99(ps, noisy_p99),
                        with_p99(cs, [3 * v for v in noisy_p99]), gated)
    check([(r[1], r[2]["verdict"]) for r in rows] ==
          [("p50_us", "improved"), ("p99_us", "info"),
           ("failed_share", "within bound")] and not failing(rows),
          "an ungated metric is information only")
    cs_fail = [run("lookup", i, 100 + i % 3, failed=1, side=1)
               for i in range(10)]
    check(compare_sets(ps, cs_fail, gated)[-1][2]["verdict"] == "regressed",
          "more failed operations is a regression")
    try:
        compare_sets(ps, [run("lookup", i, 90, host="other", side=1)
                          for i in range(10)], gated)
        check(False, "different hosts must be refused")
    except ValueError:
        pass
    try:
        compare_sets(ps[:9], cs[:9], gated)
        check(False, "fewer than ten pairs must be refused")
    except ValueError:
        pass
    try:
        compare_sets(ps, [run("lookup", i, 90, side=0) for i in range(10)],
                     gated)
        check(False, "pairs that do not alternate must be refused")
    except ValueError:
        pass
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        if not selftest():
            return 1
        print("compare selftest: ok")
        return 0
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    try:
        rows = compare_sets(load_runs(args.parent), load_runs(args.change),
                            gated_metrics(args.bench))
    except ValueError as e:
        print("refused: %s" % e, file=sys.stderr)
        return 2
    print_rows(rows)
    return 1 if failing(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
