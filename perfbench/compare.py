#!/usr/bin/env python3
"""Compare the benchmark runs of two commits.

Collect paired runs, alternating which commit runs first in each pair:

    python3 perfbench/compare.py pairs --base ../parent --head . \\
        --workload fanout --pairs 10

Each side is a checkout holding the benchmark; its runs are recorded in
that checkout's `perfbench/out/runs/`. Then judge them:

    python3 perfbench/compare.py judge ../parent/perfbench/out/runs perfbench/out/runs

Runs pair up by (workload, seed). Every (metric, workload) is reported
as improved, unchanged, regressed or unresolved:

* improved — the head wins at least 9 of 10 pairs (ties count for
  neither), and the medians differ, in the head's favour, by more than
  the base's interquartile range;
* unresolved — otherwise, when the base's own spread (IQR over median)
  is wider than the metric's bound in BENCHMARK.json, or there are
  fewer than 10 pairs, or the pairs did not alternate order;
* regressed — otherwise, when the head's median is worse than the
  base's by more than the bound;
* unchanged — otherwise.

A gain does not count when the head failed more operations: failures
over attempts are printed for each side, runs whose result is not
correct are flagged, and a workload whose head has any incorrect run or
more failures than the base gets no verdict of improved (it is reported
as unresolved instead).

Every ratio is printed with its base. Runs are as long as the root
BENCHMARK.json's run_seconds, and its bounds are the ones applied.
Records whose settings (benchmark sources, run length, hardware threads,
rustc) differ are refused.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        if rec["provenance"]["trace"] == 0:
            runs.append(rec)
    return runs


def settings_of(runs, label):
    seen = {json.dumps(r["provenance"]["settings"], sort_keys=True) for r in runs}
    if len(seen) != 1:
        sys.exit(f"compare: the {label} runs were made with {len(seen)} different settings")
    return seen.pop()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def failures(runs, label):
    """Print a side's failures over attempts and flag its incorrect runs.
    Returns (failed, incorrect run count)."""
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    incorrect = [r for r in runs if not r["result"]["correct"]]
    print(f"  {label}: failed {failed}/{attempted}, {len(incorrect)} incorrect runs")
    for r in incorrect:
        p = r["provenance"]
        print(f"    INCORRECT {label} run: {p['workload']} seed {p['seed']} started {r['started_at']}")
    return failed, len(incorrect)


def judge(base_runs, head_runs, spec):
    if not base_runs or not head_runs:
        sys.exit("compare: no untraced runs on one side")
    if settings_of(base_runs, "base") != settings_of(head_runs, "head"):
        sys.exit("compare: refusing to compare runs made with different benchmark settings")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    key = lambda r: (r["provenance"]["workload"], r["provenance"]["seed"])
    base = {key(r): r for r in base_runs}
    head = {key(r): r for r in head_runs}
    verdicts = {}
    for workload in sorted({k[0] for k in base} & {k[0] for k in head}):
        pairs = [(base[k], head[k]) for k in sorted(base) if k[0] == workload and k in head]
        head_first = sum(1 for b, h in pairs if h["started_at"] < b["started_at"])
        alternated = abs(2 * head_first - len(pairs)) <= 1
        print(f"{workload}: {len(pairs)} pairs, head ran first in {head_first}")
        base_failed, _ = failures([b for b, _ in pairs], "base")
        head_failed, head_incorrect = failures([h for _, h in pairs], "head")
        head_sound = head_incorrect == 0 and head_failed <= base_failed
        for name, m in metrics.items():
            got = [(b["result"]["metrics"].get(name), h["result"]["metrics"].get(name)) for b, h in pairs]
            got = [(b["value"], h["value"]) for b, h in got if b and h]
            if not got:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            bv = [b for b, _ in got]
            hv = [h for _, h in got]
            b_lo, b_med, b_hi = quartiles(bv)
            h_lo, h_med, h_hi = quartiles(hv)
            wins = sum(1 for b, h in got if sign * (h - b) > 0)
            spread = (b_hi - b_lo) / b_med if b_med else float("inf")
            worse = sign * (b_med - h_med) / b_med if b_med else 0.0
            if len(got) < MIN_PAIRS or not alternated:
                verdict = "unresolved"
            elif wins >= WIN_SHARE * len(got) and sign * (h_med - b_med) > (b_hi - b_lo):
                verdict = "improved" if head_sound else "unresolved"
            elif spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            verdicts[(name, workload)] = verdict
            ratio = h_med / b_med if b_med else float("nan")
            print(
                f"  {name:<26} {verdict:<10} head/base = {h_med:.6g}/{b_med:.6g} = {ratio:.4f} {m['unit']}"
                f"  base IQR {b_lo:.6g}..{b_hi:.6g} ({spread:.1%}), head IQR {h_lo:.6g}..{h_hi:.6g},"
                f" head wins {wins}/{len(got)}, bound {m['bound']:.0%}"
            )
    return verdicts


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"compare: run failed in {checkout}:\n{r.stderr[-2000:]}")
    last = json.loads(r.stdout.strip().splitlines()[-1])
    print(f"  {checkout}: seed {seed} correct={last['correct']}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating pairs on two checkouts")
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--first-seed", type=int, default=1)
    j = sub.add_parser("judge", help="judge recorded runs")
    j.add_argument("base_runs")
    j.add_argument("head_runs")
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        spec = json.load(f)
    if args.cmd == "pairs":
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [args.base, args.head] if i % 2 == 0 else [args.head, args.base]
            for checkout in order:
                run_side(checkout, args.workload, seed, spec["run_seconds"])
    else:
        verdicts = judge(load_runs(args.base_runs), load_runs(args.head_runs), spec)
        counts = {}
        for v in verdicts.values():
            counts[v] = counts.get(v, 0) + 1
        print("summary:", ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))


if __name__ == "__main__":
    main()
