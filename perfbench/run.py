#!/usr/bin/env python3
"""Build and run the COSMOS benchmark, and keep a record of the run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

The benchmark binary is built from the checkout's sources (release,
offline) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset.
Its standard output is passed through; the last line is the result
object. Each run also writes a record with its provenance to
`perfbench/out/runs/`, which `perfbench/compare.py` reads.

A run whose deterministic counters differ from an earlier record of the
same workload, seed, run length and sources is reported as failed.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "out", "runs")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def digest(paths):
    """sha256 over the given files' relative paths and contents."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def files_under(top, exts):
    out = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in ("target", "out", ".bench_build")]
        out += [os.path.join(dirpath, f) for f in filenames if f.endswith(exts)]
    return out


def provenance(args):
    """Where and on what a run was made. `settings` names the benchmark
    configuration: records whose settings differ are not comparable."""
    sources = files_under(os.path.join(ROOT, "crates"), (".rs", ".toml"))
    sources += files_under(os.path.join(ROOT, "vendor"), (".rs", ".toml"))
    sources += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock") if os.path.exists(os.path.join(ROOT, f))]
    bench = files_under(HERE, (".rs", ".toml", ".py"))
    bench.append(os.path.join(ROOT, "BENCHMARK.json"))
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    commit = os.environ.get("PERFBENCH_COMMIT", "")
    if not commit and os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    return {
        "commit": commit or "unknown",
        "source_digest": digest(sources),
        "rustc": rustc,
        "hardware_threads": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": {
            "benchmark_digest": digest(bench),
            "seconds": args.seconds,
            "hardware_threads": os.cpu_count(),
            "rustc": rustc,
        },
    }


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return os.path.join(target, "release", "cosmos-perfbench")


def earlier_counters(prov):
    """Counters of earlier untraced records of the same workload, seed,
    run length, sources and benchmark."""
    if not os.path.isdir(RUNS):
        return []
    out = []
    for name in sorted(os.listdir(RUNS)):
        try:
            with open(os.path.join(RUNS, name)) as f:
                rec = json.load(f)
        except (OSError, ValueError):
            continue
        p = rec.get("provenance", {})
        same = all(p.get(k) == prov[k] for k in ("workload", "seed", "seconds", "trace", "source_digest"))
        same = same and p.get("settings", {}).get("benchmark_digest") == prov["settings"]["benchmark_digest"]
        if same and "counters" in rec.get("detail", {}):
            out.append((name, rec["detail"]["counters"]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["fanout", "sensor-mix", "churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600", 2)
    if not os.path.exists(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"no COSMOS sources under {ROOT}: run from a checkout of the repository", 2)

    binary = build()
    prov = provenance(args)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.monotonic()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"benchmark exited with code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail.update(json.loads(line[len("detail "):]))

    # Deterministic counters must repeat exactly across runs.
    if args.trace == 0 and "counters" in detail:
        for name, counters in earlier_counters(prov):
            if counters != detail["counters"]:
                result["correct"] = False
                result["failed"] += 1
                print(f"perfbench: deterministic counters differ from {name}: "
                      f"{counters} vs {detail['counters']}", file=sys.stderr)
                break

    record = {
        "provenance": prov,
        "started_at": started,
        "wall_s": time.monotonic() - t0,
        "result": result,
        "detail": detail,
    }
    os.makedirs(RUNS, exist_ok=True)
    stamp = started.replace(":", "").replace("-", "").replace("+0000", "Z")
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
