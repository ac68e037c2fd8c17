#!/usr/bin/env python3
"""Build and run the lvplib performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (lvplib's libraries plus
the perfbench program, Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset. Each run then starts one fresh perfbench process for
the workload. The last line of stdout is the result JSON:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it is the run's stamp: host, compiler,
build type, jobs/shards, scale, seed and git commit.

    python3 perfbench/run.py ... --out a.json     # keep stamp + result
    python3 perfbench/run.py --compare a.json b.json

--compare prints every metric of two kept results side by side, and
refuses (exit 3) when their stamps show they measured different things:
another host, compiler, build type, workload, scale or jobs/shards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("suite", "timing", "predict")
# Per-run deadline, leaving headroom under the 180 s a run may take.
DEADLINE_S = 170
# Stamp fields two results must share to be compared.
COMPARABLE = ("workload", "trace", "seconds", "nproc", "cpu_model",
              "compiler", "build_type", "jobs", "shards", "scale")


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configure (once) and build the perfbench binary; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run(args):
    t0 = time.monotonic()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("lvplib sources not found under", ROOT)
        return 2
    out = build_dir()
    if not build(out):
        log("build failed")
        return 2
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--repo", str(ROOT),
           "--work", str(work)]
    # The benchmark fixes jobs, shards, scale and the trace directory
    # itself; none may leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LVPLIB_")}
    remaining = max(1.0, DEADLINE_S - (time.monotonic() - t0))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=remaining)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within", DEADLINE_S, "s")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        log("perfbench exited with", r.returncode)
        return r.returncode
    lines = r.stdout.strip().splitlines()
    stamp_prefix = "perfbench-stamp "
    stamp = next((json.loads(l[len(stamp_prefix):]) for l in lines
                  if l.startswith(stamp_prefix)), {})
    result = json.loads(lines[-1])
    stamp["trace"] = str(args.trace)
    stamp["git_commit"] = git_commit()
    if args.out:
        Path(args.out).write_text(
            json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print("perfbench-stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    differ = [k for k in COMPARABLE
              if a["stamp"].get(k) != b["stamp"].get(k)]
    if differ:
        for k in differ:
            print(f"stamp differs on {k}: {a['stamp'].get(k)!r} vs "
                  f"{b['stamp'].get(k)!r}")
        print("refusing to compare results that measured different things")
        return 3
    print(f"{'metric':44} {'A':>14} {'B':>14} {'B/A':>8}")
    am, bm = a["result"]["metrics"], b["result"]["metrics"]
    for name in sorted(set(am) | set(bm)):
        va = am.get(name, {}).get("value")
        vb = bm.get(name, {}).get("value")
        ratio = f"{vb / va:8.3f}" if va and vb is not None else " " * 8
        print(f"{name:44} {va!s:>14.14} {vb!s:>14.14} {ratio}")
    print(f"commits: {a['stamp'].get('git_commit')} -> "
          f"{b['stamp'].get('git_commit')}; seeds: "
          f"{a['stamp'].get('seed')} -> {b['stamp'].get('seed')}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write stamp and result to this file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
