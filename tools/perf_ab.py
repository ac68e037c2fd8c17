#!/usr/bin/env python3
"""Same-host perfbench A/B between two checkouts of lvplib.

    python3 tools/perf_ab.py --base BASE_DIR --head HEAD_DIR \\
        [--build-dir BUILD_DIR]

Each checkout's perfbench/run.py builds its own perfbench (into
BUILD_DIR/base and BUILD_DIR/head, passed as CARGO_TARGET_DIR) and
checks every result digest once with a zero-second run. Then, per
workload in WORKLOADS, it runs PAIRS alternating pairs of SECONDS-second
runs (base first in even pairs, head first in odd ones, so drift in
host speed falls on both sides) and prints the median wall_s of each
side.

Exit status: 0 when every workload's head median is within the wall_s
bound of BENCHMARK.json (head <= base * (1 + bound)); 1 on a
regression past it; 2 when a run fails or a digest mismatches.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The predictor replay path and the timing model: the two workloads
# whose wall time the simulator's own hot paths decide.
WORKLOADS = ("predict", "timing")
PAIRS = 3
SECONDS = 10

# run.py's exit status when perfbench misses its per-run deadline.
DEADLINE_EXIT = 4


class RunFailed(Exception):
    pass


class DeadlineMissed(RunFailed):
    pass


def log(*args):
    print("perf_ab:", *args, file=sys.stderr, flush=True)


def wall_bound():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"]
                if m["name"] == "wall_s")


def run(checkout, build, workload, seconds):
    """One perfbench run of @p checkout; returns its result dict."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seconds", str(seconds)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if r.returncode == DEADLINE_EXIT:
        raise DeadlineMissed(f"{checkout}: {workload} missed run.py's "
                             f"deadline")
    if r.returncode != 0:
        raise RunFailed(f"{checkout}: run.py exited {r.returncode}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if result.get("failed", 1) != 0 or not result.get("attempted"):
        raise RunFailed(f"{checkout}: {workload} failed: "
                        f"{result.get('failed')} of "
                        f"{result.get('attempted')}")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="base checkout")
    p.add_argument("--head", required=True, help="head checkout")
    p.add_argument("--build-dir",
                   help="perfbench build trees (default: a temp dir)")
    args = p.parse_args()

    bound = wall_bound()
    build_root = Path(args.build_dir or tempfile.mkdtemp(prefix="perf_ab"))
    sides = {"base": (args.base, build_root / "base"),
             "head": (args.head, build_root / "head")}
    try:
        for name, (checkout, build) in sides.items():
            for w in WORKLOADS:
                log(f"building and checking {name} ({w}, --seconds 0)")
                try:
                    run(checkout, build, w, 0)
                except DeadlineMissed as e:
                    # run.py counts the first build against its per-run
                    # deadline; the build is done by the second call.
                    # Any other failure fails at once.
                    log(f"{e}; retrying once")
                    run(checkout, build, w, 0)
        walls = {(w, s): [] for w in WORKLOADS for s in sides}
        for i in range(PAIRS):
            for w in WORKLOADS:
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                for s in order:
                    checkout, build = sides[s]
                    wall = run(checkout, build, w, SECONDS)[
                        "metrics"]["wall_s"]["value"]
                    walls[(w, s)].append(wall)
                    log(f"pair {i} {w} {s}: wall_s {wall:.3f}")
    except (RunFailed, ValueError, KeyError) as e:
        log("error:", e)
        return 2

    status = 0
    print(f"{'workload':10} {'base wall_s':>12} {'head wall_s':>12} "
          f"{'head/base':>10}  runs (base | head)")
    for w in WORKLOADS:
        base = statistics.median(walls[(w, "base")])
        head = statistics.median(walls[(w, "head")])
        ratio = head / base
        runs = " ".join(f"{v:.2f}" for v in walls[(w, "base")]) + " | " + \
            " ".join(f"{v:.2f}" for v in walls[(w, "head")])
        verdict = "ok"
        if ratio > 1 + bound:
            verdict = f"REGRESSION past the {bound:.0%} bound"
            status = 1
        print(f"{w:10} {base:12.3f} {head:12.3f} {ratio:10.3f}  {runs}  "
              f"{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
