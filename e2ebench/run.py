#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see LEDGER.md).

Run from the repository root:

  python3 e2ebench/run.py --workload sweep_sat --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --selftest            # the benchmark's own tests
  python3 e2ebench/run.py --record 0-31 77777   # re-record reference digests

The benchmark binary is compiled (Release) from the repository's sources into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench. The last
line of stdout is the benchmark's JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["sweep_sat", "sweep_low", "serve_mix"]
BENCH_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2ebench")


def build(targets):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            # A failed configure must not leave a cache behind that
            # makes the next attempt skip configuring.
            if cmd[1] == "-S":
                shutil.rmtree(bdir, ignore_errors=True)
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return bdir


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_bench(bdir, args, workdir):
    cmd = [os.path.join(bdir, "e2e_bench")] + args + [
        "--work-dir", workdir, "--git-sha", git_sha()]
    try:
        return subprocess.run(cmd, timeout=BENCH_TIMEOUT_S,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: benchmark timed out after %d s" % BENCH_TIMEOUT_S)


def seeds_of(specs):
    out = []
    for s in specs:
        lo, _, hi = s.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def record(specs, held_out):
    bdir = build(["e2e_bench"])
    doc = {"held_out_seed": held_out}
    for w in WORKLOADS:
        doc[w] = {}
        for seed in seeds_of(specs) + [held_out]:
            r = run_bench(bdir, ["--workload", w, "--seed", str(seed),
                              "--record"],
                       os.path.join(bdir, "runs", w))
            if r.returncode != 0:
                sys.exit(r.stderr)
            doc[w][str(seed)] = json.loads(r.stdout)["digest"]
            print(w, seed, doc[w][str(seed)], file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", nargs="+", metavar="SEEDS",
                    help="seed ranges like 0-31, then the held-out seed")
    a = ap.parse_args()

    if a.selftest:
        bdir = build(["e2e_selftest"])
        sys.exit(subprocess.run([os.path.join(bdir, "e2e_selftest")],
                                cwd=bdir).returncode)
    if a.record:
        record(a.record[:-1], int(a.record[-1]))
        return
    if None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    bdir = build(["e2e_bench"])
    workdir = os.path.join(bdir, "runs", a.workload)
    os.makedirs(workdir, exist_ok=True)
    r = run_bench(bdir, ["--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", a.trace,
                      "--reference", REFERENCE], workdir)
    # The library warns once per checkpointed point that starts without
    # a snapshot to resume; keep the full log, surface it on failure.
    with open(os.path.join(workdir, "stderr.log"), "w") as f:
        f.write(r.stderr)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        sys.exit(r.returncode)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
