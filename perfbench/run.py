#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload listed in BENCHMARK.json, one after
the other, and first names the workloads the benchmark dropped. Run it
from the root of a checkout of the repository. It builds the
`perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset, then runs one workload. The last line of standard
output is the JSON result; everything before it is the human-readable
report. Spans of the run are written to
`<target dir>/perfbench/spans-<workload>-seed<seed>-trace<t>.jsonl`.

Exits non-zero, without a result line, when the repository's sources are
missing, the build fails, or the program fails or overruns its time limit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program's own run must end well inside the three minutes a run may
# take; it is killed (and waited for) after this many seconds.
RUN_TIMEOUT_S = 170
# Workloads designed for this benchmark but left out of BENCHMARK.json;
# perfbench/README.md gives the figures.
DROPPED = {
    "protocol-chaos": "its op time spread 21-31% between runs of the same code",
    "decode-amp": "its op time spread 33-37% between runs of the same code",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def source_digest():
    """A digest of the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
                files += [os.path.join(d, x) for x in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def commit():
    """The git commit of the checkout, or a digest of its sources when the
    checkout is not a git work tree of its own."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return source_digest()


def rustc_version():
    out = subprocess.run(
        ["rustc", "--version"], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        return fail(f"the repository's crates are not next to {HERE}; nothing to build")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")

    nproc = len(os.sched_getaffinity(0))
    # glibc's default allocator policy makes time and peak memory depend on
    # allocation history: its mmap threshold rises each time a large block
    # is freed, and each new thread may get its own arena. One arena and
    # thresholds above any block a workload allocates keep every block in
    # the heap, which is never trimmed. After the warm-up op, ops reuse that
    # memory instead of faulting in fresh zeroed pages, and the peak
    # resident set repeats within 0.2%. perfbench/README.md gives the
    # figures.
    run_env = dict(
        os.environ,
        MALLOC_ARENA_MAX="1",
        MALLOC_MMAP_THRESHOLD_=str(1 << 30),
        MALLOC_TRIM_THRESHOLD_=str(1 << 30),
    )
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        for name, why in DROPPED.items():
            print(f"dropped workload {name}: {why}, beyond the 25% bound")
    else:
        workloads = [args.workload]
    provenance = ["--nproc", str(nproc), "--commit", commit(), "--rustc", rustc_version()]
    status = 0
    for workload in workloads:
        spans = os.path.join(
            target, "perfbench", f"spans-{workload}-seed{args.seed}-trace{args.trace}.jsonl"
        )
        cmd = [
            os.path.join(target, "release", "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--spans", spans,
        ] + provenance
        sys.stdout.flush()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=run_env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return fail(f"{workload} ran longer than {RUN_TIMEOUT_S} s")
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
