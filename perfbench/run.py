#!/usr/bin/env python3
"""Build and run the music data manager benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload library-read --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (a package of its own that depends on the crates
under `crates/` by path) in release mode, then runs one workload. The
benchmark's data directories live under `.bench_run/` and are removed
when it ends. Cargo builds into `$CARGO_TARGET_DIR`, or `.bench_build/`
when that is unset.

Standard output carries the benchmark's report line and, as the last
line, the summary JSON object; build output goes to standard error. The
exit code is the benchmark's: 0 when every answer was right, 1 on a
wrong answer, 2 on a usage, build or set-up error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("library-read", "library-write-mix", "score-load")
RUN_TIMEOUT_S = 170


def stamp():
    """The revision and compiler the build used, for the report."""

    def first_line(cmd):
        try:
            out = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.returncode != 0:
            return None
        return out.stdout.strip().splitlines()[0] if out.stdout.strip() else None

    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = first_line(["git", "rev-parse", "--short=12", "HEAD"])
    rustc = first_line(["rustc", "--version"]) or "unknown"
    return rev or source_digest(), rustc


def source_digest():
    """A digest of the sources the benchmark builds, for a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    rev, rustc = stamp()
    env["PERFBENCH_REV"] = rev
    env["PERFBENCH_RUSTC"] = rustc
    cmd = [
        os.path.join(target, "release", "mdm-perfbench"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(args.seconds),
        "--trace",
        args.trace,
        "--data-dir",
        os.path.join(ROOT, ".bench_run"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # The benchmark removes its own data directory; this covers a
        # run that was killed.
        data = os.path.join(ROOT, ".bench_run", f"{args.workload}-{proc.pid}")
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
