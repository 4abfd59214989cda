#!/usr/bin/env python3
"""Build `sqlts` and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload batch_scan|serve_ingest \
        --seed N --seconds S --trace 0|1

Both binaries are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` in the checkout); build output goes to stderr.  The
benchmark's standard output, whose last line is the JSON result, passes
through unchanged, and so does its exit code.  Scratch files (durable
server data, span logs) go to perfbench/out/.  Exits 2 without a result
when the checkout lacks the sources it builds.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                          cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: run from a full checkout (no Cargo.toml or crates/ next to "
              f"{HERE.name}/)", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(["-p", "sqlts-cli", "--bin", "sqlts"], target)
    build(["--manifest-path", str(HERE / "Cargo.toml")], target)
    release = target / "release"
    return subprocess.run([str(release / "perfbench"), *sys.argv[1:],
                           "--sqlts", str(release / "sqlts"),
                           "--out", str(HERE / "out")]).returncode


if __name__ == "__main__":
    sys.exit(main())
