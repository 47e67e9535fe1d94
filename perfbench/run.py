#!/usr/bin/env python3
"""Build the Cedar benchmark from source and run one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built in release mode,
offline, against the committed lock file, into `$CARGO_TARGET_DIR` (or
`perfbench/target`). Build output goes to stderr; the last stdout line
is the run's JSON result. The exit code is the run's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Longest a single run may take before it is killed and reported failed.
RUN_TIMEOUT_S = 170


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "cedar-perfbench")


def main():
    binary = build()
    try:
        done = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
