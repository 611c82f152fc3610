#!/usr/bin/env python3
"""Build the benchmark in release mode and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-paper --seed 1 --seconds 15 --trace 0

Arguments pass through to the `pgrid-perfbench` binary; cargo output
goes to stderr, so stdout ends with the binary's result line. The exit
code is the build's when it fails (as it does outside a full checkout,
where the simulator's sources are missing), the binary's otherwise.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, "--"] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
