#!/usr/bin/env python3
"""Host-speed benchmark of the simulator: build, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

Builds perfbench/ (and the simulator sources in src/) into .bench_build/ with
CMake, incrementally, then runs the perfbench binary with the arguments given.
Build output goes to stderr; the binary's last line of standard output is the
JSON result. Exits nonzero when the sources are missing, the build fails, or
any run fails its oracle check.
"""
import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> Path:
    if not (ROOT / "src" / "kernel" / "machine.hpp").is_file():
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD), "-j", jobs],
        ):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def main() -> int:
    binary = build()
    sys.stdout.flush()
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
