#!/usr/bin/env python3
"""Build and run the end-to-end fusion benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Builds the repository's `rif` library with the repository's own CMakeLists,
then this directory's benchmark package against it, under `.bench_build/` at
the repository root, and runs the benchmark binary. The binary's last stdout
line is the JSON result; its exit code is passed through. `--self-test`
builds and runs the tests of the benchmark's helpers instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
LIB_BUILD = os.path.join(BUILD, "rif")
BENCH_BUILD = os.path.join(BUILD, "bench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not beside "
             "the benchmark", 2)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    library = os.path.join(LIB_BUILD, "librif.a")
    steps = []
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", LIB_BUILD, "--target", "rif", "-j", jobs])
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                      f"-DRIF_LIBRARY={library}"])
    steps.append(["cmake", "--build", BENCH_BUILD, "-j", jobs])
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if run_logged(cmd, log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)}", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        test = os.path.join(BENCH_BUILD, "harness_test")
        sys.exit(subprocess.run([test], timeout=RUN_TIMEOUT_S).returncode)

    out_dir = os.path.join(BUILD, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BENCH_BUILD, "rif_e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", out_dir]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
