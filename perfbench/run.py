#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <sim_ge|sweep_mix|serve_closed> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to standard error; the benchmark's report goes to standard output and
ends with one JSON line. Exits non-zero without a result if the build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build did not finish: {e}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed with code {built.returncode}")
    binary = os.path.join(target, "release", "ge-perfbench")
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: run did not finish: {e}")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
