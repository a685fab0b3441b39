#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds the `qserve-perfbench` binary from source (release, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs it with the given
arguments. Its last line of standard output is the JSON result; the exit
code is the binary's. `--size tiny --workload all` runs every workload and
every check at smoke size.

The worker-pool width is pinned to one thread (`QSERVE_THREADS=1`) unless
the caller sets it: runs are compared only at the same width, and on a
2-vCPU host the pool's parallel replica windows and column-blocked kernels
make wall time both slower and several times noisier than sequential runs.
Output digests are kept under `<target>/perfbench-state`, so a repeated
seed must reproduce its outputs bit for bit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.setdefault("QSERVE_THREADS", "1")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if "--state-dir" not in args:
        args += ["--state-dir", os.path.join(target, "perfbench-state")]
    child = subprocess.Popen([os.path.join(target, "release", "qserve-perfbench"), *args], env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
