#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload in a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, trace files and scratch state all live under
the build directory ($CARGO_TARGET_DIR when set, else .bench_build), so the
run reads and writes nothing outside the checkout. Arguments are passed to
the binary unchanged; its last stdout line is the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    # The go command keeps telemetry counters under the user config
    # directory; point that inside the build directory and switch it off.
    telemetry = os.path.join(build, "config", "go", "telemetry")
    os.makedirs(telemetry, exist_ok=True)
    with open(os.path.join(telemetry, "mode"), "w") as f:
        f.write("off\n")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run the go toolchain: %s" % e, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        ran = subprocess.run([binary, "--out", build] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
