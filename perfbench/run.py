#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-oltp|quantified|join-report \
        --seed N --seconds S --trace 0|1

Builds the server (bin/pascalr.exe) and the benchmark program
(perfbench/bench.exe) from source with dune, then runs the benchmark
with the given arguments.  Its last line of output is the result JSON;
the exit code is the benchmark's (non-zero when any answer or
durability check fails).  See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./bin/pascalr.exe", "./perfbench/bench.exe"]


def main():
    missing = [p for p in ("dune-project", "bin/dune", "lib", "perfbench/dune")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a source checkout of the engine "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet"]
        + TARGETS,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    bench = subprocess.run(
        [os.path.join("_build", "default", "perfbench", "bench.exe")]
        + sys.argv[1:], cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
