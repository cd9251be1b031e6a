#!/usr/bin/env python3
"""Builds and runs paraquery's end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <point|analytic|theorem2|churn> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark (Release)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
calls only rebuild what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Traced runs write their
Chrome trace and layer summary to the build directory's results/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    env = dict(os.environ)
    # Keep the compiler's temporary files inside the build directory.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step), 3)


def main():
    if not os.path.isfile(os.path.join(REPO, "src", "core", "engine.hpp")):
        fail(f"no paraquery sources under {REPO}/src; run from a checkout "
             "of the repository", 2)
    args = sys.argv[1:]
    selftest = args == ["--selftest"]
    target = "perfbench_selftest" if selftest else "paraquery_perfbench"
    build_dir = os.path.join(
        os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    build(build_dir, target)
    command = [os.path.join(build_dir, target)]
    if not selftest:
        command += args
        if "--out-dir" not in args:
            command += ["--out-dir", os.path.join(build_dir, "results")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
