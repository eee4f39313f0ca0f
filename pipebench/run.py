#!/usr/bin/env python3
"""Build and run the smartsock pipeline benchmark.

    python3 pipebench/run.py --workload churn_match --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --self-test

Run from the repository root. The benchmark is built from source with CMake
into .bench_build/ (or $CARGO_TARGET_DIR when set), then the pipebench
binary runs the workload; its last stdout line is the result object. Build
output goes to stderr. --self-test builds and runs the benchmark's own unit
tests instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("pipebench: build failed: " + " ".join(cmd))


def main():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(root), "pipebench")
    if "--self-test" in sys.argv[1:]:
        build(build_dir, ["pipebench_tests"])
        binary = os.path.join(build_dir, "pipebench_tests")
        sys.exit(subprocess.run([binary]).returncode)
    build(build_dir, ["pipebench"])
    binary = os.path.join(build_dir, "pipebench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
