#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload htap_wire|ch_analytics|advisor_tune|all \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first run configures and builds the
engine and the perfbench program (CMake, Release) into .bench_build/;
later runs only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the program's result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is the program's (0 ok, 1 a correctness check failed), or 2
when the engine sources are missing or the build fails, in which case no
result is printed.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over the engine and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["htap_wire", "ch_analytics", "advisor_tune",
                             "all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="tiny data sizes (the smoke test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {ROOT}/src")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(BUILD, "work"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was stopped")
            return 2
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode if proc.returncode >= 0 else 2


if __name__ == "__main__":
    sys.exit(main())
