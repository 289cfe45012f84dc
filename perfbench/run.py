#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The first run builds the library and
the benchmark program from source (Release, into .bench_build/perfbench)
and trains the resnet20 bundle once into .bench_build/model_cache, so
every timed run starts from a warm model cache. Then the benchmark
self-checks run, and then the program runs the workload. Its last stdout
line, the result JSON, is printed as the last line; the exit code is the
program's. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Run a build step, its output to stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kw)


def tree_digest(root, subdirs):
    """sha256 over the paths and contents of every file under subdirs."""
    h = hashlib.sha256()
    for sub in subdirs:
        for d, dirs, files in sorted(os.walk(os.path.join(root, sub))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def source_id(root):
    """git sha when the checkout is a repository, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "src-sha256:" + tree_digest(root, ["src"])


def build(root, build_dir):
    """Configure and build unless the sources match the last build."""
    if not os.path.isfile(os.path.join(root, "src", "serve", "host.h")):
        raise OSError("no library sources under src/")
    stamp = os.path.join(build_dir, "perfbench.stamp")
    digest = tree_digest(root, ["src", "perfbench"])
    if os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read() == digest:
                return
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        log("configuring (Release)")
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])
    with open(stamp, "w") as fh:
        fh.write(digest)


def prepare(program, cache_dir, env):
    """Train the resnet20 bundle once (about 200 s on 4 cores)."""
    if os.path.exists(os.path.join(cache_dir, "resnet20.ckpt")):
        return
    log("training the resnet20 bundle into the model cache (one time)")
    os.makedirs(cache_dir, exist_ok=True)
    run_quiet([program, "--prepare"], env=env)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bench_root = os.path.join(root, bench_root)
    build_dir = os.path.join(bench_root, "perfbench")
    cache_dir = os.path.join(bench_root, "model_cache")
    out_dir = os.path.join(bench_root, "results")
    os.makedirs(out_dir, exist_ok=True)
    # The library's tuning and fault-injection knobs stay at their
    # defaults, so every run measures the same configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RADAR_")}
    env["RADAR_CACHE_DIR"] = cache_dir

    try:
        build(root, build_dir)
        run_quiet([os.path.join(build_dir, "perfbench_selftest")])
        program = os.path.join(build_dir, "perfbench")
        prepare(program, cache_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build or preparation failed: {e}")
        return 2

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--source-id", source_id(root)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"the run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        log("no result line")
        return proc.returncode or 4
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write(stdout)
        log("no result line")
        return proc.returncode or 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
