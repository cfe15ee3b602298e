#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload colocation --seed 42 --seconds 10 --trace 0

It builds the perfbench Go program from the checkout's sources into
.bench_build/perfbench (the Go build cache lives there too), runs it on one
workload, and passes its standard output through: the last line is the
result object. Build output and progress go to standard error. Everything
it reads and writes stays inside the checkout.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(OUT_DIR, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

# Files whose contents identify the simulated program when the checkout is
# not a git repository.
SOURCE_SUFFIXES = (".go", ".mod", ".json")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    """The build environment: caches, temp files and Go's own config under
    the checkout, no toolchain or module downloads."""
    env = dict(os.environ)
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(OUT_DIR, sub), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(OUT_DIR, "gocache"),
        GOPATH=os.path.join(OUT_DIR, "gopath"),
        GOTMPDIR=os.path.join(OUT_DIR, "tmp"),
        XDG_CONFIG_HOME=os.path.join(OUT_DIR, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    return env


def source_identity():
    """The commit when the checkout is a git repository, else a hash of the
    sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(SOURCE_SUFFIXES):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("go.mod", os.path.join("perfbench", "go.mod"),
                 os.path.join("internal", "cluster")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from the root of a full checkout" % need)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")

    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR,
                               env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out after %d s" % BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)

    cmd = [BINARY, "-workload", args.workload, "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-commit", source_identity()]
    if args.seed is not None:
        if args.seed < 0:
            fail("--seed must be non-negative (got %d)" % args.seed)
        cmd += ["-seed", str(args.seed)]
    if args.trace:
        seed = "" if args.seed is None else "-%d" % args.seed
        cmd += ["-trace-out", os.path.join(
            OUT_DIR, "spans-%s%s.jsonl" % (args.workload, seed))]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
