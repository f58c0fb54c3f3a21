#!/usr/bin/env python3
"""Build and run the optchain benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload place-bitcoin-1m --seed 1 --seconds 20 --trace 0

It builds the benchmark (perfbench/, a module of its own that uses the
repository through a replace directive) and the optchain-serve binary into
.bench_build/, with every Go cache inside .bench_build/ and no network, then
runs one measurement. Standard output ends with one JSON result line; the
line before it carries the host fingerprint. The exit code is the
benchmark's, or 1 if the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 150
WORKLOADS = ("place-bitcoin-1m", "serve-mix-30k", "sim-bitcoin-6k")


def go_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def source_digest(root):
    """Commit id when the checkout is a git work tree, else a digest of the
    Go sources the binaries are built from."""
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    env = go_env(build)
    bench_bin = os.path.join(build, "bin", "perfbench")
    serve_bin = os.path.join(build, "bin", "optchain-serve")
    for cmd in (["go", "build", "-o", bench_bin, "."],
                ["go", "build", "-o", serve_bin, "optchain/cmd/optchain-serve"]):
        if subprocess.run(cmd, cwd=bench_dir, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    workdir = os.path.join(build, "run-%d" % os.getpid())
    cmd = [bench_bin, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-serve-bin", serve_bin, "-workdir", workdir,
           "-commit", source_digest(root)]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()  # its server dies with it (parent-death signal)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
