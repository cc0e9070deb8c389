#!/usr/bin/env python3
"""Build and run the HCC-MF end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-cached --seed 1 --seconds 20 --trace 0

It builds the benchmark (a Go module of its own in perfbench/) and the
hccmf-ps and hccmf-serve daemons from the checkout's sources into
.bench_build/perfbench, with the Go build cache there too, then runs one
benchmark run. The last line of standard output is the result object. In a
directory without the repository's sources the build fails and the script
exits with status 2 without printing a result.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOTMPDIR=str(BUILD / "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def source_digest():
    """A digest of every Go source and module file, standing in for the
    commit id where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if rel.parts[0].startswith(".") or not path.is_file():
            continue
        if path.suffix == ".go" or path.name in ("go.mod", "go.sum"):
            h.update(str(rel).encode())
            h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build(env):
    bindir = BUILD / "bin"
    for d in (bindir, BUILD / "tmp"):
        d.mkdir(parents=True, exist_ok=True)
    steps = [
        (["go", "build", "-o", str(bindir / "perfbench"), "."], ROOT / "perfbench"),
        (["go", "build", "-o", str(bindir) + os.sep, "./cmd/hccmf-ps", "./cmd/hccmf-serve"], ROOT),
    ]
    for cmd, cwd in steps:
        if not (cwd / "go.mod").is_file():
            raise RuntimeError(f"{cwd} holds no go.mod: not a checkout of the repository")
        done = subprocess.run(cmd, cwd=cwd, env=env, timeout=BUILD_TIMEOUT,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stdout}")
    return bindir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    try:
        bindir = build(env)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    env["PERFBENCH_COMMIT"] = source_digest()
    cmd = [str(bindir / "perfbench"), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-work", str(BUILD / "work"), "-bin", str(bindir)]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
