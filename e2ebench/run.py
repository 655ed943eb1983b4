#!/usr/bin/env python3
"""Build `purposectl` and the benchmark from this tree, then run one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                            --nominal-posts-per-s <r> --lag-limit-ms <ms>

Run from the repository root. Both binaries are built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`); generated inputs, cached
reference verdicts and span files go to `.bench_work`. The benchmark refuses
to run a `purposectl` older than any of the sources it is built from. The
last line of stdout is the result as one JSON object.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build_inputs(binary):
    """The files cargo recorded as inputs of `binary`, plus the manifests."""
    with open(binary + ".d") as f:
        deps = f.read().split(": ", 1)[1].split()
    return sorted({os.path.abspath(p) for p in deps} | {os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")})


def fingerprint(files):
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, *extra]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("run.py: run from the repository root (no Cargo.toml and crates/ here)")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "purposectl")
    build(os.path.join(HERE, "Cargo.toml"))
    purposectl = os.path.join(target, "release", "purposectl")
    bench = os.path.join(target, "release", "e2ebench")

    files = build_inputs(purposectl)
    newest = max(os.path.getmtime(p) for p in files)
    if os.path.getmtime(purposectl) < newest:
        sys.exit(f"run.py: {purposectl} is older than its sources; refusing to benchmark a stale binary")

    env = dict(os.environ)
    env["E2EBENCH_REV"] = output(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"])
    env["E2EBENCH_SOURCE"] = fingerprint(files)
    env["E2EBENCH_RUSTC"] = output(["rustc", "--version"]).replace(" ", "_")
    cmd = [bench, "--bin", purposectl, "--work", os.path.join(ROOT, ".bench_work"), *sys.argv[1:]]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
