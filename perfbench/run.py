#!/usr/bin/env python3
"""Build the benchmark, run one workload, and print its result.

    python3 perfbench/run.py --workload simulate|tournament|serve|offline \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-pin]

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`, relative to the current directory). Lines
starting with `#` describe the run; the last line of standard output is
the result object. `--trace 0` adds `peak_rss_mb`, the workload process's
peak resident memory, to the end-to-end metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "tournament", "serve", "offline")


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    files = sorted(
        p
        for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "perfbench/src/*.rs")
        for p in ROOT.glob(pattern)
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-pin", action="store_true")
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    argv = [str(target / "release" / "perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    if args.corrupt_pin:
        argv.append("--corrupt-pin")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reaps the child and reports its own peak resident set.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: workload exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    # Only this checkout's own repository, never one that encloses it.
    git = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none"
    print(f"# run: nproc={os.cpu_count()} git={git} "
          f"source_sha256={source_digest()} rustc={command_output(['rustc', '--version'])!r}")
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
