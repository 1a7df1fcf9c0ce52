#!/usr/bin/env python3
"""Builds the C-event benchmark and runs one workload.

    python3 perfbench/run.py --workload nowrate-5k --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark package in this directory is
built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`). `--trace 0` runs the untraced `perfbench` binary
for the end-to-end metrics. `--trace 1` first runs it for half the time to
get the untraced `cell_wall_s`, then runs the traced `perfbench-trace`
binary for the per-layer metrics and the tracing overhead; spans go to
`<target dir>/perfbench-spans/`. The last line of stdout is the result
object; the exit code is non-zero when a build fails or any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % done.returncode)


def run(binary, argv):
    """Runs one benchmark binary; returns its stdout lines and exit code."""
    done = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    return lines, done.returncode


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(target_dir)
    bin_dir = os.path.join(target_dir, "release")
    common = ["--workload", args.workload, "--seed", args.seed]

    if args.trace == "0":
        lines, code = run(os.path.join(bin_dir, "perfbench"),
                          common + ["--seconds", str(args.seconds)])
        print("\n".join(lines))
        sys.exit(code)

    half = str(args.seconds / 2)
    lines, code = run(os.path.join(bin_dir, "perfbench"), common + ["--seconds", half])
    untraced = result_of(lines)
    for line in lines[:-1]:
        print("# untraced " + line.lstrip("# "))
    if code != 0 or untraced is None:
        sys.exit("perfbench: untraced run failed (exit %d)" % code)
    wall = untraced["metrics"]["cell_wall_s"]["value"]
    spans = os.path.join(target_dir, "perfbench-spans",
                         "%s-seed%s.jsonl" % (args.workload, args.seed))
    lines, code = run(os.path.join(bin_dir, "perfbench-trace"),
                      common + ["--seconds", half, "--untraced-cell-wall-s", repr(wall),
                                "--spans-out", spans])
    traced = result_of(lines)
    print("\n".join(lines[:-1]))
    if traced is None:
        sys.exit("perfbench: traced run printed no result (exit %d)" % code)
    # One invocation: its attempts and failures cover both runs.
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    traced["correct"] = traced["correct"] and untraced["correct"]
    print(json.dumps(traced))
    sys.exit(code)


if __name__ == "__main__":
    main()
