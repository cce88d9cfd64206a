#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload api-calls --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --selftest                   # tiny sizes, checks the benchmark

Run it from the root of the repository. It builds perfbench/main.exe with
dune inside the repository (build files go to _build/), runs it, checks
that the result line names exactly the metrics BENCHMARK.json lists, and
prints the program's output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of the repository")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    try:
        proc = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")

    # Keep every build output inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)

    if args.selftest:
        proc = run([EXE, "--selftest"], env)
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    if args.workload == "all":
        run_all(args, env)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = run(cmd, env)
    result = result_line(proc)
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(proc.stdout, file=sys.stderr)
        fail(f"result metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}", 1)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


def run(cmd, env):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)


def result_line(proc):
    try:
        return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout, file=sys.stderr)
        fail("no result line", 1)


def run_all(args, env):
    """Every workload, each in its own process, then one combined line
    with every end-to-end and workload metric, named <workload>/<metric>."""
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        proc = run([EXE, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", "0", "--named"], env)
        result = result_line(proc)
        sys.stdout.write("\n".join(proc.stdout.rstrip("\n").split("\n")[:-1]) + "\n")
        sys.stdout.flush()
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
        code = code or proc.returncode
    print(json.dumps(combined))
    sys.exit(code)


if __name__ == "__main__":
    main()
