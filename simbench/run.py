#!/usr/bin/env python3
"""Builds the simulator benchmark from source, then runs it.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 simbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 simbench/run.py --selfcheck

The first form builds simbench/.build (incrementally) and hands its
arguments to the simbench binary, whose last stdout line is the JSON result.
The second runs the four workloads in turn and prints one result line per
workload. The third runs every workload at reduced size and checks the
output against BENCHMARK.json (see README.md).
"""
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")
BINARY = os.path.join(BUILD, "simbench")


def build():
    """Configures (once) and builds simbench; build output goes to stderr."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            sys.exit(f"simbench: build step failed: {' '.join(cmd)}")


def fix_layout():
    """Turns off address-space randomisation for simbench. With it on, the
    same code ran up to 1.4x slower in some processes than in others,
    depending on where its stack and heap landed (README.md)."""
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xffffffff)
    if current == -1 or libc.personality(current | addr_no_randomize) == -1:
        print("simbench: cannot turn off address-space randomisation",
              file=sys.stderr)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_json(args):
    """Runs simbench and parses its last stdout line."""
    out = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def selfcheck():
    """Reduced-size pass of every workload: each metric BENCHMARK.json names
    is emitted with its unit, no operation fails, and a corrupted expected
    kv_real value is reported as a failed operation."""
    spec = load_spec()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    base = ["--seed", "7", "--seconds", "0", "--scale", "0.02"]
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run_json(["--workload", w["name"], "--trace", str(trace)] + base)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{w['name']} trace {trace}: metrics {got} != {wanted[trace]}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            print(f"selfcheck {w['name']} trace {trace}: "
                  f"{res['attempted']} ops, {res['failed']} failed")
    res = run_json(["--workload", "kv_real", "--trace", "0", "--corrupt-kv"] + base)
    if res["correct"] or res["failed"] < 1:
        problems.append("kv_real: a corrupted expected value was not reported as failed")
    print(f"selfcheck kv_real corrupted: {res['failed']} of {res['attempted']} failed")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


def run_all(args):
    """Runs every workload with the same arguments, one result line each."""
    i = args.index("--workload") + 1
    correct = True
    for w in load_spec()["workloads"]:
        res = run_json(args[:i] + [w["name"]] + args[i + 1:])
        correct = correct and res["correct"]
        print(w["name"], json.dumps(res))
    return 0 if correct else 1


def main():
    build()
    fix_layout()
    args = sys.argv[1:]
    if args == ["--selfcheck"]:
        sys.exit(selfcheck())
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        sys.exit(run_all(args))
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
