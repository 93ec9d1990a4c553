#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The build goes to _build/ there
(with dune's shared cache off, so nothing is written outside the tree).
The harness prints every metric by name and unit and, as the last line
of its standard output, one JSON object with the keys correct,
attempted, failed and metrics. --selftest runs the harness's own tests
and checks that BENCHMARK.json names exactly the metrics and workloads
the harness reports.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "xqbench.exe")
BUILD_TIMEOUT = 850  # the first run in a fresh tree compiles everything
RUN_TIMEOUT = 170  # a run must end within 180 s


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/xqbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.exit(f"build failed (dune exit code {r.returncode})")


def harness(args, timeout=RUN_TIMEOUT):
    """Run the harness; return its standard output, exit on failure."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"harness exceeded {timeout} s")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(r.returncode)
    return r.stdout


def check_spec():
    """BENCHMARK.json against the harness's own metric table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in harness(["--list"]).splitlines():
        kind, name, unit = line.split()
        table[kind].append([name, unit])
    problems = []
    for key, kind in (("end_to_end", "end_to_end"), ("per_layer", "per_layer"),
                      ("workloads", "workload")):
        declared = [[m["name"], m.get("unit", "-")] for m in spec[key]]
        if declared != table[kind]:
            problems.append(f"BENCHMARK.json {key} {declared} != harness {table[kind]}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("no setup_s end-to-end metric")
    for p in problems:
        print("FAIL " + p)
    return not problems


def main():
    build()
    if sys.argv[1:] == ["--selftest"]:
        harness(["--selftest"])
        sys.exit(0 if check_spec() else 1)
    out = harness(sys.argv[1:])
    last = out.strip().splitlines()[-1] if out.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit("harness printed no result line")
    if not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
