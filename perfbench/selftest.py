"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a twmark checkout; takes well under a minute. For every
workload in BENCHMARK.json it runs run.py untraced and traced on tiny
configs and checks that
  - the last stdout line has exactly the result keys, with the right types;
  - the metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) lists, and the gates pass;
  - the traced and untraced runs wrote identical output digests;
and that run.py fails without a result outside a checkout.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

OUT_DIR = ".bench_out"


def run_bench(workload, trace, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(line, spec, problems, label):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        problems.append(f"{label}: correct is {result['correct']!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{label}: {key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"{label}: attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{label}: metrics missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name):
            problems.append(f"{label}: {name} is {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{label}: {name} value {m['value']!r}")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import run

    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        problems.append(f"workloads {names} != run.py's {list(run.WORKLOADS)}")
    for key, spec in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        if declared != list(spec):
            problems.append(f"BENCHMARK.json {key} differs from run.py")

    for workload in names:
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            check_result(lines[-1], bench[key], problems, label)
            record = os.path.join(OUT_DIR, f"{workload}-seed0-trace{trace}-toy.json")
            with open(record) as fh:
                digests.append(json.load(fh)["digests"])
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: traced digests {digests[1]} != "
                            f"untraced {digests[0]}")
        print(f"{workload}: checked", flush=True)

    # outside a checkout (only BENCHMARK.json and perfbench/) it must fail
    bare = os.path.join(OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(names[0], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[-200:]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
