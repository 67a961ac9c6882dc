"""twmark benchmark harness: each workload in a fresh process.

    python3 perfbench/run.py --workload train_k32 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Run it from the root of a twmark checkout. The workload runs in a child
process with one BLAS thread and TWMARK_WORKERS unset (its default); this
process waits for it, reads its raw samples and prints every metric with
its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.
End-to-end times are rescaled to a fixed machine speed (see gauge.py);
per-layer times are raw. A run record (versions, config hash, sample
counts, digests, raw end-to-end times) is written beside the spans under
.bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1
WORKLOADS = ("train_k32", "sweep_k128", "attack_grid")

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"),
    ("round_ms.p50", "ms"), ("round_ms.tail", "ms"),
    ("verify_ms.p50", "ms"), ("verify_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
]

ATTACK_KINDS = ("finetune", "adaptive_finetune", "prune_magnitude",
                "prune_structured", "quantize", "distill")
PER_LAYER = (
    [("secagg.secagg_sum.s", "s"), ("secagg.secagg_sum.calls", "count"),
     ("secagg.secagg_scalar.s", "s"), ("secagg.secagg_scalar.calls", "count"),
     ("secagg.pair_masks", "count"), ("secagg.mask_bytes", "B"),
     ("flsim.gen_dataset.s", "s"),
     ("flsim.local_train.s", "s"), ("flsim.local_train.calls", "count"),
     ("flsim.forward_backward.s", "s"), ("flsim.forward_backward.calls", "count"),
     ("flsim.evaluate.s", "s"), ("flsim.evaluate.calls", "count"),
     ("protocol.embed_round.s", "s"), ("protocol.embed_round.calls", "count"),
     ("protocol.run_baseline.s", "s"), ("protocol.rounds_skipped", "count"),
     ("field.encode.s", "s"), ("field.encode.calls", "count"),
     ("field.decode.s", "s"), ("field.inner.calls", "count"),
     ("sharing.shamir_share.s", "s"), ("sharing.shamir_share.calls", "count"),
     ("sharing.lagrange_at_zero.s", "s"), ("sharing.lagrange_at_zero.calls", "count"),
     ("keysetup.setup_dkg.s", "s"), ("keysetup.setup_trusted_dealer.s", "s"),
     ("keysetup.dkg_messages", "count"), ("keysetup.dkg_payload_bytes", "B"),
     ("keysetup.save_share.s", "s"),
     ("keysetup.load_share.s", "s"), ("keysetup.load_share.calls", "count"),
     ("verify.partial_inner.s", "s"), ("verify.partial_inner.calls", "count"),
     ("verify.coalition_statistic.s", "s"),
     ("verify.coalition_statistic.calls", "count"),
     ("verify.calibrate.s", "s")]
    + [(f"attacks.{k}.s", "s") for k in ATTACK_KINDS]
    + [("attacks.checkpoints", "count"),
       ("experiments.run_plain_fedavg.s", "s"), ("experiments.save_trajectory.s", "s"),
       ("experiments.write_csv.s", "s"), ("experiments.load_run.s", "s"),
       ("experiments.bytes_written", "B"),
       ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
)


def tail(samples) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it. Below 21 samples no percentile above the
    median qualifies, and the median is returned."""
    n, i = len(samples), len(samples) - 11
    if i < n // 2:
        return statistics.median(samples), 50.0, n // 2
    return sorted(samples)[i], 100.0 * (n - 10) / n, 10


def latency(name, samples_s, notes, metrics):
    ms = [1000.0 * x for x in samples_s]
    value, pct, beyond = tail(ms)
    metrics[f"{name}.p50"] = statistics.median(ms)
    metrics[f"{name}.tail"] = value
    notes[f"{name}.p50"] = f"n={len(ms)}"
    notes[f"{name}.tail"] = f"p{pct:.1f} n={len(ms)} beyond={beyond}"


def end_to_end(raw, peak_rss_mb, kind="rescaled") -> tuple:
    """Metrics from the gauge-rescaled times (kind="rescaled") or the raw ones."""
    walls = [j["wall"][kind][0] for j in raw["jobs"] if not j["traced"]]
    metrics = {"setup_s": statistics.median(raw["setup"][kind]),
               "wall_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb}
    notes = {"setup_s": f"median of {len(raw['setup'][kind])} setups",
             "wall_s": f"median of {len(walls)} jobs", "peak_rss_mb": "workload process"}
    latency("round_ms", raw["round"][kind], notes, metrics)
    latency("verify_ms", raw["verify"][kind], notes, metrics)
    return metrics, notes


def per_layer(raw) -> tuple:
    """Self times: median over setup repetitions plus median over traced
    jobs. Counters: one setup plus one job; they must repeat exactly."""
    phases = {"setup": [p for p in raw["self_s"] if p.startswith("setup")],
              "job": [j["phase"] for j in raw["jobs"] if j["traced"]]}
    metrics, problems = {}, []
    for name, unit in PER_LAYER:
        if unit == "s" and not name.startswith("trace."):
            layer = name[:-2]
            metrics[name] = sum(
                statistics.median(raw["self_s"].get(p, {}).get(layer, 0.0) for p in ps)
                for ps in phases.values())
    for kind, ps in phases.items():
        counts = [raw["counters"].get(p, {}) for p in ps]
        if any(c != counts[0] for c in counts[1:]):
            problems.append(f"{kind} counters differ between repetitions")
        for name, unit in PER_LAYER:
            if unit != "s":
                metrics[name] = metrics.get(name, 0) + counts[0].get(name, 0)
    traced = [j["wall"]["raw"][0] for j in raw["jobs"] if j["traced"]]
    untraced = [j["wall"]["raw"][0] for j in raw["jobs"] if not j["traced"]]
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, problems


def _source_sha() -> str:
    h = hashlib.sha256()
    src = os.path.join("src", "twmark")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(workload, seed, seconds, trace, scale):
    """Run one workload in a fresh child and print its lines; returns the
    result object, or an exit code when the run produced no result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}-{scale}"
    result_path = os.path.join(OUT_DIR, tag + ".raw.json")
    workdir = os.path.join(OUT_DIR, tag + ".work")
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    env.pop("TWMARK_WORKERS", None)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale, "--result", result_path,
           "--workdir", workdir]
    # the child's stdout goes to stderr: the result line must be the last one
    child = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        # wait4 gives this child's own peak RSS
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                child.kill()
                os.wait4(child.pid, 0)
                print(f"error: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
                return 3
            time.sleep(0.05)
    finally:
        child.returncode = -1   # reaped here, not by Popen
        shutil.rmtree(workdir, ignore_errors=True)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"error: workload process exited with {code}", file=sys.stderr)
        return 3
    peak_rss_mb = usage.ru_maxrss / 1024.0
    with open(result_path) as fh:
        raw = json.load(fh)
    os.remove(result_path)

    jobs = raw["jobs"]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["attempted"] - j["done"] + len(j["wrong"]) for j in jobs)
    problems = [w for j in jobs for w in j["wrong"]]
    problems += [f"{j['phase']}: raised" for j in jobs if j["error"]]
    digests = {j["phase"]: j["digests"] for j in jobs}
    if len({json.dumps(d, sort_keys=True) for d in digests.values()}) != 1:
        problems.append("jobs of one seed produced different outputs")
        failed += 1

    units = dict(END_TO_END + PER_LAYER)
    try:
        if trace:
            metrics, counter_problems = per_layer(raw)
            problems += counter_problems
            failed += len(counter_problems)
            notes, spec = {}, PER_LAYER
            raw_metrics = None
        else:
            metrics, notes = end_to_end(raw, peak_rss_mb)
            raw_metrics, _ = end_to_end(raw, peak_rss_mb, kind="raw")
            spec = END_TO_END
    except statistics.StatisticsError:
        print(f"error: no samples to measure; problems: {problems}", file=sys.stderr)
        return 3
    metrics = {name: metrics[name] for name, _ in spec}
    correct = not problems and failed == 0

    spans_path = os.path.join(OUT_DIR, tag + ".spans.json")
    if trace:
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": raw.pop("spans")}, fh)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "twmark_workers": "default (unset)",
        "versions": raw["versions"], "git_commit": _git_commit(),
        "source_sha256": _source_sha(), "config_hash": raw["config_hash"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "digests": next(iter(digests.values())), "metrics": metrics, "notes": notes,
        "raw_metrics": raw_metrics, "gauge_ms": raw["gauge_ms"],
        "missing_trace_targets": raw.get("missing_targets"),
        "jobs": [{k: j[k] for k in ("phase", "traced", "wall", "attempted", "done")}
                 for j in jobs],
    }
    record_path = os.path.join(OUT_DIR, tag + ".json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload} seed {seed} config {raw['config_hash']} "
          f"nproc {os.cpu_count()} blas_threads {BLAS_THREADS}")
    for phase, d in digests.items():
        print(f"digest {phase} theta={d.get('theta')} csv={d.get('csv')}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:36s} {value:>16.6f} {units[name]:5s} {note}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6f}")
    for problem in problems:
        print(f"problem: {problem}")
    if raw.get("missing_targets"):
        print(f"not traced, absent from the program: {raw['missing_targets']}")
    print(f"record {record_path}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="twmark benchmark: one workload per call")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="all: every workload in turn, metrics named <workload>.<metric>")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy: tiny configs for the harness self-test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "twmark", "__init__.py")):
        print("error: run from the root of a twmark checkout (src/twmark missing)",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace, args.scale)
        if isinstance(result, int):
            return result
        results[workload] = result
    if len(results) == 1:
        (combined,) = results.values()
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
