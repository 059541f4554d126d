#!/usr/bin/env python3
"""Study-replay benchmark: the whole crowd study, per serving configuration.

Usage (from the repository root):

    python3 perfbench/run.py --workload clean_inproc --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 0

Builds perfbench/ (the middleware libraries from src/ plus the C++ replay
program) in Release under .bench_build/, then replays the study in fresh
replay processes, each on a population generated from a sub-seed of
--seed, until --seconds have passed and the workload's minimum number of
replays (MIN_REPLAYS) is reached. Workload configurations live in
workloads.json.

--trace 0 prints the end-to-end metrics. The central figures average
over the run's replays and the tail figures pool their samples (see
end_to_end for why).
    setup_s         mean set-up wall time (population generation to the
                    first kernel event)
    obs_per_s       stored observations / kernel wall time, summed over
                    the replays
    bytes_per_obs   median of (VmHWM - VmRSS before set-up) / stored
    recover_p50_ms  mean of each replay's median recovery wall time
    recover_p90_ms  p90 of every replay's recoveries pooled. Recoveries
                    are ServerLifecycle recoveries: the scheduled
                    server-kill recoveries on journaled_kills; elsewhere
                    ten post-run drills per replay: a fresh
                    ServerLifecycle snapshots the final store, then each
                    crash/recover restores that snapshot (on fleet3 a node
                    fails over instead)
    read_p50_ms     mean of each replay's median read latency
    read_p99_ms     p99 of every replay's reads pooled. Reads are the
                    operator read mix through GoFlowRestApi::handle on the
                    cold final store; on fleet3 each read fans out to every
                    node
--trace 1 alternates untraced and traced replays and prints the per-layer
metrics (workloads.json "layers"), each layer's share of kernel wall time
and the tracing overhead.

Every replay ends with study::check_invariants and a books check
(recorded = stored + on device or in flight and not yet stored + not
shared + in server).
Lost, duplicated or reordered observations and non-200 reads are failed
operations; attempted operations are observations recorded plus reads.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# No replay starts after MAX_RUN_S and none may take longer than
# REPLAY_TIMEOUT_S, so a run always ends within the 180 s it is allowed.
MAX_RUN_S = 120.0
REPLAY_TIMEOUT_S = 50.0
# Untimed runs pool at least this many replays: 1000 reads (p99 has ten
# above it) and, from the post-run drills, 100 recoveries (p90 likewise).
MIN_REPLAYS = 10

END_TO_END = [
    ("setup_s", "s"), ("obs_per_s", "obs/s"), ("bytes_per_obs", "B"),
    ("recover_p50_ms", "ms"), ("recover_p90_ms", "ms"),
    ("read_p50_ms", "ms"), ("read_p99_ms", "ms"),
]

# Layers whose replayed wall time is subtracted from kernel wall time;
# what remains is sim + client + phone (sim.unattributed_s).
REPLAYED_LAYERS = ["crowd", "ingest", "net", "broker", "core", "docstore",
                   "durable", "shard"]



def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def results_dir():
    """Result records and span files, next to the build tree."""
    out = build_dir().parent / "perfbench-results"
    out.mkdir(parents=True, exist_ok=True)
    return out


def build():
    """Configures and builds the replay program in Release; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no middleware sources next to perfbench/ (src/CMakeLists.txt)", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1)),
              "--target", "perfbench_replay"]]
    with open(log, "w") as f:
        for step in steps:
            if subprocess.run(step, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "perfbench_replay"


def load_workloads():
    with open(HERE / "workloads.json") as f:
        return json.load(f)


def replay_args(name, spec, seed, mode, digest=False, trace_out=None):
    c = spec["config"]
    args = ["--workload", name, "--seed", str(seed),
            "--device-scale", str(c["device_scale"]),
            "--target-obs", str(c["target_obs"]), "--days", str(c["days"]),
            "--profile", c["profile"],
            "--journaled", "1" if c["journaled"] else "0",
            "--shards", str(c["shards"]),
            "--socket", "1" if c["socket"] else "0",
            "--snapshot-hours", str(c["snapshot_hours"]),
            "--mode", mode]
    if digest:
        args += ["--digest", "1"]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    return args


def run_replay(binary, args):
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"a replay took longer than {REPLAY_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        fail(f"replay exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sub_seed(seed, k):
    return seed * 1000 + k


def provenance(sample):
    prov = dict(sample["provenance"])
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    prov["git_commit"] = commit or "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    prov["src_sha256"] = digest.hexdigest()
    prov["nproc"] = os.cpu_count()
    return prov


def replay_ok(r):
    return r["ok"] and r["values"]["read_failed"] == 0


def failed_ops(r):
    v = r["values"]
    failed = int(v["lost"] + v["duplicated"] + v["reordered"] + v["read_failed"])
    if not r["books_closed"] and failed == 0:
        failed = 1  # an unexplained books gap is a failed operation too
    return failed


def mean_of_medians(replays, key):
    """The mean over the replays of each one's median sample."""
    return statistics.mean(statistics.median(r[key]) for r in replays if r[key])


def end_to_end(replays):
    """Central figures average over the run's replays. The host is shared
    and its slow episodes outlast a replay; one replay's samples sit close
    together, so a median of the pooled samples jumps from the fast to the
    slow host state once slow replays are half the run, where an average
    moves with their share. Tail figures pool every replay's samples."""
    recover = [x for r in replays for x in r["recover_ms"]]
    reads = [x for r in replays for x in r["read_ms"]]
    if not recover or not reads:
        fail("a replay produced no recoveries or no reads")
    return {
        "setup_s": statistics.mean(r["values"]["setup_s"] for r in replays),
        "obs_per_s": (sum(r["values"]["stored"] for r in replays)
                      / sum(r["values"]["kernel_s"] for r in replays)),
        "bytes_per_obs": statistics.median(
            r["values"]["bytes_per_obs"] for r in replays),
        "recover_p50_ms": mean_of_medians(replays, "recover_ms"),
        "recover_p90_ms": percentile(recover, 0.90),
        "read_p50_ms": mean_of_medians(replays, "read_ms"),
        "read_p99_ms": percentile(reads, 0.99),
    }, {"recover_samples": len(recover), "read_samples": len(reads)}


def layer_metrics(r, spec, layer_map):
    """Per-layer metrics of one traced replay: every metric workloads.json
    lists, from the registry counters or the layer replay (0 where the
    workload bypasses the layer), then the derived ones."""
    v, counters, layers = r["values"], r["counters"], r["layers"]
    m = {name: counters.get(name, layers.get(name, 0.0))
         for info in layer_map.values() for name in info["metrics"]}
    m["crowd.generate_s"] = v["generate_s"]
    m["study.build_s"] = v["build_s"]
    m["study.lost"] = v["lost"]
    m["study.duplicated"] = v["duplicated"]
    m["study.reordered"] = v["reordered"]
    rec = counters.get("durable.recoveries", 0.0)
    m["durable.replayed_per_recovery"] = (
        counters.get("durable.replayed_records", 0.0) / rec if rec else 0.0)
    kernel = v["kernel_s"]
    times = {layer: layers.get(f"time.{layer}_s", 0.0) for layer in REPLAYED_LAYERS}
    # Bracketed kill/recover/snapshot events: durable work on one server,
    # mirrored snapshots (snapshot_all) on a fleet.
    events = layers.get("time.events_s", 0.0)
    times["shard" if spec["config"]["shards"] > 1 else "durable"] += events
    unattributed = kernel - sum(times.values())
    for layer, t in times.items():
        m[f"{layer}.share"] = t / kernel
    m["sim.kernel_s"] = kernel
    m["sim.unattributed_s"] = unattributed
    m["sim.unattributed_share"] = unattributed / kernel
    m["sim.replay_exceeds_kernel"] = 1.0 if unattributed < 0 else 0.0
    return m


def per_layer(untraced, traced, spec, layer_map):
    rows = [layer_metrics(r, spec, layer_map) for r in traced]
    out = {n: statistics.median(row[n] for row in rows) for n in rows[0]}
    # How many traced replays summed their layers above kernel wall.
    out["sim.replay_exceeds_kernel"] = sum(row["sim.replay_exceeds_kernel"]
                                           for row in rows)
    rate = lambda rs: statistics.median(
        r["values"]["stored"] / r["values"]["kernel_s"] for r in rs)
    out["obs.trace_overhead"] = rate(traced) / rate(untraced)
    return out


def unit_of(name):
    if name.endswith("_ns") or "_ns_per_" in name:
        return "ns"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("share") or name == "obs.trace_overhead":
        return "ratio"
    return "count"


def print_layer_report(name, metrics, spec, layer_map):
    kernel = metrics["sim.kernel_s"]
    print(f"== {name}: traced kernel wall {kernel:.4f} s, tracing overhead "
          f"{metrics['obs.trace_overhead']:.4f}x obs/s (traced / untraced)")
    print(f"   {'layer':<10} {'time_s':>10} {'share':>8}")
    for layer in REPLAYED_LAYERS:
        share = metrics[f"{layer}.share"]
        print(f"   {layer:<10} {share * kernel:>10.4f} {share:>8.1%}")
    print(f"   {'sim+client+phone (unattributed)':<10} "
          f"{metrics['sim.unattributed_s']:.4f} s "
          f"({metrics['sim.unattributed_share']:.1%})")
    if metrics["sim.unattributed_s"] < 0:
        print("   FLAG: replayed layer times exceed the traced kernel wall "
              "(negative sim.unattributed_s): the replay does not represent "
              "this run")
    elif metrics["sim.replay_exceeds_kernel"]:
        print(f"   note: {metrics['sim.replay_exceeds_kernel']:.0f} traced "
              "replay(s) summed their layers above kernel wall")
    exercised = set(spec["exercises"])
    for layer, info in layer_map.items():
        state = "" if layer in exercised else "  (bypassed by this workload)"
        print(f"   [{layer}]{state}")
        for metric in info["metrics"]:
            print(f"      {metric:<36} {metrics[metric]:.6g} {unit_of(metric)}")


def run_workload(name, spec, catalog, binary, args):
    """Runs one workload for args.seconds, prints its report and returns
    (correct, attempted, failed, metrics)."""
    start = time.monotonic()
    untraced, traced = [], []
    k = 0
    while True:
        elapsed = time.monotonic() - start
        want_traced = args.trace == 1 and k % 2 == 1
        # Traced runs need only enough untraced replays for the overhead.
        enough = (len(untraced) >= MIN_REPLAYS if args.trace == 0
                  else len(untraced) >= 2 and len(traced) >= 2)
        if (enough and elapsed >= args.seconds) or elapsed >= MAX_RUN_S:
            break
        spans = (results_dir() / f"spans-{name}-{sub_seed(args.seed, k)}.json"
                 if want_traced else None)
        r = run_replay(binary, replay_args(
            name, spec, sub_seed(args.seed, k),
            "traced" if want_traced else "timed", trace_out=spans))
        (traced if want_traced else untraced).append(r)
        k += 1
    replays = untraced + traced
    if not untraced or (args.trace == 1 and not traced):
        fail("no replay finished within the time limit")

    attempted = sum(int(r["values"]["recorded"]) + len(r["read_ms"])
                    for r in replays)
    failed = sum(failed_ops(r) for r in replays)
    correct = failed == 0 and all(replay_ok(r) for r in replays)
    prov = provenance(replays[0])
    print("provenance: " + json.dumps(prov, sort_keys=True))

    if args.trace == 0:
        values, samples = end_to_end(untraced)
        units = dict(END_TO_END)
        print(f"== {name}: {len(untraced)} replays, "
              f"{samples['recover_samples']} recoveries, "
              f"{samples['read_samples']} reads, {attempted} attempted, "
              f"{failed} failed")
        for metric, _ in END_TO_END:
            print(f"   {metric:<16} {values[metric]:.6g} {units[metric]}")
        metrics = {n: {"value": values[n], "unit": units[n]} for n, _ in END_TO_END}
    else:
        values = per_layer(untraced, traced, spec, catalog["layers"])
        print_layer_report(name, values, spec, catalog["layers"])
        print(f"   {attempted} attempted, {failed} failed")
        metrics = {n: {"value": v, "unit": unit_of(n)}
                   for n, v in sorted(values.items())}

    if correct:
        record = {"workload": name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "provenance": prov, "replays": len(replays),
                  "metrics": metrics}
        (results_dir() / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    catalog = load_workloads()
    names = (list(catalog["workloads"]) if args.workload == "all"
             else [args.workload])
    for name in names:
        if name not in catalog["workloads"]:
            fail(f"unknown workload {name!r}; known: "
                 + ", ".join(catalog["workloads"]) + ", all", 2)
    binary = build()

    results = {name: run_workload(name, catalog["workloads"][name], catalog,
                                  binary, args)
               for name in names}
    if len(names) == 1:
        metrics = results[names[0]][3]
    else:  # every workload's metrics, prefixed with its name
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": metrics}))


if __name__ == "__main__":
    main()
