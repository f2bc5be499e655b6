#!/usr/bin/env python3
"""The simulator's benchmark: run one workload, check its outputs, and
print every metric by name and unit.

    python3 perfbench/run.py --workload paper|openloop|fork
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds perfbench_child (this
directory's CMakeLists.txt, over ../src) into .bench_build/perfbench,
then starts one child process per workload run, so every run's peak
RSS is its own. With --trace 0 the final stdout line is a JSON object
with the end-to-end metrics of BENCHMARK.json; with --trace 1 it holds
the per-layer metrics, taken from traced runs that alternate with
untraced ones (their difference is the tracing overhead). The lines
above it are a human-readable table. README.md in this directory
defines every workload and metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "openloop", "fork")

# Span name -> per-layer timing metric. Each gets <metric> (seconds per
# run), <metric>.p50 (median call) and <metric>.n (calls per run).
TIMINGS = (
    ("campaign.parse", "campaign.parse_s"),
    ("campaign.run", "campaign.run_s"),
    ("campaign.trigger", "campaign.trigger_s"),
    ("faas.build", "faas.build_s"),
    ("faas.begin", "faas.begin_s"),
    ("faas.lanes", "faas.lanes_s"),
    ("faas.fold", "faas.fold_s"),
    ("faas.window", "faas.window_s"),
    ("faas.totals", "faas.totals_s"),
    ("snap.capture", "snap.capture_s"),
    ("snap.parse", "snap.parse_s"),
    ("snap.restore", "snap.restore_s"),
    ("faas.resume", "fork.suffix_s"),
)
LAYERS = ("bench", "campaign", "faas", "snap")

# The committed-seed events count of the openloop workload (the
# loadgen_slo_sweep golden's events_processed).
OPENLOOP_EVENTS = 21868495
PAPER_CAMPAIGNS = 22


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest of p99/p90 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return "p%d" % q, statistics.quantiles(values, n=100)[q - 1]
    return None


def checkout_env(out_dir):
    """The environment for every process the benchmark starts: no EAAO_*
    knob leaks in, and temporary files stay inside the checkout."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("EAAO_")}
    env["TMPDIR"] = tmp
    return env


def build():
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              env=checkout_env(out_dir))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(step), 2)
    return out_dir, os.path.join(build_dir, "perfbench_child")


class Child:
    """One finished perfbench_child process."""

    def __init__(self, result, wall_s, rss_mb, cpu_s, traced):
        self.result = result
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.cpu_s = cpu_s
        self.traced = traced

    def __getitem__(self, key):
        return self.result[key]


class Runner:
    def __init__(self, exe, out_dir, workload, seed):
        self.exe = exe
        self.workload = workload
        self.seed = seed
        self.threads = min(4, len(os.sched_getaffinity(0)))
        tag = "%s-seed%s" % (workload, "default" if seed is None else seed)
        self.ref_dir = os.path.join(out_dir, "runs", "%s-%d" % (tag, os.getpid()))
        self.trace_stem = os.path.join(out_dir, "traces", tag)
        os.makedirs(self.ref_dir, exist_ok=True)
        os.makedirs(os.path.dirname(self.trace_stem), exist_ok=True)
        self.env = checkout_env(out_dir)
        self.runs = 0
        self.trace_files = []

    def child(self, mode, threads, traced=False):
        args = [self.exe, "--workload", self.workload, "--mode", mode,
                "--root", ROOT, "--ref-dir", self.ref_dir,
                "--threads", str(threads), "--run-id", str(self.runs)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        if traced:
            path = "%s-run%d.trace.json" % (self.trace_stem, self.runs)
            args += ["--trace-out", path]
            self.trace_files.append(path)
        self.runs += 1
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(args + ["--t0-ns", str(t0)], stdout=subprocess.PIPE,
                                env=self.env)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = (time.monotonic_ns() - t0) / 1e9
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            fail("%s run of %s exited with %d" % (mode, self.workload, proc.returncode))
        result = json.loads(stdout.decode().strip().splitlines()[-1])
        return Child(result, wall_s, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime, traced)

    def measure(self, seconds, trace):
        """Reference run, then timed runs for at least `seconds` (and
        at least two), then set-up-only runs."""
        self.child("reference", 1)
        timed = []
        start = time.monotonic()
        while len(timed) < 2 or time.monotonic() - start < seconds:
            timed.append(self.child("timed", self.threads,
                                    traced=trace and len(timed) % 2 == 0))
        # About two seconds of set-up samples: 25 when set-up is cheap.
        setups = [c["setup_s"] for c in timed]
        wanted = min(25, max(3, math.ceil(2.0 / median(setups))))
        while len(setups) < wanted:
            setups.append(self.child("setup", self.threads)["setup_s"])
        shutil.rmtree(self.ref_dir, ignore_errors=True)
        return timed, setups


def end_to_end(children, setups):
    units = [u for c in children for u in c["units_s"]]
    walls = [c.wall_s for c in children]
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        # The highest of the runs: which pool worker grows which malloc
        # arena varies run to run, so one run's peak is bimodal.
        "peak_rss_mb": (max(c.rss_mb for c in children), "MB"),
        "arrivals_per_s": (median([c["arrivals"] / (c.wall_s - c["setup_s"])
                                   for c in children]), "1/s"),
        "fork_s": (median(units), "s"),
    }, {"wall_s": walls, "fork_s": units, "setup_s": setups}


def per_layer(traced, untraced):
    metrics = {}
    samples = {}
    for span, name in TIMINGS:
        per_run = [c["spans"].get(span, []) for c in traced]
        pooled = [v for run in per_run for v in run]
        metrics[name] = (median([sum(run) for run in per_run]), "s")
        metrics[name + ".p50"] = (median(pooled), "s")
        metrics[name + ".n"] = (median([len(run) for run in per_run]), "count")
        samples[name + ".p50"] = pooled
    window = samples["faas.window_s.p50"]
    metrics["faas.window_s.max"] = (max(window) if window else 0.0, "s")

    names = sorted({n for c in traced for n in c["campaign_run_s"]})
    for name in names:
        metrics["campaign.run_s." + name] = (
            median([c["campaign_run_s"][name] for c in traced]), "s")

    first = traced[0]
    metrics["sim.events"] = (first["events"], "count")
    metrics["sim.events_cancelled"] = (first["events_cancelled"], "count")
    metrics["faas.windows"] = (first["windows"], "count")
    metrics["faas.instances"] = (first["instances"], "count")
    metrics["snap.image_bytes"] = (first["image_bytes"], "bytes")
    metrics["faas.lane_ns_per_event"] = (median([
        sum(c["spans"].get("faas.lanes", [])) * 1e9 / c["window_events"]
        for c in traced if c["window_events"]]), "ns")

    def restore_share(c):
        restore = sum(c["spans"].get("snap.restore", []))
        resume = sum(c["spans"].get("faas.resume", []))
        return restore / (restore + resume) if restore + resume else 0.0

    metrics["snap.restore_share"] = (median([restore_share(c) for c in traced]), "ratio")
    metrics["exp.parallelism"] = (median([c.cpu_s / c.wall_s for c in untraced]), "ratio")
    for layer in LAYERS:
        metrics["self_s." + layer] = (
            median([c["self_s"].get(layer, 0.0) for c in traced]), "s")
    metrics["trace.overhead_s"] = (
        median([c.wall_s for c in traced]) - median([c.wall_s for c in untraced]), "s")
    metrics["trace.spans"] = (median([c["span_count"] for c in traced]), "count")
    return metrics, samples


def deterministic_counts(children):
    keys = ("events", "events_cancelled", "windows", "instances", "image_bytes", "arrivals")
    return len({tuple(c[k] for k in keys) for c in children}) == 1


def print_table(title, metrics, samples):
    print(title)
    for name in metrics:
        value, unit = metrics[name]
        note = ""
        if name in samples and samples[name]:
            note = "n=%d" % len(samples[name])
            extra = tail(samples[name])
            if extra:
                note += ", %s %.6g" % extra
        print("  %-44s %16.6f %-6s %s" % (name, value, unit, note))


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def report(metrics, section):
    out = {}
    for name, unit in declared(section):
        if name not in metrics:
            # Only paper runs campaigns; elsewhere they took no time.
            if not name.startswith("campaign.run_s."):
                fail("metric %s was not measured" % name)
            metrics[name] = (0.0, unit)
        value, have = metrics[name]
        if have != unit:
            fail("metric %s is in %s, BENCHMARK.json says %s" % (name, have, unit))
        out[name] = {"value": value, "unit": unit}
    return out


def run(args):
    out_dir, exe = build()
    runner = Runner(exe, out_dir, args.workload, args.seed)
    timed, setups = runner.measure(args.seconds, args.trace == 1)
    untraced = [c for c in timed if not c.traced]
    traced = [c for c in timed if c.traced]

    attempted = sum(c["checks"] for c in timed) + 1
    failed = sum(c["failed"] for c in timed)
    if not deterministic_counts(timed):
        print("perfbench: simulated counts differ between runs", file=sys.stderr)
        failed += 1

    print("perfbench %s: seed %s, %d threads, %d runs (%d traced), %d set-up runs" % (
        args.workload, "committed" if args.seed is None else args.seed,
        runner.threads, len(timed), len(traced), len(setups)))
    e2e, e2e_samples = end_to_end(untraced, setups)
    e2e["failed_frac"] = (failed / attempted, "ratio")
    print_table("end-to-end (untraced runs; %d of %d checked outputs failed)"
                % (failed, attempted), e2e, e2e_samples)
    if traced:
        layer, layer_samples = per_layer(traced, untraced)
        print_table("per-layer (traced runs)", layer, layer_samples)
        for path in runner.trace_files:
            print("  chrome trace: " + os.path.relpath(path, ROOT))

    metrics = report(layer, "per_layer") if traced else report(e2e, "end_to_end")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_test():
    """One traced run per workload at the committed seeds: all outputs
    must check, and openloop must process exactly OPENLOOP_EVENTS."""
    out_dir, exe = build()
    ok = True
    for workload in WORKLOADS:
        runner = Runner(exe, out_dir, workload, None)
        runner.child("reference", 1)
        c = runner.child("timed", runner.threads, traced=True)
        shutil.rmtree(runner.ref_dir, ignore_errors=True)
        verdicts = [("outputs check", c["checks"] > 0 and c["failed"] == 0)]
        if workload == "paper":
            verdicts.append(("%d goldens compared" % PAPER_CAMPAIGNS,
                             c["checks"] == PAPER_CAMPAIGNS))
        if workload == "openloop":
            verdicts.append(("sim.events == %d" % OPENLOOP_EVENTS,
                             c["events"] == OPENLOOP_EVENTS))
        for what, good in verdicts:
            print("%s %s: %s" % ("PASS" if good else "FAIL", workload, what))
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="workload seed (default: the committed one)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
