"""counternet benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --self-check            # tiny inputs, metric names

Each workload (workloads.py) is a closed loop with one client in one
process and no threads: a pass runs the workload's fixed job list in
order, each job waiting for the library's verdict before the next call,
and passes repeat until --seconds have elapsed.  Every answer is checked;
a job fails if it raises, exits with the wrong code or gives an answer
the checks reject.

Times are reference-scaled seconds.  On a shared virtual machine the
speed of Python code drifts by a third and more within a minute (seen on
a 2-vCPU x86-64 VM), so raw wall times of one commit spread more than
any change worth measuring.  The harness therefore times a fixed
pure-Python loop (reference_loop) before and after every job and every
set-up, and scales each measured time by REFERENCE_SECONDS over the loop
time around it: the median loop time of the pass for a job, the mean of
the two around it for a set-up.  On a machine where the loop takes
REFERENCE_SECONDS the scaled time is the wall time; elsewhere it is the
wall time that machine would show at that speed.  Raw wall times are in
the report line as well.

With --trace 0 the last line reports the end-to-end metrics:
  setup_s        median of SETUP_REPEATS set-ups: import counternet afresh,
                 then build the workload's nets and inputs
  wall_s         median time of one pass over the job list
  words_per_s    words decided by the jobs that decide explicit words
                 (sweeps, long member words, accepts vs accepts_naive,
                 the check and eq commands) over the median time of
                 those jobs; the word count is fixed by the inputs
  letters_per_s  letters of those words over the same time
  peak_rss_mb    peak resident memory of the process, or of its largest
                 child for cli
With --trace 1 it reports the per-layer metrics (tracing.py): the run
measures untraced passes first, then installs the wrappers, repeats the
set-up traced and makes traced passes; counts come from the traced
set-up plus the first traced pass.  runs_per_s and cmd_p50_s, end-to-end
rates that exist on one workload only, are measured in the untraced
passes of this run and read 0 elsewhere.

Earlier lines carry a readable table and a JSON report with the
environment, sample counts, the wall-time tail, raw wall times, failures
and the exact job list.  The exit code is 0 only when every answer
checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from inputs import prefix_arithmetic
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2307  # kept out of tuning; confirm claimed gains on it too
SETUP_REPEATS = 11
MIN_PASSES = 3
REFERENCE_SECONDS = 0.003  # reference_loop on a quiet 2-vCPU x86-64 VM, Python 3.11
MODULES = ("core", "analysis", "constructions", "zoo", "vas", "fileformat", "cli")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "words_per_s": "words/s",
    "letters_per_s": "letters/s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("check", "eq", "product", "project", "union", "lift", "zoo", "vasify",
                "reduce", "decompose-check", "refute-p", "pump")


def layer_unit(name: str) -> str:
    if name == "runs_per_s":
        return "runs/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_width"):
        return "vectors"
    if name.endswith("letters"):
        return "letters"
    return "bytes" if name == "fileformat.bytes" else "count"


LAYER_NAMES = (
    "core.step_frontier.calls", "core.step_frontier.self_s",
    "core.step_table.hits", "core.step_table.misses",
    "core.antichain_insert.calls", "core.antichain_insert.self_s",
    "core.antichain.evictions", "core.antichain.kept_ratio",
    "core.frontier.peak_width", "core.frontier.mean_width",
    "core.accepts.calls", "core.accepts.s", "core.accepts_naive.calls", "core.accepts_naive.s",
    "core.enumerate_runs.calls", "core.enumerate_runs.s",
    "core.runs.enumerated", "core.runs.truncated",
    "analysis.bounded_compare.s", "analysis.check_decomposition.s",
    "analysis.sweep.words", "analysis.sweep.letters", "analysis.sweep.distinct_prefixes",
    "analysis.sweep.useful_step_ratio", "analysis.generator.s",
    "analysis.compare_nets_walk.s", "analysis.walk.nodes", "analysis.walk.steps",
    "analysis.find_cycles.calls", "analysis.find_cycles.self_s",
    "analysis.find_cycles.letters", "analysis.find_cycles.witnesses",
    "analysis.extract_pumpable_cycle.s", "analysis.pump_run.s",
    "analysis.refute.guided.s", "analysis.refute.enumerate.s",
    "analysis.find_bad_segment_witness.s", "analysis.classify_run_form.s",
    "analysis.refute.counterexample_letters",
    "zoo.oracle.calls", "zoo.oracle.s", "zoo.build.s",
    "constructions.product.calls", "constructions.product.s", "constructions.product.states",
    "vas.verify_pipeline.s", "vas.vasify.s", "vas.check_gating.s",
    "vas.pipeline.flat_words", "vas.pipeline.gating_nodes",
    "fileformat.parse.s", "fileformat.emit.s", "fileformat.bytes",
    "cli.python_start_s", "cli.import_s",
    *(f"cli.cmd.{c}.s" for c in CLI_COMMANDS),
    "runs_per_s", "cmd_p50_s", "trace.overhead_ratio",
)


# ---------------------------------------------------------------------------
# set-up and passes

def import_counternet() -> SimpleNamespace:
    """Import counternet from this checkout's src/ afresh, dropping any
    copy an earlier set-up imported."""
    for name in [n for n in sys.modules if n == "counternet" or n.startswith("counternet.")]:
        del sys.modules[name]
    package = importlib.import_module("counternet")
    mods = {name: importlib.import_module(f"counternet.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def reference_loop():
    """Fixed pure-Python work shaped like the library's kernels: small
    tuples built from generators, dict and set updates."""
    frontier, table = set(), {}
    for i in range(2_000):
        v = (i % 7, i % 11)
        w = tuple(a + b for a, b in zip(v, (1, -1)))
        table[v] = w
        if all(x >= 0 for x in w):
            frontier.add(w)
    return len(frontier) + len(table)


def reference_seconds() -> float:
    """Time of one reference_loop, with the collector off so that it
    never pays for garbage the job before it left behind."""
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_SECONDS / reference


class Timed:
    """Times one stretch of work in raw and reference-scaled seconds;
    untimed() marks harness-only work inside it to leave out."""

    def __enter__(self):
        self.excluded = 0.0
        self.before = reference_seconds()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = perf_counter() - self.start - self.excluded
        self.after = reference_seconds()
        self.seconds = scaled(self.raw, (self.before + self.after) / 2)

    @contextlib.contextmanager
    def untimed(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.excluded += perf_counter() - t0


def run_pass(jobs, tracer=None):
    """One pass over the job list: (scaled seconds per job, raw seconds
    per job, failures as (job name, message)).  The reference loop runs
    before the first job and after every job; the median of those times
    scales the whole pass."""
    gc.collect()
    raw, refs, failures = [], [reference_seconds()], []
    for job in jobs:
        if tracer is not None:
            tracer.job_kind = "sweep" if job.sweep else "other"
        t0 = perf_counter()
        try:
            message = job.run()
        except Exception as exc:  # a raising job is a failed job, the run goes on
            message = f"{type(exc).__name__}: {exc}"
        raw.append(perf_counter() - t0)
        refs.append(reference_seconds())
        if message:
            failures.append((job.name, message))
    ref = statistics.median(refs)
    return [scaled(t, ref) for t in raw], raw, failures


def run_passes(jobs, seconds: float, min_passes: int = MIN_PASSES, step_cache=None):
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        if step_cache is not None:
            step_cache.cache_clear()
        passes.append(run_pass(jobs))
    return passes


def median_time(passes, jobs, pick) -> float:
    idx = [i for i, job in enumerate(jobs) if pick(job)]
    return statistics.median(sum(times[i] for i in idx) for times, _, _ in passes)


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def rate(passes, jobs, attr: str, per: str | None = None) -> float:
    """Sum of a job size over the median time of the jobs that have it;
    per names another size to count over the same time."""
    t = median_time(passes, jobs, lambda j: getattr(j, attr))
    return sum(getattr(j, per or attr) for j in jobs) / t


def command_times(passes, jobs) -> dict[str, float]:
    """cmd_p50_s over every command run, and each command's median."""
    idx = [i for i, j in enumerate(jobs) if j.cmd]
    out = {"cmd_p50_s": statistics.median(times[i] for times, _, _ in passes for i in idx)}
    for i in idx:
        out[f"cli.cmd.{jobs[i].cmd}.s"] = statistics.median(times[i] for times, _, _ in passes)
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# traced run

def spawn_seconds(argv, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        with Timed() as t:
            subprocess.run([sys.executable, *argv], env=workloads.cli_env(), cwd=ROOT,
                           check=True, capture_output=True, timeout=60)
        samples.append(t.seconds)
    return statistics.median(samples)


def count_snapshot(tracer) -> dict:
    snap = {f"calls.{k}": v[0] for k, v in tracer.agg.items()}
    snap.update(tracer.counts)
    return snap


def traced_run(name, wl, m, st, jobs, args):
    """Untraced passes, then the traced set-up and traced passes.
    Returns (per-layer metrics, jobs attempted, failures, report extras)."""

    layer = dict.fromkeys(LAYER_NAMES, 0.0)
    step_cache = getattr(m.core, "_step_table", None)
    if not hasattr(step_cache, "cache_clear"):
        step_cache = None
    spawned = []
    phase = args.seconds / 2
    if name == "cli":
        phase = args.seconds / 3
        spawned = run_passes(jobs, phase, min_passes=1)
        layer.update(command_times(spawned, jobs))
        start = spawn_seconds(["-c", "pass"], 5)
        layer["cli.python_start_s"] = start
        layer["cli.import_s"] = spawn_seconds(["-c", "import counternet.cli"], 5) - start
        jobs = workloads.cli_jobs(m, st, workloads.PlainHooks, in_process=True)
    untraced = run_passes(jobs, phase, step_cache=step_cache)
    if any(j.runs for j in jobs):
        layer["runs_per_s"] = rate(untraced, jobs, "runs")

    tracer = Tracer()
    tracer.install(m)
    if step_cache is not None:
        step_cache.cache_clear()
    with Timed() as t:
        st = wl.setup(m, args.seed, args.scale, t.untimed)
    jobs = (workloads.cli_jobs(m, st, tracer, in_process=True) if name == "cli"
            else wl.jobs(m, st, tracer))
    snaps = [count_snapshot(tracer)]
    traced = []
    deadline = perf_counter() + phase
    while len(traced) < 2 or perf_counter() < deadline:
        if step_cache is not None:
            step_cache.cache_clear()  # also zeroes its hit and miss counts
        traced.append(run_pass(jobs, tracer))
        snaps.append(count_snapshot(tracer))
        if step_cache is not None:
            info = step_cache.cache_info()
            snaps[-1]["step_table"] = (info.hits, info.misses)
        if len(traced) == 1:
            layer.update(tracer.layer_metrics())
            layer["core.step_table.hits"], layer["core.step_table.misses"] = (
                snaps[-1].get("step_table", (0, 0)))
    # counts of each traced pass alone; every pass must repeat the first
    deltas = [{k: s1[k] if k == "step_table" else s1[k] - s0.get(k, 0)
               for k in s1 if k != "frontier.peak_width"}
              for s0, s1 in zip(snaps, snaps[1:])]

    sweeps = [j.sweep for j in jobs if j.sweep]
    if sweeps:
        for words, nets in sweeps:
            w, letters, prefixes = prefix_arithmetic(words)
            layer["analysis.sweep.words"] += w
            layer["analysis.sweep.letters"] += letters * nets
            layer["analysis.sweep.distinct_prefixes"] += prefixes * nets
        steps = deltas[0].get("steps.sweep", 0)
        layer["analysis.sweep.useful_step_ratio"] = (
            layer["analysis.sweep.distinct_prefixes"] / steps if steps else 0.0)
    layer["trace.overhead_ratio"] = (statistics.median(sum(p[0]) for p in traced)
                                     / statistics.median(sum(p[0]) for p in untraced))
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(workloads.OUT / f"trace-{name}-seed{args.seed}.json")
    everything = spawned + untraced + traced
    extra = {"samples": {"counts": 1, "untraced_passes": len(untraced),
                         "traced_passes": len(traced),
                         "cli_commands": sum(1 for p in spawned for _ in p[1])},
             "counts_repeat_across_traced_passes": all(d == deltas[0] for d in deltas[1:])}
    return (layer, sum(len(p[1]) for p in everything),
            [f for p in everything for f in p[2]], extra)


# ---------------------------------------------------------------------------
# report

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def run_workload(args) -> int:
    if not (SRC / "counternet" / "__init__.py").is_file():
        print(f"error: no counternet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with Timed() as t:
            m = import_counternet()
            st = wl.setup(m, args.seed, args.scale, t.untimed)
        setups.append(t)
    if Path(m.package.__file__).resolve().parent != SRC / "counternet":
        print(f"error: imported counternet from {m.package.__file__}, not {SRC}", file=sys.stderr)
        return 2
    jobs = wl.jobs(m, st, workloads.PlainHooks)
    os.chdir(ROOT)

    report = {"workload": args.workload, "why": wl.why, "seed": args.seed,
              "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
              "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
              "environment": environment(),
              "jobs": [{"name": j.name, "why": j.why, "words": j.words, "letters": j.letters,
                        "runs": j.runs} for j in jobs]}
    if args.trace:
        metrics, attempted, failures, extra = traced_run(args.workload, wl, m, st, jobs, args)
        units = {k: layer_unit(k) for k in metrics}
        report.update(extra)
    else:
        passes = run_passes(jobs, args.seconds)
        walls = [sum(p[0]) for p in passes]
        for i, job in enumerate(report["jobs"]):
            job["median_s"] = statistics.median(times[i] for times, _, _ in passes)
        metrics = {
            "setup_s": statistics.median(t.seconds for t in setups),
            "wall_s": statistics.median(walls),
            "words_per_s": rate(passes, jobs, "words"),
            "letters_per_s": rate(passes, jobs, "words", per="letters"),
            "peak_rss_mb": peak_rss_mb(children=args.workload == "cli"),
        }
        attempted = len(passes) * len(jobs)
        failures = [f for p in passes for f in p[2]]
        units = E2E_UNITS
        report.update({
            "samples": {"setup_s": len(setups), "wall_s": len(walls),
                        "words_per_s": len(walls), "letters_per_s": len(walls),
                        "peak_rss_mb": 1},
            "wall_s_tail": tail(walls),
            "raw_seconds": {"setup_s": statistics.median(t.raw for t in setups),
                            "wall_s": statistics.median(sum(p[1]) for p in passes)},
            "reference_seconds": statistics.median(t.before for t in setups),
        })
    report["fail_ratio"] = len(failures) / attempted
    report["failures"] = failures[:20]
    for name, value in metrics.items():
        print(f"{args.workload:6} {name:40} {value:>14.6g} {units[name]}")
    print(json.dumps(report))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        for line in lines[:-2]:
            print(line)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        status = status or proc.returncode
    print(json.dumps(merged))
    return status


def self_check(args) -> int:
    """Run every workload on tiny inputs with and without tracing and
    check the report against BENCHMARK.json: names, units, correctness,
    counts that repeat across two traced runs, and the prefix arithmetic
    of segmented_box(3, 6)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if declared[0] != E2E_UNITS:
        problems.append("end-to-end metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for name in workloads.WORKLOADS:
        before = len(problems)
        results = []
        for trace in (0, 1, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", "0.2", "--trace", str(trace),
                    "--scale", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {proc.returncode} {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{name} trace {trace}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed jobs")
            results.append(result)
        if len(results) == 3:
            a, b = results[1]["metrics"], results[2]["metrics"]
            drift = [k for k in a if declared[1][k] in ("count", "letters", "bytes", "vectors")
                     and a[k]["value"] != b[k]["value"]]
            if drift:
                problems.append(f"{name}: traced counts differ between two runs: {drift}")
        print(f"self-check {name}: {'ok' if len(problems) == before else 'FAILED'}")
    sys.path.insert(0, str(SRC))
    from counternet.analysis import segmented_box
    counts = prefix_arithmetic(item.word for item in segmented_box(3, 6))
    if counts != (19_600, 339_864, 19_941):
        problems.append(f"segmented_box(3, 6) prefix arithmetic {counts}")
    for p in problems:
        print(p, file=sys.stderr)
    print("self-check", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "deep", "runs", "cli", "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the passes of one run measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-check's small inputs")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
