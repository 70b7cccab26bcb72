#!/usr/bin/env python3
"""The repository benchmark: end to end through `cpt_batch run`, per layer
through the in-process traced run (perfbench_layers).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The first run configures and
builds `cpt_batch` and `perfbench_layers` (Release) into `.bench_build`
(or $CARGO_TARGET_DIR); later runs only check that the build is current.
All corpus and cache directories live under that build directory, on the
real disk, and are removed when the run ends.

Workloads (see BENCHMARK.json for why each exists):

  sweep_cold  924-job mixed sweep (the families and all three testers of
              bench/manifests/batch_sweep.json at instances=6, trials=6),
              --threads=min(4, nproc); every request gets a fresh --corpus
              and --cache. Set-up: one untimed cold request.
  sweep_warm  the same manifest; set-up fills corpus and cache with one
              cold request, then every request is served from the cache.
  e1_serial   the E1 rounds-vs-n cells of bench/manifests/e1.json up to
              n = 4096 (triangulated grids 16^2-64^2, Apollonian 256-4096,
              fixed and adaptive phases: 12 jobs, under 1 s a request),
              --threads=1, no cache; set-up materializes the corpus with
              `cpt_batch materialize`. The largest size of each family
              (128^2, 16384) is left out: it took 3-4 s of a 4 s request,
              so a run held only 7 requests and its median moved with
              every slow one.

The benchmark writes both manifests itself with base_seed = --seed.

Load is one closed-loop client: the next request starts when the previous
one has exited and been checked. With --trace 0 a run sets up, then
repeats the workload's request for --seconds; it sets up again several
times, spread evenly over those seconds between requests (setup_s is the
median of all set-ups, on this script's monotonic clock). The timed phase
of a request is the child's whole life, spawn to exit, so process start
is included. Serial children (e1_serial's requests and materializations)
are pinned to the allowed CPUs in turn, so each run samples every vCPU
evenly.
  wall_s       median request wall time
  jobs_per_s   jobs per request / wall_s (the same denominator)
  req_p50_ms   median request latency (= wall_s, in ms)
The report also prints the nearest-rank 90th percentile with its sample
count, and the median over the timed requests of each cpt_batch child's
peak RSS (ru_maxrss from wait4). Neither is a result metric, because
every result metric applies to every workload. A sweep_cold or e1_serial
run has only 12-45 requests, so its p90 is near the maximum (sweep_warm
has about 2000). sweep_cold's peak RSS follows the seed, a 0.20 spread
over seeds 1-10: an uncached sweep at seed 7 peaks at 26 MB on 1 thread
and 75 MB on 4, at seed 9 at 20 MB and 50 MB. The traced run reports the
peak RSS of its one request as batch.peak_rss_mb.
With --trace 1 a run sets up once, makes one untimed request and then runs
perfbench_layers on the same state; it prints the per-layer metrics.

Correctness, counted in `failed` (operations = jobs submitted plus
run-level checks; a failed request counts all its jobs):
  * every request exits 0 and its aggregate has no failed_jobs;
  * the workload's self-check on --timing-out (cold: no cache hits and
    every instance generated; warm: every job a cache hit and every
    instance skipped; e1: every instance a corpus hit);
  * every aggregate of a run is byte-identical to the run's reference
    aggregate (the set-up request's for the sweeps, so every warm answer
    equals the cold one);
  * one-sided error: cells of planar families, unperturbed, under
    planarity, and random_tree under cycle_free/bipartite, have 0 rejects;
  * if golden.json holds a digest for this manifest and seed (it holds
    seeds 0-63; seed 1 is the default), the reference aggregate's SHA-256
    matches it. This pins rounds and messages. Every run prints its
    digest as `# aggregate <manifest> seed=<n> sha256=<hex>`;
  * with --trace 1, every check of perfbench_layers, and its in-process
    aggregate equals cpt_batch's byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. failed_frac (failed / attempted) is printed in the report, not
as a result metric: it reads 0 on every good run. Lines before it are a human-readable report, including the host
provenance from bench::add_provenance. Exits nonzero, printing no result,
when the sources or the build are missing.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# A hung child is killed here; a run, set-up included, must end within 180 s.
CHILD_TIMEOUT_S = 120

SWEEP_CELLS = [
    {"scenario": "grid", "params": {"rows": [8, 12, 16], "cols": 12}},
    {"scenario": "triangulated_grid", "params": {"rows": [8, 12], "cols": 10}},
    {"scenario": "apollonian", "params": {"n": [120, 200]}, "epsilon": [0.1, 0.25]},
    {"scenario": "random_planar", "params": {"n": 160, "m": [320, 420]}},
    {"scenario": "random_tree", "params": {"n": [150, 250]},
     "tester": ["planarity", "cycle_free", "bipartite"]},
    {"scenario": "gnp", "params": {"n": 150, "avg_degree": [10, 14]}},
    {"scenario": "k5_blobs", "params": {"backbone_n": 120, "blobs": [10, 20]}},
    {"scenario": "grid", "params": {"rows": 12, "cols": 12},
     "perturb": {"kind": "plus_random_edges", "extra": [40, 90]}},
    {"scenario": "cycle", "params": {"n": 200},
     "perturb": {"kind": "k33_blobs", "count": 12},
     "tester": ["planarity", "bipartite"]},
    {"scenario": "overlay_backbone", "params": {"n": 400, "m": 850, "overlay": [0, 120]},
     "trials": 2},
]

E1_CELLS = [
    {"scenario": family, "params": params, **({"adaptive": True} if adaptive else {})}
    for family, params in
    [("triangulated_grid", {"rows": k, "cols": k}) for k in (16, 32, 64)]
    + [("apollonian", {"n": n}) for n in (256, 1024, 4096)]
    for adaptive in (False, True)
]

MANIFESTS = {
    "sweep": {"name": "perfbench_sweep",
              "defaults": {"trials": 6, "instances": 6, "epsilon": 0.1,
                           "tester": "planarity"},
              "cells": SWEEP_CELLS},
    "e1": {"name": "perfbench_e1",
           "defaults": {"trials": 1, "epsilon": 0.25, "tester": "planarity"},
           "cells": E1_CELLS},
}

# setups: how many times a --trace 0 run sets up; setup_s is their median.
# A sweep set-up is a whole cold request (about 2.3 s); an E1 set-up is a
# 0.02 s materialization, mostly process start, so it takes more samples.
# A run that ends before all are due (a --seconds far below the default)
# reports the median of those it made.
WORKLOADS = {
    "sweep_cold": {"manifest": "sweep", "threads": 4, "cache": True, "setups": 5},
    "sweep_warm": {"manifest": "sweep", "threads": 4, "cache": True, "setups": 5},
    "e1_serial": {"manifest": "e1", "threads": 1, "cache": False, "setups": 21},
}

# Families planar for every parameter value; with no perturbation a
# planarity cell of these must never reject.
PLANAR_FAMILIES = {"grid", "triangulated_grid", "apollonian", "random_planar",
                   "random_tree", "cycle"}


class Failure(Exception):
    """The benchmark cannot produce a result (missing sources, build error)."""


def say(line):
    print(line, flush=True)


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return (ROOT / env) if env else ROOT / ".bench_build"


def ensure_built():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Failure(f"no source tree at {ROOT}: run from a checkout of the repository")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "cpt_batch", "perfbench_layers",
                  "-j", jobs])
    with open(log, "wb") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT, timeout=850).returncode:
                sys.stderr.write(log.read_text(errors="replace")[-4000:])
                raise Failure(f"build step failed: {' '.join(step)}")
    batch, layers = bdir / "cpt" / "cpt_batch", bdir / "perfbench_layers"
    if not (batch.is_file() and layers.is_file()):
        raise Failure("build produced no cpt_batch/perfbench_layers")
    return str(batch), str(layers)


def _alarm(signum, frame):
    raise TimeoutError


def spawn(argv, stderr_path, stdout_path=os.devnull, cpu=None):
    """Runs argv to exit, pinned to `cpu` if given (the child inherits the
    affinity it is spawned with). Returns (wall seconds, exit code,
    ru_maxrss KiB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    previous = signal.signal(signal.SIGALRM, _alarm)
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    t0 = time.monotonic()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.sched_setaffinity(0, allowed)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return time.monotonic() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def nearest_rank(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Bench:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.threads = min(self.spec["threads"], os.cpu_count() or 1)
        self.batch, self.layers = ensure_built()
        self.work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None
        self.jobs = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawned = 0

    def next_cpu(self):
        """A serial child is pinned to the next allowed CPU in turn: each
        vCPU's host core switches between a fast and a slow state on its
        own, and a run that samples all of them evenly averages those
        states, as the 4-thread sweeps do. None (unpinned) otherwise."""
        if self.threads != 1:
            return None
        self.spawned += 1
        return self.cpus[(self.spawned - 1) % len(self.cpus)]

    # ---- correctness bookkeeping ------------------------------------
    def fail(self, message):
        if len(self.errors) < 10:
            self.errors.append(message)

    def run_check(self, ok, message):
        """A run-level check: one operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fail(message)

    def check_reference(self, aggregate):
        """Checks made once per run on the reference aggregate."""
        doc = json.loads(aggregate)
        self.jobs = doc["jobs"]
        self.run_check(not doc.get("failed_jobs") and not doc.get("timed_out_jobs"),
                       "reference aggregate reports failed or timed-out jobs")
        for cell in doc["cells"]:
            label = cell["scenario"]
            family = label.split("(", 1)[0]
            one_sided = "+" not in label and (
                (cell["tester"] == "planarity" and family in PLANAR_FAMILIES)
                or (cell["tester"] in ("cycle_free", "bipartite") and family == "random_tree"))
            if one_sided:
                self.run_check(cell["rejects"] == 0,
                               f"one-sided error: {label} {cell['tester']} rejected")
        digest = hashlib.sha256(aggregate).hexdigest()
        name = self.spec["manifest"]
        say(f"# aggregate {name} seed={self.args.seed} sha256={digest}")
        golden = json.loads((HERE / "golden.json").read_text()).get(name, {})
        want = golden.get(str(self.args.seed))
        if want is not None:
            self.run_check(digest == want, f"aggregate digest {digest} != golden {want}")
        else:
            say(f"# no golden digest for seed {self.args.seed}; digest check skipped")

    # ---- one cpt_batch request --------------------------------------
    def request(self, manifest, corpus, cache, kind, outdir):
        """One `cpt_batch run`; returns (wall_s, rss_kb, timing doc or None)."""
        outdir.mkdir(parents=True, exist_ok=True)
        out, timing, err = outdir / "aggregate.json", outdir / "timing.json", outdir / "stderr"
        for stale in (out, timing):
            stale.unlink(missing_ok=True)
        argv = [self.batch, "run", str(manifest), f"--threads={self.threads}",
                f"--corpus={corpus}", f"--out={out}", f"--timing-out={timing}", "--quiet"]
        if cache is not None:
            argv.insert(5, f"--cache={cache}")
        wall, code, rss = spawn(argv, err, cpu=self.next_cpu())
        problems = []
        doc = None
        if code != 0:
            problems.append(f"exit {code}: {err.read_text(errors='replace')[-300:]}")
        else:
            aggregate = out.read_bytes()
            doc = json.loads(timing.read_text())
            if self.reference is None:
                self.reference = aggregate
                self.check_reference(aggregate)
            elif aggregate != self.reference:
                problems.append("aggregate differs from the run's reference aggregate")
            c = doc["corpus"]
            expect = {
                "cold": doc["cache_hit_jobs"] == 0 and c["generated"] == c["unique_instances"],
                "warm": doc["cache_hit_jobs"] == doc["jobs"] and c["skipped"] == c["unique_instances"],
                "corpus": c["disk_hits"] == c["unique_instances"],
            }[kind]
            if not expect:
                problems.append(f"{kind} self-check failed: cache_hit_jobs={doc['cache_hit_jobs']} "
                                f"corpus={c}")
            if doc["retried_jobs"] or doc["jobs"] != self.jobs:
                problems.append(f"retried_jobs={doc['retried_jobs']} jobs={doc['jobs']}")
        submitted = self.jobs or (doc["jobs"] if doc else 1)
        self.attempted += submitted
        if problems:
            self.failed += submitted
            self.fail(f"{kind} request: " + "; ".join(problems))
        return wall, rss, doc

    # ---- set-up -------------------------------------------------------
    def setup(self, index):
        """Writes the manifest and prepares the workload's state. Returns
        (seconds on the monotonic clock, state dict)."""
        t0 = time.monotonic()
        sdir = self.work / f"setup{index}"
        sdir.mkdir(parents=True)
        manifest = sdir / "manifest.json"
        spec = dict(MANIFESTS[self.spec["manifest"]], base_seed=self.args.seed)
        manifest.write_text(json.dumps(spec, indent=1) + "\n")
        state = {"manifest": manifest, "corpus": sdir / "corpus",
                 "cache": sdir / "cache" if self.spec["cache"] else None}
        if self.spec["cache"]:
            # Cold request: the warm-up for sweep_cold, the fill for sweep_warm.
            self.request(manifest, state["corpus"], state["cache"], "cold", sdir / "req")
        else:
            argv = [self.batch, "materialize", str(manifest), f"--corpus={state['corpus']}",
                    f"--threads={self.threads}", "--quiet"]
            _, code, _ = spawn(argv, sdir / "stderr", cpu=self.next_cpu())
            self.run_check(code == 0, f"materialize exited {code}")
        return time.monotonic() - t0, state

    def timed_request(self, state, i):
        if self.args.workload == "sweep_cold":
            # Untimed: the previous request's corpus and cache go before the
            # next starts, so the disk does not fill up over a run.
            shutil.rmtree(self.work / f"req{i - 1}", ignore_errors=True)
            rdir = self.work / f"req{i}"
            return self.request(state["manifest"], rdir / "corpus", rdir / "cache", "cold", rdir)
        kind = "warm" if self.args.workload == "sweep_warm" else "corpus"
        return self.request(state["manifest"], state["corpus"], state["cache"], kind,
                            self.work / "req")

    # ---- the two kinds of run -----------------------------------------
    def end_to_end(self):
        # Set-up 0 makes the state the timed requests use. The others are
        # spread evenly over the timed phase, between requests, and their
        # state is thrown away: the host's speed changes over tens of
        # seconds, and set-ups made back to back would all land in one state.
        seconds, state = self.setup(0)
        setups = [seconds]
        walls, rss, hit_jobs = [], [], 0
        start = time.monotonic()
        while not walls or time.monotonic() - start < self.args.seconds:
            wall, peak, doc = self.timed_request(state, len(walls))
            walls.append(wall)
            rss.append(peak)
            hit_jobs += doc["cache_hit_jobs"] if doc else 0
            due = len(setups) * self.args.seconds / self.spec["setups"]
            if len(setups) < self.spec["setups"] and time.monotonic() - start >= due:
                setups.append(self.setup(len(setups))[0])
                shutil.rmtree(self.work / f"setup{len(setups) - 1}")
        say("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        wall_s = statistics.median(walls)
        p90, beyond = nearest_rank(walls, 0.9)
        say(f"# {len(walls)} timed requests of {self.jobs} jobs; req_p90_ms {p90 * 1e3:.3f} "
            f"(nearest rank over {len(walls)} samples, {beyond} beyond it)")
        say(f"# peak RSS {statistics.median(rss) / 1024:.3f} MB (median over requests)")
        say(f"# self-check: share of jobs served from cache "
            f"{hit_jobs / max(1, self.jobs * len(walls)):.4f}")
        return {
            "wall_s": wall_s,
            "jobs_per_s": self.jobs / wall_s,
            "req_p50_ms": wall_s * 1e3,
            "setup_s": statistics.median(setups),
        }

    def traced(self):
        _, state = self.setup(0)
        _, rss, doc = self.timed_request(state, 0)
        ldir = self.work / "layers"
        ldir.mkdir()
        cold = self.args.workload == "sweep_cold"
        corpus = ldir / "corpus" if cold else state["corpus"]
        cache = ldir / "cache" if cold else state["cache"]
        argv = [self.layers, str(state["manifest"]), f"--corpus={corpus}",
                f"--work={ldir}", f"--threads={self.threads}",
                f"--aggregate-out={ldir / 'aggregate.json'}"]
        if cache is not None:
            argv.append(f"--cache={cache}")
        if cold:
            argv.append("--cold")
        wall, code, _ = spawn(argv, ldir / "stderr", ldir / "stdout")
        say(f"# perfbench_layers ran {wall:.2f} s")
        if code != 0:
            raise Failure(f"perfbench_layers exited {code}: "
                          + (ldir / "stderr").read_text(errors="replace")[-500:])
        report = json.loads((ldir / "stdout").read_text())
        self.attempted += report["checks"]
        self.failed += report["failed_checks"]
        for e in report["errors"]:
            self.fail(f"layers: {e}")
        self.run_check((ldir / "aggregate.json").read_bytes() == self.reference,
                       "in-process aggregate differs from cpt_batch's")
        metrics = dict(report["metrics"])
        metrics["batch.cache_hit_frac"] = doc["cache_hit_jobs"] / doc["jobs"] if doc else 0.0
        metrics["batch.peak_rss_mb"] = rss / 1024.0
        return metrics


def provenance(layers):
    out = subprocess.run([layers, "--provenance"], capture_output=True, text=True, timeout=60)
    try:
        meta = json.loads(out.stdout)
        return {k: v for k, v in meta.items() if k not in ("name", "metrics")}
    except ValueError:
        return {"error": out.stdout[-200:]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        bench = Bench(args)
    except (Failure, subprocess.SubprocessError, OSError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    say(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} threads={bench.threads}")
    say("# provenance " + json.dumps(provenance(bench.layers), sort_keys=True))
    try:
        metrics = bench.traced() if args.trace else bench.end_to_end()
    except Failure as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    for error in bench.errors:
        say(f"# FAILED: {error}")
    say(f"# failed_frac {bench.failed / bench.attempted:.6f} "
        f"({bench.failed} of {bench.attempted} operations)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"perfbench: metrics not measured: {missing}\n")
        return 2
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in result.items():
        say(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
