#!/usr/bin/env python3
"""Campaign benchmark: host cost of the paper's figure campaigns.

Runs the real cmd/experiments binary as one child process per campaign
(-blocks 60000, -parallel 2, instrumentation off) and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. See README.md in this directory for the workloads, the
metrics and the layer-to-end-to-end map.

    python3 campaignbench/run.py --workload cold-campaign --seed 1 --seconds 10 --trace 0
    python3 campaignbench/run.py --update-fingerprints

Run it from the root of a checkout. It builds the binaries it needs into
.bench_build/ first (a no-op when they are current) and writes nothing
outside the checkout. --trace 1 replaces the end-to-end metrics with the
per-layer ones: one plain, one -trace-out and one -telemetry campaign, then
the layers tool (layers/) timing each layer on a trace generated from the
seed. --update-fingerprints re-baselines fingerprints.json after a
deliberate output change.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

# layers/main.go times its layers at the same blocks and workers.
BLOCKS = 60000
PARALLEL = 2
# The whole run, builds excluded, must end well inside the driver's 180 s
# limit; a child still running at this point is killed and counted failed.
RUN_BUDGET_S = 170
# The cold set-up takes milliseconds, so it is timed this many times before
# the first campaign and again after each, and reported as the median.
COLD_SETUP_REPS = 15

CAMPAIGN = ["tab1", "tab2", "fig2", "fig8", "fig10", "fig12", "fig14", "fig18", "fig21"]
REPLAY = ["fig5", "fig15", "fig16", "fig19", "fig20", "sens-delay"]
# warm: the campaign runs against a cache directory filled during set-up,
# so every artifact get must hit; otherwise every get must miss.
WORKLOADS = {
    "cold-campaign": {"ids": CAMPAIGN, "warm": False},
    "warm-campaign": {"ids": CAMPAIGN, "warm": True},
    "policy-replay": {"ids": REPLAY, "warm": True},
}

END_TO_END = {"campaign_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
TRACE_METRICS = {
    "artifact.hit_ratio": "ratio",
    "experiments.sf_wait_s": "s",
    "experiments.sf_compute_s": "s",
    "experiments.cell_s": "s",
    "experiments.peak_heap_mb": "MiB",
    "telemetry.overhead_ratio": "ratio",
    "inspect.trace_overhead_ratio": "ratio",
}

_child = None  # the one child process that may be running


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def log(msg):
    print("campaignbench: " + msg, file=sys.stderr, flush=True)


def go_env():
    """The environment for the go tool: every cache and temporary file
    inside .bench_build, and the local toolchain only."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Builds cmd/experiments and the layers tool; go skips both when they
    are up to date, so only a checkout's first run compiles anything."""
    env = go_env()
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "experiments"), "./cmd/experiments"]),
        (os.path.join(HERE, "layers"), ["go", "build", "-o", os.path.join(BIN, "layers"), "."]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            raise SystemExit("campaignbench: build failed: %s\n%s" % (" ".join(cmd), r.stdout))
    ver = subprocess.run(["go", "env", "GOVERSION"], env=env, stdout=subprocess.PIPE, text=True)
    return ver.stdout.strip()


def spawn(cmd, stdout_path, stderr_path, deadline):
    """Runs cmd to completion and returns (exit code, wall s, cpu s, max
    RSS MiB) measured from outside: wall from just before the fork to the
    reap, CPU and peak RSS from the child's rusage."""
    global _child
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        _child = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), _child.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(_child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        _child.returncode = os.waitstatus_to_exitcode(status)
        code, _child = _child.returncode, None
    return code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def fresh_dir(path):
    """Creates path, which must not exist yet: a reused -csv directory
    would restore its checkpoint journal instead of running the cells."""
    os.makedirs(path)
    return path


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---- parsing and verification (unit-tested in test_run.py) ----


def check_failures(stdout_text):
    """Experiment ids named by -check FAIL lines ("CHECK FAIL <id>: ...")."""
    ids = []
    for line in stdout_text.splitlines():
        if line.startswith("CHECK FAIL "):
            ids.append(line[len("CHECK FAIL "):].split(":", 1)[0].strip())
    return ids


def manifest_failures(manifest, ids):
    """Experiment ids the run manifest reports as failed: an error or
    failed cells on the figure, or no figure entry at all."""
    figures = {f.get("id"): f for f in manifest.get("figures") or []}
    bad = set()
    for i in ids:
        f = figures.get(i)
        if f is None or f.get("error") or f.get("failed_cells"):
            bad.add(i)
    return bad


def cache_kinds(manifest):
    """Per-kind artifact cache traffic from the manifest's cache block."""
    kinds = (manifest.get("cache") or {}).get("kinds") or {}
    return {k: (v.get("hits", 0), v.get("misses", 0), v.get("errors", 0)) for k, v in kinds.items()}


def cache_problems(kinds, expect_hits):
    """Checks that a run did the artifact work its workload claims.
    expect_hits None: a cold run from an empty cache, so it must generate
    every trace (no trace hits) and solve plans (some plan misses); plan
    hits are allowed, because a plan solved by one figure is read back by
    another later in the same run. Otherwise a warm run, which must hit on
    every get the fill made, per kind, with no misses or errors."""
    probs = []
    if expect_hits is None:
        for kind, hits_ok in (("trace", False), ("plan", True)):
            hits, misses, errors = kinds.get(kind, (0, 0, 0))
            if (hits and not hits_ok) or errors or not misses:
                probs.append("cold %s cache: %d hits, %d misses, %d errors" % (kind, hits, misses, errors))
        return probs
    for kind in sorted(set(kinds) | set(expect_hits)):
        hits, misses, errors = kinds.get(kind, (0, 0, 0))
        if misses or errors or hits != expect_hits.get(kind, 0):
            probs.append("warm %s cache: %d hits (want %d), %d misses, %d errors"
                         % (kind, hits, expect_hits.get(kind, 0), misses, errors))
    return probs


def hit_ratio(kinds, kind):
    """One kind's share of artifact gets that hit. The trace kind is the
    one that tells cold from warm: a cold run also reads back plans that
    another of its figures stored earlier, and how many depends on cell
    timing under -parallel."""
    hits, misses, _ = kinds.get(kind, (0, 0, 0))
    return hits / (hits + misses) if hits + misses else 0.0


def fingerprint_mismatches(csv_dir, ids, want):
    """Experiment ids whose CSV is missing or differs from its committed
    SHA-256 fingerprint."""
    bad = set()
    for i in ids:
        path = os.path.join(csv_dir, i + ".csv")
        if i not in want or not os.path.exists(path) or sha256_file(path) != want[i]:
            bad.add(i)
    return bad


def span_totals(trace_doc):
    """Sums the -trace-out span log into seconds: singleflight wait,
    singleflight compute, and cell time (Chrome trace-event µs)."""
    wait = compute = cell = 0
    for ev in trace_doc.get("traceEvents") or []:
        if ev.get("ph") != "X":
            continue
        dur = ev.get("dur", 0)
        if ev.get("cat") == "cell":
            cell += dur
        elif ev.get("cat") == "singleflight":
            state = (ev.get("args") or {}).get("state")
            if state == "wait":
                wait += dur
            elif state == "compute":
                compute += dur
    return {"experiments.sf_wait_s": wait / 1e6, "experiments.sf_compute_s": compute / 1e6,
            "experiments.cell_s": cell / 1e6}


# ---- campaigns ----


class Campaign:
    """One cmd/experiments child over a workload's experiment ids."""

    def __init__(self, ids, base, seq, cache_dir, deadline, extra=()):
        self.ids = ids
        self.dir = fresh_dir(os.path.join(base, "run%02d" % seq))
        self.csv = fresh_dir(os.path.join(self.dir, "csv"))
        self.cache_dir = cache_dir
        self.extra = list(extra)
        self.deadline = deadline

    def run(self):
        cmd = [os.path.join(BIN, "experiments"), "-blocks", str(BLOCKS), "-parallel", str(PARALLEL),
               "-quiet", "-check", "-csv", self.csv, "-cache-dir", self.cache_dir] + self.extra + self.ids
        self.code, self.wall, self.cpu, self.rss = spawn(
            cmd, os.path.join(self.dir, "stdout"), os.path.join(self.dir, "stderr"), self.deadline)
        try:
            with open(os.path.join(self.csv, "run.json")) as f:
                self.manifest = json.load(f)
        except (OSError, ValueError):
            self.manifest = {}
        return self

    def verify(self, fingerprints):
        """Returns the set of failed experiment ids. An experiment fails on
        a manifest error or failed cell, a -check FAIL line, or a CSV that
        differs from its fingerprint; a non-zero exit or a non-ok manifest
        with no experiment to blame fails them all."""
        with open(os.path.join(self.dir, "stdout"), errors="replace") as f:
            bad = set(check_failures(f.read())) & set(self.ids)
        bad |= manifest_failures(self.manifest, self.ids)
        if fingerprints is not None:
            bad |= fingerprint_mismatches(self.csv, self.ids, fingerprints)
        if not bad and (self.code != 0 or self.manifest.get("status") != "ok"):
            bad = set(self.ids)
        if bad:
            log("%s: failed %s (exit %d, status %r)" % (self.dir, sorted(bad), self.code,
                                                       self.manifest.get("status")))
        return bad


class Bench:
    def __init__(self, workload, seed, seconds, fingerprints):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.fingerprints = fingerprints
        self.base = os.path.join(BUILD, "runs", "%s-%d" % (workload, os.getpid()))
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.seq = 0
        self.setups = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def campaign(self, cache_dir, extra=(), expect_hits=None):
        self.seq += 1
        c = Campaign(self.wl["ids"], self.base, self.seq, cache_dir, self.deadline, extra).run()
        self.attempted += len(c.ids)
        self.failed += len(c.verify(self.fingerprints))
        c.kinds = cache_kinds(c.manifest)
        for p in cache_problems(c.kinds, expect_hits):
            self.problems.append("%s: %s" % (c.dir, p))
            log(self.problems[-1])
        return c

    def setup(self):
        """Brings the workload to its start state and returns the set-up
        times. Cold: cold_setup's empty directories and started binary.
        Warm: a cache directory filled by one full cold campaign; the warm
        runs must then hit on every get the fill made."""
        os.makedirs(self.base)
        if not self.wl["warm"]:
            self.expect_hits = None
            return self.cold_setup()
        t0 = time.perf_counter()
        self.cache = fresh_dir(os.path.join(self.base, "cache"))
        self.fill = self.campaign(self.cache)
        self.expect_hits = {k: v[0] + v[1] for k, v in self.fill.kinds.items()}
        return [time.perf_counter() - t0]

    def cold_setup(self):
        """Times COLD_SETUP_REPS cold start states: empty -csv and
        -cache-dir directories and a started binary (every package
        initialiser run, the experiment registry listed), so work moved
        into program start-up shows. Directory creation alone takes well
        under a millisecond and swings several-fold from run to run on a
        shared host."""
        times = []
        for _ in range(COLD_SETUP_REPS):
            self.setups += 1
            t0 = time.perf_counter()
            d = fresh_dir(os.path.join(self.base, "setup%03d" % self.setups))
            fresh_dir(os.path.join(d, "csv"))
            fresh_dir(os.path.join(d, "cache"))
            listed = subprocess.run([os.path.join(BIN, "experiments"), "-list"], stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)
            times.append(time.perf_counter() - t0)
            if listed.returncode != 0 or not set(self.wl["ids"]) <= set(listed.stdout.split()):
                self.problems.append("experiments -list: exit %d, ids missing" % listed.returncode)
        return times

    def measured(self, extra=()):
        """One campaign from the start state: a fresh -csv directory and,
        for cold, a fresh -cache-dir."""
        if self.wl["warm"]:
            return self.campaign(self.cache, extra, self.expect_hits)
        cache = fresh_dir(os.path.join(self.base, "cache%02d" % (self.seq + 1)))
        return self.campaign(cache, extra)

    def end_to_end(self):
        setup = self.setup()
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < self.seconds:
            runs.append(self.measured())
            if not self.wl["warm"]:
                # The cold set-up lasts milliseconds, so one burst of it
                # samples one moment of the host; bursts between campaigns
                # spread the samples over the run.
                setup += self.cold_setup()
        for r in runs:
            log("%s: %.3f s wall, %.3f s cpu, %.1f MiB peak RSS" % (r.dir, r.wall, r.cpu, r.rss))
        return {
            "campaign_s": statistics.median(r.wall for r in runs),
            "cpu_s": statistics.median(r.cpu for r in runs),
            # Peak RSS is bimodal across identical campaigns (about 530 or
            # 670 MiB on warm-campaign, with GC timing), so a median of a
            # few campaigns flips between modes; the least peak is the
            # memory the campaign needs.
            "peak_rss_mb": min(r.rss for r in runs),
            "setup_s": statistics.median(setup),
        }

    def traced(self):
        self.setup()
        plain = self.measured()
        trace_path = os.path.join(self.base, "trace.json")
        traced = self.measured(["-trace-out", trace_path])
        tel = self.measured(["-telemetry", os.path.join(self.base, "metrics.txt")])
        with open(trace_path) as f:
            out = span_totals(json.load(f))
        out["experiments.peak_heap_mb"] = plain.manifest.get("peak_heap_alloc_bytes", 0) / (1 << 20)
        out["artifact.hit_ratio"] = hit_ratio(plain.kinds, "trace")
        out["telemetry.overhead_ratio"] = tel.wall / plain.wall
        out["inspect.trace_overhead_ratio"] = traced.wall / plain.wall
        metrics = {k: {"value": v, "unit": TRACE_METRICS[k]} for k, v in out.items()}
        layers_dir = fresh_dir(os.path.join(self.base, "layers"))
        cmd = [os.path.join(BIN, "layers"), "-seed", str(self.seed % (1 << 31)), "-dir", layers_dir]
        code, _, _, _ = spawn(cmd, os.path.join(layers_dir, "stdout"), os.path.join(layers_dir, "stderr"),
                              self.deadline)
        if code != 0:
            raise SystemExit("campaignbench: layers tool failed (exit %d), see %s" % (code, layers_dir))
        with open(os.path.join(layers_dir, "stdout")) as f:
            metrics.update(json.load(f))
        return metrics

    def cleanup(self):
        shutil.rmtree(self.base, ignore_errors=True)


def git_revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return r.stdout.strip() or None
    except OSError:
        return None


def update_fingerprints():
    """Re-baselines fingerprints.json: one cold campaign per workload (and
    its warm run for warm workloads, which must match the fill)."""
    out = {}
    for name, wl in WORKLOADS.items():
        b = Bench(name, 0, 0, None)
        try:
            b.setup()
            c = b.measured()
            if c.code != 0 or c.manifest.get("status") != "ok":
                raise SystemExit("campaignbench: %s campaign failed (exit %d)" % (name, c.code))
            out[name] = {i: sha256_file(os.path.join(c.csv, i + ".csv")) for i in wl["ids"]}
            if wl["warm"]:
                for i in wl["ids"]:
                    if sha256_file(os.path.join(b.fill.csv, i + ".csv")) != out[name][i]:
                        raise SystemExit("campaignbench: %s: %s differs between cold and warm" % (name, i))
        finally:
            b.cleanup()
        log("%s: %d fingerprints" % (name, len(out[name])))
    with open(FINGERPRINTS, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-fingerprints", action="store_true",
                    help="regenerate fingerprints.json from fresh campaigns and exit")
    args = ap.parse_args(argv)
    if not args.update_fingerprints and not args.workload:
        ap.error("--workload is required")
    signal.signal(signal.SIGTERM, _terminate)

    go_version = build()
    if args.update_fingerprints:
        update_fingerprints()
        return 0
    with open(FINGERPRINTS) as f:
        fingerprints = json.load(f)[args.workload]

    b = Bench(args.workload, args.seed, args.seconds, fingerprints)
    try:
        if args.trace:
            metrics = b.traced()
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in b.end_to_end().items()}
    finally:
        b.cleanup()

    # What makes two results comparable, on its own line before the result.
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_revision": git_revision(), "go_version": go_version,
        "nproc": len(os.sched_getaffinity(0)),
        # Go's default GOMAXPROCS is the CPUs the process may run on.
        "gomaxprocs": int(os.environ.get("GOMAXPROCS") or len(os.sched_getaffinity(0))),
        "blocks": BLOCKS, "parallel": PARALLEL, "experiments": WORKLOADS[args.workload]["ids"],
    }}))
    for p in b.problems:
        log(p)
    print(json.dumps({
        "correct": b.failed == 0 and not b.problems,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    finally:
        if _child is not None and _child.poll() is None:
            _child.kill()
            _child.wait()
