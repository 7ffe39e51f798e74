#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the experiments binary.

Run from the root of a checkout:

    python3 benchmark/run.py --workload missrate --seed 1 --seconds 30 --trace 0

It builds cmd/experiments and the per-layer replayer (benchmark/layers) from
the checkout's source into .bench_build/, then measures the real binary as
fresh child processes, one at a time, each with GOMAXPROCS=2 and -workers 2.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mib of
the untraced product command (from wait4 rusage; wall_s leaves out the time
the hypervisor stole from the machine's vCPUs), and setup_s, the time from
fork to the first unit or trace-build span in the program's own journal.
--trace 1 reports the per-layer metrics: the program's journal and JSON
document from a traced run, GC totals from GODEBUG=gctrace=1, and the layer
replayer's replay of the workload's profiles through each module.

Every child runs in its own session and process group with its own TMPDIR.
It is reaped with wait4, its whole group is killed on a timeout or when this
script is interrupted, and after each child the script checks that no
descendant and no bcache-tracespill-* directory survived. A nonzero exit, a
timeout, an output digest or simulated-statistic mismatch, or a leftover
counts as a failed operation. See benchmark/README.md.
"""

import argparse
import collections
import ctypes
import glob
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The product command for each workload, after the common flags. All three
# use the experiments' canonical workload seeds, which are compiled into the
# program; caches start cold in every simulation. Each runs at an eighth of
# the instruction count of its reference size (2M for fig12 and fig8, 500k
# for the whole campaign), so that one run holds about ten children, with
# the trace-cache budget cut to an eighth of its 232 MiB default as well:
# the cache then builds, spills and reloads exactly as many traces as at
# the reference size.
TRACE_BUDGET = ["-trace-cache-bytes", str(29 << 20)]
WORKLOADS = {
    # All 23 experiments: the whole product in one process.
    "campaign": ["-n", "62500"] + TRACE_BUDGET,
    # Figure 12: trace generation and the functional replay engines.
    "missrate": ["-run", "fig12", "-n", "250000"] + TRACE_BUDGET,
    # Figure 8: the CPU timing model and the memory hierarchy.
    "ipc": ["-run", "fig8", "-n", "250000"] + TRACE_BUDGET,
}
COMMON = ["-workers", "2"]
# Start-up probes run the workload's first experiment at a tiny instruction
# count: every step before the first span is the same as the full run's.
# Start-up takes about 10 ms and a probe under 0.1 s, so many fit in a run.
PROBES = 41
# Untraced children a --trace 1 run measures beside its one traced child.
UNTRACED = 3
PROBE_ARGS = {
    "campaign": ["-run", "fault", "-n", "1000"] + TRACE_BUDGET,
    "missrate": ["-run", "fig12", "-n", "1000"] + TRACE_BUDGET,
    "ipc": ["-run", "fig8", "-n", "1000"] + TRACE_BUDGET,
}
EXPERIMENT_IDS = [
    "fault", "fig3", "fig4", "fig5", "fig8", "fig9", "fig12",
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "x3c", "xdrowsy", "xl2", "xline", "xprefetch", "xrecolor", "xrelated",
    "xvipt", "xwindow",
]
CORES = 2
# Budget for everything after the build; a run must end within 180 s.
RUN_BUDGET_S = 165.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
REPLAY_UNITS = {
    "workload.gen_ns_per_instr": "ns/instr",
    "trace.encode_ns_per_rec": "ns/rec",
    "trace.decode_ns_per_rec": "ns/rec",
    "trace.encoded_bytes_per_rec": "B/rec",
    "cache.dm_ns_per_access": "ns/access",
    "cache.setassoc8_ns_per_access": "ns/access",
    "core.bcache_ns_per_access": "ns/access",
    "victim.ns_per_access": "ns/access",
    "stackdist.lru_ns_per_access": "ns/access",
    "stackdist.fifo_ns_per_access": "ns/access",
    "altcache.column_ns_per_access": "ns/access",
    "altcache.skewed_ns_per_access": "ns/access",
    "altcache.hac_ns_per_access": "ns/access",
    "altcache.psa_ns_per_access": "ns/access",
    "altcache.agac_ns_per_access": "ns/access",
    "altcache.pam_ns_per_access": "ns/access",
    "hier.ns_per_access": "ns/access",
    "cpu.ns_per_instr": "ns/instr",
}
EXPERIMENT_UNITS = {
    "experiment.core_util": "ratio",
    "experiment.idle_core_s": "s",
    "experiment.units": "count",
    "experiment.unit_busy_s": "s",
    "experiment.unit_retries": "count",
    "experiment.trace_builds": "count",
    "experiment.trace_hits": "count",
    "experiment.trace_spills": "count",
    "experiment.trace_reloads": "count",
    "experiment.trace_hit_frac": "ratio",
    "experiment.trace_build_s": "s",
    "experiment.trace_reload_s": "s",
    "runtime.gc_cycles": "count",
    "runtime.gc_cpu_s": "s",
    "tracing.overhead_wall_s": "s",
}
LAYER_UNITS = dict(REPLAY_UNITS)
LAYER_UNITS.update({"experiment.%s.wall_s" % e: "s" for e in EXPERIMENT_IDS})
LAYER_UNITS.update(EXPERIMENT_UNITS)

GCTRACE = re.compile(r"^gc \d+ @.*?: .*? ms clock, ([\d.]+)\+([\d.]+)/([\d.]+)/([\d.]+)\+([\d.]+) ms cpu")


class Interrupted(Exception):
    pass


# The machine's vCPUs, over which /proc/stat sums stolen time.
VCPUS = os.cpu_count() or 1
CLK_TCK = os.sysconf("SC_CLK_TCK")


def stolen_seconds():
    """CPU time the hypervisor has taken from this machine's vCPUs since boot,
    summed over them; 0 where the kernel accounts none."""
    with open("/proc/stat") as f:
        fields = f.readline().split()  # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / CLK_TCK if len(fields) > 8 else 0.0


class Child(collections.namedtuple("Child", "rc wall stolen ru fork_ns out err")):
    """A finished child: exit code, host seconds from fork to exit, vCPU
    seconds stolen from the machine meanwhile, rusage, fork time in Unix
    ns, and the paths of its stdout and stderr."""

    @property
    def cpu(self):
        return self.ru.ru_utime + self.ru.ru_stime

    @property
    def unstolen_wall(self):
        """wall less the part of it the hypervisor gave this machine's vCPUs
        to other guests: stolen time spread evenly over the vCPUs."""
        return self.wall - self.stolen / VCPUS


def log(msg):
    print("bench: " + msg, file=sys.stderr, flush=True)


class Runner:
    """Runs children one at a time and checks that each leaves nothing."""

    def __init__(self, root, build_dir, workload):
        self.root = root
        self.build_dir = build_dir
        self.run_dir = os.path.join(build_dir, "runs", "%s-%d" % (workload, os.getpid()))
        self.ids = itertools.count()
        self.current = None
        self.attempted = 0
        self.failed = 0
        self.deadline = None
        self.expired = False
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        # Orphaned descendants of a child are re-parented to this process,
        # so the leftover check below can see and reap them.
        try:
            ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
        except (OSError, AttributeError):
            pass

    def fail(self, what):
        self.failed += 1
        log("FAILED: " + what)

    def kill_current(self):
        p = self.current
        if p is not None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def expire(self):
        self.expired = True
        self.kill_current()

    def child(self, argv, name, extra_env=None, stdout_path=None, go_build=False):
        """Runs argv to completion and returns its Child."""
        n = next(self.ids)
        token = "%d-%d-%d" % (os.getpid(), n, time.time_ns())
        tmp = os.path.join(self.run_dir, "tmp-%d" % n)
        os.makedirs(tmp)
        env = dict(os.environ, TMPDIR=tmp, BCACHE_BENCH_TOKEN=token)
        if not go_build:
            env["GOMAXPROCS"] = str(CORES)
        env.update(extra_env or {})
        stdout_path = stdout_path or os.path.join(self.run_dir, "%s-%d.out" % (name, n))
        stderr_path = os.path.join(self.run_dir, "%s-%d.err" % (name, n))
        timer = None
        self.expired = False
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            # The clocks start before the fork: its cost and exec's are
            # small and constant, while the wait for this process to run
            # again after Popen is not.
            fork_ns = time.time_ns()
            stolen0 = stolen_seconds()
            t0 = time.perf_counter()
            self.current = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                            env=env, cwd=self.root, start_new_session=True)
        p = self.current
        if self.deadline is not None:
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), self.expire)
            timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            stolen = stolen_seconds() - stolen0
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if timer is not None:
                timer.cancel()
            if p.returncode is None:
                # Interrupted while waiting: the group is already killed.
                self.kill_current()
                _, status, _ = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            self.current = None
            self.check_leftovers(p.pid, token, tmp)
        if not go_build:
            self.attempted += 1
        if p.returncode != 0:
            with open(stderr_path, "rb") as f:
                tail = f.read()[-2000:].decode(errors="replace")
            what = "timed out" if self.expired else "exit %d" % p.returncode
            if go_build:
                log("%s %s:\n%s" % (name, what, tail))
                sys.exit(1)
            self.fail("%s %s\n%s" % (name, what, tail))
        return Child(p.returncode, wall, stolen, ru, fork_ns, stdout_path, stderr_path)

    def check_leftovers(self, pgid, token, tmp):
        problems = []
        try:
            os.killpg(pgid, 0)
            problems.append("process group %d still has members" % pgid)
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        # A descendant carries the child's token in its environment unless
        # it replaced it; one that outlived its parent was re-parented to
        # this process (PR_SET_CHILD_SUBREAPER). Either way it is a leftover.
        marker = ("BCACHE_BENCH_TOKEN=" + token).encode()
        me = str(os.getpid())
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry, "rb") as f:
                    ppid = f.read().rsplit(b")", 1)[1].split()[1].decode()
                with open("/proc/%s/environ" % entry, "rb") as f:
                    tagged = marker in f.read().split(b"\0")
                if tagged or ppid == me:
                    problems.append("descendant pid %s survived" % entry)
                    os.kill(int(entry), signal.SIGKILL)
            except (OSError, IndexError):
                pass
        # Reap whatever was re-parented to us, giving killed leftovers a moment.
        give_up = time.monotonic() + (2.0 if problems else 0.0)
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                if time.monotonic() >= give_up:
                    break
                time.sleep(0.05)
        spills = glob.glob(os.path.join(tmp, "bcache-tracespill-*"))
        if spills:
            problems.append("spill directory survived: " + ", ".join(os.path.basename(s) for s in spills))
        shutil.rmtree(tmp, ignore_errors=True)
        for what in problems:
            self.fail(what)

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)


def build(runner, build_dir):
    """Builds both binaries from the checkout; every Go cache stays inside it."""
    bin_dir = os.path.join(build_dir, "bin")
    os.makedirs(bin_dir, exist_ok=True)
    gotmp = os.path.join(build_dir, "gotmp")
    os.makedirs(gotmp, exist_ok=True)
    env = {
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOMODCACHE": os.path.join(build_dir, "gopath", "pkg", "mod"),
        "GOTMPDIR": gotmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    }
    exe = os.path.join(bin_dir, "experiments")
    layers = os.path.join(bin_dir, "layers")
    runner.child(["go", "build", "-o", exe, "./cmd/experiments"], "build-experiments", env, go_build=True)
    runner.child(["go", "-C", os.path.join(HERE, "layers"), "build", "-o", layers, "."],
                 "build-layers", env, go_build=True)
    return exe, layers


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_journal(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not lines or lines[0].get("schemaVersion") != 1:
        raise ValueError("%s: not a schema-1 span journal" % path)
    return lines[1:]


def setup_seconds(spans, fork_ns):
    starts = [s["startUnixNano"] for s in spans if s["kind"] in ("unit", "trace_build")]
    if not starts:
        return None
    return (min(starts) - fork_ns) / 1e9


def tables_digest(doc_path):
    with open(doc_path) as f:
        doc = json.load(f)
    canon = [[r["id"], r["tables"]] for r in doc["experiments"]]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), doc


def load_expected():
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH) as f:
        return json.load(f)


# What a malformed journal, document or replayer report raises when read.
BAD_OUTPUT = (OSError, ValueError, KeyError, TypeError)


def measure_e2e(runner, exe, workload, seconds, expected):
    """Start-up probes, then the product command back to back for --seconds."""
    setups = []
    for _ in range(PROBES):
        journal = os.path.join(runner.run_dir, "probe.jsonl")
        c = runner.child([exe] + PROBE_ARGS[workload] + COMMON + ["-format", "csv", "-trace-out", journal], "probe")
        os.remove(c.out)
        if c.rc != 0:
            continue
        try:
            s = setup_seconds(read_journal(journal), c.fork_ns)
        except BAD_OUTPUT as e:
            runner.fail("probe journal unreadable: %s" % e)
            continue
        if s is None:
            runner.fail("probe journal holds no unit or trace-build span")
        else:
            setups.append(s)

    children = []
    start = time.monotonic()
    longest = 0.0
    while time.monotonic() - start < seconds:
        if time.monotonic() + 1.5 * longest > runner.deadline:
            break
        c = runner.child([exe] + WORKLOADS[workload] + COMMON + ["-format", "csv"], workload)
        longest = max(longest, c.wall)
        if c.rc == 0:
            children.append(c)
            check_digest(runner, "csv output", sha256(c.out), expected.get("csv_sha256", {}).get(workload))
        os.remove(c.out)
    log("%s: %d timed run(s), wall/unstolen/cpu s: %s" % (workload, len(children), ", ".join(
        "%.3f/%.3f/%.3f" % (c.wall, c.unstolen_wall, c.cpu) for c in children)))
    if setups:
        log("%s: %d start-up probe(s), setup min %.2f median %.2f max %.2f ms" % (
            workload, len(setups), 1e3 * min(setups), 1e3 * statistics.median(setups), 1e3 * max(setups)))
    m = {}
    if children:
        m.update(wall_s=statistics.median(c.unstolen_wall for c in children),
                 cpu_s=statistics.median(c.cpu for c in children),
                 peak_rss_mib=statistics.median(c.ru.ru_maxrss / 1024.0 for c in children))
    if setups:
        # The fastest start-up: at ~10 ms a probe is too short for stolen
        # time to be accounted, so the least disturbed one is taken.
        m["setup_s"] = min(setups)
    return m


def check_digest(runner, what, got, want):
    if want is None:
        runner.fail("no committed %s digest for this workload (run with --record)" % what)
    elif got != want:
        runner.fail("%s digest %s, committed %s" % (what, got, want))


def gc_totals(stderr_path):
    cycles, cpu_ms = 0, 0.0
    with open(stderr_path, errors="replace") as f:
        for line in f:
            m = GCTRACE.match(line)
            if m:
                cycles += 1
                stw1, assist, background, _idle, stw2 = (float(x) for x in m.groups())
                cpu_ms += stw1 + assist + background + stw2
    return cycles, cpu_ms / 1000.0


def compare_stats(runner, got, want):
    if want is None:
        runner.fail("no committed layer statistics for this L1 size set (run with --record)")
        return
    for layer in sorted(set(got) | set(want)):
        g, w = got.get(layer, {}), want.get(layer, {})
        for stat in sorted(set(g) | set(w)):
            if g.get(stat) != w.get(stat):
                runner.fail("layer %s: simulated %s is %s, committed %s" % (layer, stat, g.get(stat), w.get(stat)))


def stats_key(l1_sizes):
    """Names the replay of one set of L1 sizes: workloads that share the
    sizes share the replay, and its statistics are committed once."""
    return "l1_" + "_".join("%dkB" % (size // 1024) for size in l1_sizes)


def save_expected(expected):
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")


def measure_layers(runner, exe, layers, workload, expected, record):
    """Untraced and traced product runs, then the layer replayer.

    Returns the metrics it could compute. A step that fails is counted as a
    failed operation and leaves its metrics out.
    """
    m = {}
    product = [exe] + WORKLOADS[workload] + COMMON
    plain = []
    for _ in range(UNTRACED):
        c = runner.child(product + ["-format", "csv"], workload)
        if c.rc == 0:
            plain.append(c)
            digest = sha256(c.out)
            if record:
                expected.setdefault("csv_sha256", {})[workload] = digest
            check_digest(runner, "csv output", digest, expected.get("csv_sha256", {}).get(workload))
        os.remove(c.out)
    if plain:
        # Core use of the untraced product, median over its children.
        m["experiment.core_util"] = statistics.median(c.cpu / c.unstolen_wall / CORES for c in plain)
        m["experiment.idle_core_s"] = statistics.median(CORES * c.unstolen_wall - c.cpu for c in plain)

    trace_dir = os.path.join(runner.build_dir, "traces", workload)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    journal = os.path.join(trace_dir, "program.jsonl")
    doc_path = os.path.join(trace_dir, "document.json")
    traced = runner.child(
        product + ["-format", "json", "-trace-out", journal],
        workload + "-traced", {"GODEBUG": "gctrace=1"}, stdout_path=doc_path)
    merge = []
    if traced.rc == 0:
        try:
            m.update(program_metrics(runner, read_journal(journal), doc_path, traced.err, workload, expected, record))
            merge = ["-merge", journal]
            if plain:
                m["tracing.overhead_wall_s"] = traced.unstolen_wall - statistics.median(c.unstolen_wall for c in plain)
        except BAD_OUTPUT as e:
            runner.fail("traced run's outputs unreadable: %s" % e)
        shutil.copy(traced.err, os.path.join(trace_dir, "program.stderr"))

    replayer = runner.child(
        [layers, "-workload", workload, "-seed", "0"] + merge +
        ["-trace-out", os.path.join(trace_dir, "combined.jsonl"),
         "-trace-chrome", os.path.join(trace_dir, "combined.trace.json")], "layers")
    if replayer.rc == 0:
        try:
            with open(replayer.out) as f:
                report = json.load(f)
            key = stats_key(report["l1Sizes"])
            if record:
                expected.setdefault("layer_stats", {})[key] = report["stats"]
            compare_stats(runner, report["stats"], expected.get("layer_stats", {}).get(key))
            m.update({k: v for k, v in report["metrics"].items() if k in REPLAY_UNITS})
        except BAD_OUTPUT as e:
            runner.fail("layer replayer report unreadable: %s" % e)
    if record:
        save_expected(expected)
        log("recorded what this run produced for %s in %s" % (workload, EXPECTED_PATH))
    return m


def program_metrics(runner, spans, doc_path, err_path, workload, expected, record):
    """The experiment-layer metrics of the traced child, from its journal,
    its JSON document and its gctrace lines."""
    doc_digest, doc = tables_digest(doc_path)
    if record:
        expected.setdefault("tables_sha256", {})[workload] = doc_digest
    check_digest(runner, "json tables", doc_digest, expected.get("tables_sha256", {}).get(workload))
    cycles, gc_cpu = gc_totals(err_path)

    def kind(k):
        return [s for s in spans if s["kind"] == k]

    def busy(k):
        return sum(s.get("durNanos", 0) for s in kind(k)) / 1e9

    hits, builds, reloads = len(kind("trace_hit")), len(kind("trace_build")), len(kind("trace_reload"))
    fetches = hits + builds + reloads
    elapsed = {r["id"]: r["elapsedSeconds"] for r in doc["experiments"]}
    m = {"experiment.%s.wall_s" % e: elapsed.get(e, 0.0) for e in EXPERIMENT_IDS}
    m.update({
        "experiment.units": len(kind("unit")),
        "experiment.unit_busy_s": busy("unit"),
        "experiment.unit_retries": len(kind("retry")),
        "experiment.trace_builds": builds,
        "experiment.trace_hits": hits,
        "experiment.trace_spills": len(kind("trace_spill")),
        "experiment.trace_reloads": reloads,
        "experiment.trace_hit_frac": hits / fetches if fetches else 0.0,
        "experiment.trace_build_s": busy("trace_build"),
        "experiment.trace_reload_s": busy("trace_reload"),
        "runtime.gc_cycles": cycles,
        "runtime.gc_cpu_s": gc_cpu,
    })
    return m


# Reported for a metric whose measurement failed; the run then reads
# correct=false with the failure counted.
FAILED_METRIC = -1.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted and ignored: the program's inputs are its compiled-in canonical seeds")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="with --trace 1: commit this run's digests and layer statistics to expected.json")
    args = ap.parse_args()
    if args.record and args.trace != 1:
        ap.error("--record needs --trace 1")

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    runner = Runner(root, build_dir, args.workload)

    def on_signal(signum, _frame):
        runner.kill_current()
        raise Interrupted(signal.Signals(signum).name)

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        exe, layers = build(runner, build_dir)
        runner.deadline = time.monotonic() + RUN_BUDGET_S
        expected = load_expected()
        if args.trace:
            metrics = measure_layers(runner, exe, layers, args.workload, expected, args.record)
            units = LAYER_UNITS
        else:
            metrics = measure_e2e(runner, exe, args.workload, args.seconds, expected)
            units = E2E_UNITS
    except Interrupted as e:
        log("interrupted by " + str(e))
        sys.exit(130)
    finally:
        runner.close()
    missing = sorted(set(units) - set(metrics))
    if missing:
        log("no measurement of " + ", ".join(missing))
        if runner.failed == 0:
            runner.fail("a metric is missing although no operation failed")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics.get(k, FAILED_METRIC), "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
